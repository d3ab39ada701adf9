// Command switchml-worker joins a SwitchML aggregation served by
// switchml-agg and all-reduces synthetic tensors, reporting goodput.
// It exists to exercise a real deployment across machines.
//
// Usage:
//
//	switchml-worker -agg host:5555 -id 0 -workers 4
//	    [-elems-per-tensor 1000000] [-iters 10] [-job 0] [-debug :6061]
//	    [-adaptive-rto] [-mesh-listen :7001] [-mesh h0:7001,h1:7001,...]
//	    [-standby host:5556,host2:5555] [-degraded-mode] [-join]
//	    [-drain-after 5]
//
// Every participating worker must use a distinct -id in [0,workers),
// and -workers must be the aggregator's: the pool size and packet size
// are the aggregator's, which it tells each worker when it connects.
// -debug starts an HTTP introspection listener serving /metrics,
// /debug/vars and /debug/pprof/ for the live worker. -mesh arms the
// host-all-reduce fallback: if the aggregator dies mid-job the
// workers finish their tensors by ring all-reduce over the listed
// peer addresses (rank order; give every worker the same list, with
// each binding its own entry via -mesh-listen) and fail back once the
// aggregator answers probes again. -standby ranks warm-standby
// aggregators between those two tiers: a silent primary re-homes the
// job onto the first answering standby (run one switchml-agg per
// address), and only a fully silent ladder drops to the mesh.
//
// Elastic membership: -join enters a running job through the
// aggregator's membership fence (the aggregator must list this id in
// -absent, and the rest of the job must be actively training);
// -drain-after N gracefully leaves after N iterations. A SIGTERM (or
// SIGINT) also drains: the in-flight tensor finishes, the departure
// is announced, and the survivors keep training — the failure
// detector never fires.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"switchml"
)

func main() {
	aggAddr := flag.String("agg", "127.0.0.1:5555", "aggregator UDP address")
	id := flag.Int("id", 0, "this worker's id")
	workers := flag.Int("workers", 2, "number of workers (n)")
	elems := flag.Int("elems-per-tensor", 1_000_000, "tensor length per iteration")
	iters := flag.Int("iters", 10, "number of all-reduce iterations")
	job := flag.Uint("job", 0, "job id")
	rto := flag.Duration("rto", 50*time.Millisecond, "retransmission timeout")
	heartbeat := flag.Duration("heartbeat", 0,
		"liveness beacon period (0 = off); set well below the aggregator's -liveness threshold")
	adaptiveRTO := flag.Bool("adaptive-rto", false,
		"estimate the retransmission timeout from measured RTTs (Jacobson/Karn) instead of the fixed -rto")
	standby := flag.String("standby", "",
		"comma-separated warm-standby aggregator addresses, ladder order; needs -mesh (the silence detector lives there)")
	mesh := flag.String("mesh", "",
		"comma-separated mesh addresses of every worker, rank order (arms the host-all-reduce fallback)")
	meshListen := flag.String("mesh-listen", "",
		"mesh socket listen address, e.g. :7001 (default: ephemeral port)")
	degradedMode := flag.Bool("degraded-mode", false,
		"with -mesh, never fail back to the aggregator: run the whole job on host ring all-reduce once degraded")
	debug := flag.String("debug", "", "optional HTTP address exposing /metrics, expvar and pprof")
	flightDir := flag.String("flight-dir", "",
		"arm a fault flight recorder: degrade/failback transitions dump JSON incident files into this directory")
	join := flag.Bool("join", false,
		"join a running job through the membership fence (the aggregator must list this id in -absent)")
	drainAfter := flag.Int("drain-after", 0,
		"gracefully leave the job after this many iterations (0 = run all -iters); SIGTERM/SIGINT also drain")
	verify := flag.Bool("verify", true,
		"check the first aggregated element against the full-membership sum (disable in elastic jobs, where membership churn changes the expected sums)")
	injectDrop := flag.Float64("inject-drop", 0,
		"chaos: per-datagram drop probability applied to outgoing updates (loopback never drops on its own)")
	injectBurst := flag.String("inject-burst", "",
		"chaos: Gilbert–Elliott burst loss on outgoing updates as \"pGoodToBad,pBadToGood,lossGood,lossBad\" (replaces -inject-drop)")
	injectSeed := flag.Int64("inject-seed", 1,
		"seed for the chaos injector's random stream (runs replay per seed)")
	flag.Parse()

	elastic := *join || *drainAfter > 0
	if elastic && *verify {
		// Membership churn makes the static expected sum wrong for
		// every member, so elastic modes imply -verify=false.
		*verify = false
	}

	params := switchml.PeerParams{
		ID:          *id,
		Workers:     *workers,
		JobID:       uint16(*job),
		RTO:         *rto,
		Heartbeat:   *heartbeat,
		AdaptiveRTO: *adaptiveRTO,
	}
	if *flightDir != "" {
		params.Flight = &switchml.FlightParams{Dir: *flightDir}
	}
	if *injectDrop > 0 || *injectBurst != "" {
		inj := &switchml.FaultInjection{Seed: *injectSeed, DropRate: *injectDrop}
		if *injectBurst != "" {
			var b switchml.BurstLossParams
			if n, err := fmt.Sscanf(*injectBurst, "%g,%g,%g,%g",
				&b.PGoodToBad, &b.PBadToGood, &b.LossGood, &b.LossBad); n != 4 || err != nil {
				log.Fatalf("-inject-burst: want \"pGoodToBad,pBadToGood,lossGood,lossBad\", got %q", *injectBurst)
			}
			inj.Burst = &b
			inj.DropRate = 0
		}
		params.Inject = inj
	}
	if *mesh != "" {
		fb := &switchml.FallbackParams{Listen: *meshListen, Peers: strings.Split(*mesh, ",")}
		if *degradedMode {
			fb.Probation = -1
		}
		params.Fallback = fb
	} else if *degradedMode {
		log.Fatal("-degraded-mode needs -mesh (the host fabric's addresses)")
	}
	if *standby != "" {
		if params.Fallback == nil {
			log.Fatal("-standby needs -mesh (the silence detector and probation window live in the fallback controller)")
		}
		params.Standbys = strings.Split(*standby, ",")
	}
	peer, err := switchml.DialAggregator(*aggAddr, params)
	if err != nil {
		log.Fatal(err)
	}
	defer peer.Close()
	if params.Fallback != nil {
		fmt.Printf("switchml-worker %d: fallback mesh at %s\n", *id, peer.MeshAddr())
	}
	if *debug != "" {
		bound, err := peer.ServeDebug(*debug)
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		fmt.Printf("switchml-worker %d: debug at http://%s/metrics\n", *id, bound)
	}

	tensor := make([]int32, *elems)
	for i := range tensor {
		tensor[i] = int32(*id + i)
	}
	// Incumbents answer joiners' state-fetch requests over the mesh
	// with their current model (here: the synthetic tensor).
	peer.SetStateProvider(func() []int32 { return tensor })

	if *join {
		fmt.Printf("switchml-worker %d: joining the running job...\n", *id)
		state, err := peer.JoinCluster()
		if err != nil {
			log.Fatalf("join: %v", err)
		}
		if state != nil {
			fmt.Printf("switchml-worker %d: admitted at frontier %d with %d model elements from a peer\n",
				*id, peer.Frontier(), len(state))
		} else {
			fmt.Printf("switchml-worker %d: admitted at frontier %d (no peer state available)\n",
				*id, peer.Frontier())
		}
	}

	// A SIGTERM or SIGINT requests a graceful drain: the in-flight
	// iteration finishes, then the worker announces its departure and
	// exits without ever tripping the aggregator's failure detector.
	var drainRequested atomic.Bool
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sigc
		fmt.Printf("switchml-worker %d: drain requested, finishing in-flight work\n", *id)
		drainRequested.Store(true)
		<-sigc // a second signal exits immediately
		os.Exit(1)
	}()

	fmt.Printf("switchml-worker %d/%d: aggregating %d x %d elements via %s (pool %d, k=%d)\n",
		*id, *workers, *iters, *elems, *aggAddr, peer.PoolSize(), peer.SlotElems())

	var total time.Duration
	completed := 0
	for it := 0; it < *iters; it++ {
		start := time.Now()
		out, err := peer.AllReduceInt32(tensor)
		if err != nil {
			log.Fatalf("iteration %d: %v", it, err)
		}
		elapsed := time.Since(start)
		total += elapsed
		completed++
		if *verify {
			// Verify the first element: sum over w of (w + i) at i=0.
			want := int32(*workers * (*workers - 1) / 2)
			if out[0] != want {
				log.Fatalf("iteration %d: aggregate[0] = %d, want %d", it, out[0], want)
			}
		}
		fmt.Printf("  iter %2d: %8s  %6.1fM elems/s\n",
			it, elapsed.Round(time.Millisecond), float64(*elems)/elapsed.Seconds()/1e6)
		if drainRequested.Load() || (*drainAfter > 0 && completed >= *drainAfter) {
			if err := peer.Drain(); err != nil {
				if errors.Is(err, switchml.ErrDrained) {
					break
				}
				log.Fatalf("drain: %v", err)
			}
			fmt.Printf("switchml-worker %d: drained after %d iteration(s); survivors keep training\n",
				*id, completed)
			break
		}
	}
	if completed > 0 {
		fmt.Printf("done: mean %6.1fM elems/s over %d iteration(s)\n",
			float64(*elems)*float64(completed)/total.Seconds()/1e6, completed)
	}
	if st := peer.FailoverStats(); st.Rehomes > 0 {
		fmt.Printf("failover ladder: %d re-homing(s), %d adoption request(s), %d climb(s) back to the primary (home rank now %d)\n",
			st.Rehomes, st.AdoptRequests, st.Failbacks, peer.HomeRank())
	}
	if st := peer.FallbackStats(); st.Degrades > 0 {
		fmt.Printf("fabric handoffs: %d degrade(s), %d failback(s), %d tensors (%d elems) on the host mesh\n",
			st.Degrades, st.Failbacks, st.HostRounds, st.HostElems)
	}
}
