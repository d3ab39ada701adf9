// Command switchml-agg runs a software SwitchML aggregator — the §6
// "parameter aggregator" deployment model — on a UDP port.
//
// Usage:
//
//	switchml-agg -listen :5555 -workers 4 [-pool 0] [-elems 0]
//	    [-jobs 1] [-job-base 0] [-metrics :9100] [-debug :6060]
//	    [-liveness 500ms] [-absent 3] [-quorum 3] [-late-policy drop]
//	    [-down-after 2s] [-down-for 2s]
//
// -down-after / -down-for script a failover drill: the aggregation
// program goes silent (datagrams dropped, socket still bound — what a
// dead switch program looks like under a live crossbar) and
// optionally revives, driving workers armed with -standby and -mesh
// down and back up their failover ladder.
//
// With -jobs 1 it serves a single pool (switchml.ListenAggregator);
// with -jobs N it serves N pools with job ids job-base..job-base+N-1,
// which multi-tenant deployments and sharded multi-core workers
// (switchml.DialSharded) both use; a tuned pool (-pool 0) is divided
// among the N, as for the shards of one worker. Each worker is told
// the pool size and packet size when it connects, and gives only
// -workers and its job id; the aggregator learns its address from its
// first update, so no registration is needed.
//
// Elastic membership (single-pool mode, needs -liveness): -absent
// lists worker ids that start outside the job and may join later
// (switchml-worker -join); -quorum N completes each slot once N of
// the current members contributed, with late straggler updates
// handled per -late-policy (drop or reconcile).
//
// -metrics exposes the switch counters as JSON over HTTP at /stats.
// -debug starts the introspection listener: /metrics (plain-text
// counter dump), /debug/vars (expvar) and /debug/pprof/ (profiles of
// the live aggregator).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"switchml"
)

func main() {
	listen := flag.String("listen", ":5555", "UDP listen address")
	workers := flag.Int("workers", 2, "number of workers per aggregation (n)")
	pool := flag.Int("pool", 0,
		"aggregator pool size (s), told to every worker; 0 = tuned to -workers and -elems (64 at the tuned -elems; at -elems 32, 512 for 2 workers, 256 for 4, 128 for 8, 64 from 9 up), divided among the pools with -jobs N")
	elems := flag.Int("elems", 0,
		"elements per packet (k), told to every worker; 0 = tuned to -workers (352 for 1 worker, 312 for 2, 152 for 4, 72 for 8, 32 from 16 up)")
	jobs := flag.Int("jobs", 1, "number of pools to serve (tenants or worker shards)")
	jobBase := flag.Uint("job-base", 0, "first job id")
	metrics := flag.String("metrics", "", "optional HTTP address exposing /stats")
	debug := flag.String("debug", "", "optional HTTP address exposing /metrics, expvar and pprof")
	liveness := flag.Duration("liveness", 0,
		"failure-detector silence threshold (0 = off); workers silent this long are evicted and the job resumes among survivors")
	flightDir := flag.String("flight-dir", "",
		"arm a fault flight recorder: fault transitions dump JSON incident files (recent events, metric delta, per-slot state) into this directory")
	absent := flag.String("absent", "",
		"comma-separated worker ids that start outside the membership and may join later (requires -liveness; single-pool mode)")
	quorum := flag.Int("quorum", 0,
		"complete each slot once this many members contributed (0 = full participation); stragglers handled per -late-policy")
	latePolicy := flag.String("late-policy", "drop",
		"fate of straggler updates arriving after quorum completion: drop or reconcile")
	downAfter := flag.Duration("down-after", 0,
		"failover drill: this long after startup, silently drop every datagram as a dead switch program would (0 = never; single-pool mode)")
	downFor := flag.Duration("down-for", 0,
		"failover drill: revive the program this long after -down-after (0 = stay down)")
	flag.Parse()

	params := switchml.AggregatorParams{
		Workers:   *workers,
		PoolSize:  *pool,
		SlotElems: *elems,
		Quorum:    *quorum,
	}
	switch *latePolicy {
	case "drop":
		params.LatePolicy = switchml.LateDrop
	case "reconcile":
		params.LatePolicy = switchml.LateReconcile
	default:
		log.Fatalf("switchml-agg: -late-policy must be drop or reconcile, got %q", *latePolicy)
	}
	if *absent != "" {
		for _, part := range strings.Split(*absent, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				log.Fatalf("switchml-agg: -absent: bad worker id %q", part)
			}
			params.Absent = append(params.Absent, w)
		}
		if *liveness <= 0 {
			log.Fatal("switchml-agg: -absent requires -liveness (elastic membership rides on the failure detector)")
		}
	}
	if *liveness > 0 {
		params.Liveness = &switchml.LivenessParams{SilenceAfter: *liveness}
	}
	if *flightDir != "" {
		if *jobs > 1 {
			log.Printf("switchml-agg: -flight-dir applies only to single-pool mode; ignored with -jobs > 1")
		} else {
			params.Flight = &switchml.FlightParams{Dir: *flightDir}
		}
	}

	var statsFn func() any
	var debugFn func(string) (string, error)
	var addr string
	var poolSize, slotElems int
	if *jobs <= 1 {
		params.JobID = uint16(*jobBase)
		agg, err := switchml.ListenAggregator(*listen, params)
		if err != nil {
			log.Fatal(err)
		}
		defer agg.Close()
		addr, poolSize, slotElems = agg.Addr(), agg.PoolSize(), agg.SlotElems()
		statsFn = func() any { return agg.Stats() }
		debugFn = agg.ServeDebug
		if *downAfter > 0 {
			agg := agg
			time.AfterFunc(*downAfter, func() {
				fmt.Println("switchml-agg: drill: aggregation program down")
				agg.SetDown(true)
				if *downFor > 0 {
					time.AfterFunc(*downFor, func() {
						fmt.Println("switchml-agg: drill: aggregation program revived")
						agg.SetDown(false)
					})
				}
			})
		}
	} else {
		if params.Liveness != nil {
			log.Printf("switchml-agg: -liveness applies only to single-pool mode; ignored with -jobs > 1")
		}
		if *downAfter > 0 {
			log.Printf("switchml-agg: -down-after applies only to single-pool mode; ignored with -jobs > 1")
		}
		if len(params.Absent) > 0 || params.Quorum > 0 {
			log.Printf("switchml-agg: -absent and -quorum apply only to single-pool mode; ignored with -jobs > 1")
			params.Absent = nil
			params.Quorum = 0
		}
		m, err := switchml.ListenMultiAggregator(*listen, 0)
		if err != nil {
			log.Fatal(err)
		}
		defer m.Close()
		if err := m.AdmitShardedJob(uint16(*jobBase), *jobs, params); err != nil {
			log.Fatal(err)
		}
		addr, poolSize, slotElems = m.Addr(), m.PoolSize(uint16(*jobBase)), m.SlotElems(uint16(*jobBase))
		debugFn = m.ServeDebug
		statsFn = func() any {
			out := map[string]any{}
			for j := 0; j < *jobs; j++ {
				id := uint16(*jobBase) + uint16(j)
				if st, ok := m.JobStats(id); ok {
					out[fmt.Sprintf("job%d", id)] = st
				}
			}
			return out
		}
	}
	fmt.Printf("switchml-agg: serving %d pool(s) for %d-worker jobs on %s (pool %d, k=%d)\n",
		*jobs, *workers, addr, poolSize, slotElems)

	if *metrics != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(statsFn())
		})
		// Keep the server value in hand so the goroutine has a
		// shutdown path: the deferred srv.Close unblocks Serve.
		srv := &http.Server{Handler: mux}
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			log.Fatalf("switchml-agg: metrics server: %v", err)
		}
		defer srv.Close()
		go srv.Serve(ln)
		fmt.Printf("switchml-agg: stats at http://%s/stats\n", ln.Addr())
	}
	if *debug != "" {
		bound, err := debugFn(*debug)
		if err != nil {
			log.Fatalf("switchml-agg: debug server: %v", err)
		}
		fmt.Printf("switchml-agg: debug at http://%s/metrics and http://%s/debug/pprof/\n", bound, bound)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	fmt.Println("switchml-agg: shutting down")
}
