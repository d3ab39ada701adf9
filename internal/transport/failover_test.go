package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"switchml/internal/core"
	"switchml/internal/faults"
	"switchml/internal/netsim"
)

// failoverOpts parameterizes a failover cluster: a primary aggregator,
// ranked warm standbys, and n clients with the ladder configured.
type failoverOpts struct {
	workers  int
	standbys int
	quorum   int
	// fallback, when non-nil, also arms the host mesh behind the ladder.
	fallback *FallbackConfig
	// inject applies a per-worker fault injector (nil entries are clean).
	inject  map[int]*faults.InjectorConfig
	timeout time.Duration
}

// failoverCluster binds 1+standbys aggregators sharing one switch
// config and n clients homed on the first with the rest ranked as
// standbys, ready for lockstep steps.
func failoverCluster(t *testing.T, o failoverOpts) ([]*Aggregator, []*Client) {
	t.Helper()
	swcfg := core.SwitchConfig{
		Workers: o.workers, PoolSize: 8, SlotElems: 32,
		LossRecovery: true, Quorum: o.quorum,
	}
	aggs := make([]*Aggregator, 1+o.standbys)
	for i := range aggs {
		agg, err := NewAggregator(AggregatorConfig{Addr: "127.0.0.1:0", Switch: swcfg})
		if err != nil {
			t.Fatal(err)
		}
		aggs[i] = agg
		t.Cleanup(func() { agg.Close() })
	}
	ranked := make([]string, o.standbys)
	for i := range ranked {
		ranked[i] = aggs[1+i].Addr().String()
	}
	clients := make([]*Client, o.workers)
	for i := 0; i < o.workers; i++ {
		c, err := NewClient(ClientConfig{
			Aggregator: aggs[0].Addr().String(),
			Standbys:   ranked,
			Worker: core.WorkerConfig{
				ID: uint16(i), Workers: o.workers, PoolSize: 8, SlotElems: 32, LossRecovery: true,
			},
			RTO:         10 * time.Millisecond,
			Timeout:     o.timeout,
			AdaptiveRTO: true,
			Fallback:    o.fallback,
			Inject:      o.inject[i],
			JitterSeed:  77,
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		t.Cleanup(func() { c.Close() })
	}
	if o.fallback != nil {
		mesh := make([]string, o.workers)
		for i, c := range clients {
			mesh[i] = fmt.Sprintf("127.0.0.1:%d", c.MeshAddr().Port)
		}
		for _, c := range clients {
			if err := c.SetMeshPeers(mesh); err != nil {
				t.Fatal(err)
			}
		}
	}
	return aggs, clients
}

// revive brings a downed aggregator back once it has discarded
// everything that was in flight to it. The fail-up probation counts
// answered probes per worker, and the tests script it tensor by tensor:
// a probe sent during the outage that a shard only gets to read after
// the flag flips would be answered, put that worker's streak one
// tensor ahead of the others', and send it climbing alone.
func revive(agg *Aggregator) {
	for last, quiet := agg.recvd.Value(), 0; quiet < 3; {
		time.Sleep(time.Millisecond)
		if got := agg.recvd.Value(); got != last {
			last, quiet = got, 0
		} else {
			quiet++
		}
	}
	agg.SetDown(false)
}

// lockstepAgree runs one collective step and checks every worker holds
// the bitwise-identical aggregate. Under quorum the value may exclude
// straggler gradients, so unlike lockstep it asserts agreement, not
// the exact elementwise sum.
func lockstepAgree(t *testing.T, clients []*Client, elems, step int) {
	t.Helper()
	n := len(clients)
	us := make([][]int32, n)
	for w := range us {
		us[w] = make([]int32, elems)
		for j := range us[w] {
			us[w][j] = int32(step*1000 + w*10 + j%7)
		}
	}
	results := make([][]int32, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := range clients {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w], errs[w] = clients[w].AllReduceInt32(us[w])
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("step %d worker %d: %v", step, w, err)
		}
	}
	for w := 1; w < n; w++ {
		for j := range results[0] {
			if results[w][j] != results[0][j] {
				t.Fatalf("step %d elem %d: worker %d holds %d, worker 0 holds %d",
					step, j, w, results[w][j], results[0][j])
			}
		}
	}
}

// TestFaultUDPFailoverToStandbyAndFailback is the warm-standby
// tentpole: the primary dies between steps, the workers adopt the job
// onto the standby at full switch rate (never touching the mesh — no
// fallback is even configured), keep producing exact sums, probe the
// revived primary through the fail-up probation window, and climb back
// to rank 0.
func TestFaultUDPFailoverToStandbyAndFailback(t *testing.T) {
	const n, elems = 3, 3000
	aggs, clients := failoverCluster(t, failoverOpts{workers: n, standbys: 1, timeout: 20 * time.Second})
	primary, standby := aggs[0], aggs[1]

	lockstep(t, clients, elems, 1)
	lockstep(t, clients, elems, 2)
	preKill := primary.Stats().Completions
	if preKill == 0 {
		t.Fatal("no switch completions before the kill")
	}

	primary.SetDown(true)
	lockstep(t, clients, elems, 3) // silence → ladder → adopted by the standby
	if got := standby.Adoptions(); got != 1 {
		t.Fatalf("standby adoptions = %d, want 1", got)
	}
	if standby.Stats().Completions == 0 {
		t.Fatal("standby aggregated nothing after adopting the job")
	}
	for w, c := range clients {
		if rank := c.HomeRank(); rank != 1 {
			t.Fatalf("worker %d home rank = %d after the kill, want 1", w, rank)
		}
		st := c.FailoverStats()
		if st.Rehomes == 0 || st.AdoptRequests == 0 {
			t.Fatalf("worker %d failover stats %+v: expected rehomes and adopt requests", w, st)
		}
		if c.Degraded() {
			t.Fatalf("worker %d on the host mesh; the standby should have kept it on the switch path", w)
		}
	}
	lockstep(t, clients, elems, 4) // full rate on the standby

	revive(primary)
	lockstep(t, clients, elems, 5) // stale probe resolved, fresh probe sent
	lockstep(t, clients, elems, 6) // streak 1
	lockstep(t, clients, elems, 7) // streak 2
	lockstep(t, clients, elems, 8) // streak 3 ≥ probation: climb back to rank 0
	midClimb := primary.Stats().Completions
	lockstep(t, clients, elems, 9)
	for w, c := range clients {
		if rank := c.HomeRank(); rank != 0 {
			t.Fatalf("worker %d home rank = %d after probation, want 0 (stats %+v)", w, rank, c.FailoverStats())
		}
		st := c.FailoverStats()
		if st.Failbacks != 1 {
			t.Fatalf("worker %d failbacks = %d, want 1", w, st.Failbacks)
		}
		if st.Probes == 0 || st.ProbeAcks == 0 {
			t.Fatalf("worker %d failover stats %+v: expected probes and acks", w, st)
		}
	}
	if primary.Stats().Completions <= midClimb {
		t.Fatal("primary aggregated nothing after the failback")
	}
	// One generation for the adoption, one for the climb.
	if got := primary.Epoch(); got != 2 {
		t.Fatalf("primary epoch = %d after failback, want 2", got)
	}
	if got := standby.Epoch(); got != 1 {
		t.Fatalf("standby epoch = %d, want 1", got)
	}
}

// TestFaultUDPFailoverSecondRung kills the primary and the first
// standby together: the ladder walk must skip the dead middle rung and
// adopt the job onto the second standby.
func TestFaultUDPFailoverSecondRung(t *testing.T) {
	const n, elems = 2, 2000
	aggs, clients := failoverCluster(t, failoverOpts{workers: n, standbys: 2, timeout: 20 * time.Second})

	lockstep(t, clients, elems, 1)
	aggs[0].SetDown(true)
	aggs[1].SetDown(true)
	lockstep(t, clients, elems, 2)
	if got := aggs[2].Adoptions(); got != 1 {
		t.Fatalf("second standby adoptions = %d, want 1", got)
	}
	for w, c := range clients {
		if rank := c.HomeRank(); rank != 2 {
			t.Fatalf("worker %d home rank = %d, want 2", w, rank)
		}
	}
	lockstep(t, clients, elems, 3)
}

// TestFaultUDPFenceHoldPrimaryClosedWalksLadder holds both workers at a
// membership fence when the primary's port closes. They have a standby
// and no mesh: the refused fence confirms are death evidence, not a
// caller error, so the hold gives way to the silence verdict and the
// step completes on the standby.
func TestFaultUDPFenceHoldPrimaryClosedWalksLadder(t *testing.T) {
	const n, elems = 2, 2000
	aggs, clients := failoverCluster(t, failoverOpts{workers: n, standbys: 1, timeout: 10 * time.Second})

	lockstep(t, clients, elems, 1)
	for _, c := range clients {
		// What a Ver=1 directive from the primary leaves behind: a
		// membership change to hold for at the next tensor boundary.
		c.fenceArmed, c.fenceGen = true, 1
	}
	aggs[0].Close() // the port closes: loopback answers with ICMP port-unreachable
	lockstep(t, clients, elems, 2)
	for w, c := range clients {
		if st := c.FailoverStats(); st.Rehomes < 1 || c.HomeRank() != 1 {
			t.Fatalf("worker %d: %d re-homes, home rank %d; want the step completed on the standby", w, st.Rehomes, c.HomeRank())
		}
	}
	if got := aggs[1].Adoptions(); got != 1 {
		t.Fatalf("standby adoptions = %d, want 1", got)
	}
}

// TestFaultUDPFailoverLadderDescentToMesh kills every rung: the
// workers walk the whole ladder, find it silent, and only then drop to
// the host mesh — still producing exact sums — before failing back up
// to the revived primary through the mesh probation window.
func TestFaultUDPFailoverLadderDescentToMesh(t *testing.T) {
	const n, elems = 2, 2000
	aggs, clients := failoverCluster(t, failoverOpts{
		workers: n, standbys: 1,
		fallback: &FallbackConfig{Probation: 2},
		timeout:  30 * time.Second,
	})

	lockstep(t, clients, elems, 1)
	aggs[0].SetDown(true)
	aggs[1].SetDown(true)
	lockstep(t, clients, elems, 2) // ladder walked dry → host mesh
	for w, c := range clients {
		if !c.Degraded() {
			t.Fatalf("worker %d not on the host mesh with every rung dead", w)
		}
		if rank := c.HomeRank(); rank != 0 {
			t.Fatalf("worker %d home rank = %d while degraded, want 0 (mesh probes target the primary)", w, rank)
		}
		st := c.FailoverStats()
		if st.AdoptRequests == 0 {
			t.Fatalf("worker %d fell to the mesh without soliciting the standby (stats %+v)", w, st)
		}
		if fb := c.FallbackStats(); fb.Degrades != 1 {
			t.Fatalf("worker %d mesh degrades = %d, want 1", w, fb.Degrades)
		}
	}
	lockstep(t, clients, elems, 3) // mesh carries traffic

	aggs[0].SetDown(false)
	lockstep(t, clients, elems, 4) // probe 1
	lockstep(t, clients, elems, 5) // streak 1, probe 2
	lockstep(t, clients, elems, 6) // streak 2 ≥ probation: mesh failback
	lockstep(t, clients, elems, 7)
	for w, c := range clients {
		if c.Degraded() {
			t.Fatalf("worker %d still degraded after the primary revived", w)
		}
	}
	if aggs[0].Stats().Completions == 0 {
		t.Fatal("primary aggregated nothing after the mesh failback")
	}
}

// TestFaultUDPFailoverAllRungsSilentNoMesh is the no-safety-net
// verdict: with every rung dead and no fallback configured, the
// collective must fail fast with the typed retryable error instead of
// hanging to the deadline.
func TestFaultUDPFailoverAllRungsSilentNoMesh(t *testing.T) {
	const n, elems = 2, 2000
	aggs, clients := failoverCluster(t, failoverOpts{workers: n, standbys: 1, timeout: 10 * time.Second})

	lockstep(t, clients, elems, 1)
	aggs[0].SetDown(true)
	aggs[1].SetDown(true)
	start := time.Now()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := range clients {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			u := make([]int32, elems)
			_, errs[w] = clients[w].AllReduceInt32(u)
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if !errors.Is(err, ErrAggregatorSilent) {
			t.Fatalf("worker %d error = %v, want ErrAggregatorSilent", w, err)
		}
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("silent-ladder verdict took %v; it should not ride out the deadline", took)
	}
}

// TestFaultFailoverWithQuorumStraggler is the chaos crossover: quorum
// mode lets slots complete without worker 2, whose updates ride a
// Gilbert–Elliott burst-loss process, while the primary dies mid-run.
// The membership must fence at the chunk frontier, adopt the job onto
// the standby, reconcile the straggler's late updates, and climb back
// after probation — with every worker holding the bitwise-identical
// aggregate at every step. The tensor fits both slot-pool versions
// (elems ≤ 2·PoolSize·SlotElems) so no straggler phase is ever
// evicted: divergent gone-reply self-completions cannot occur and
// agreement is deterministic.
func TestFaultFailoverWithQuorumStraggler(t *testing.T) {
	const n, elems = 3, 512
	aggs, clients := failoverCluster(t, failoverOpts{
		workers: n, standbys: 1, quorum: 2,
		inject: map[int]*faults.InjectorConfig{
			2: {Seed: 42, Burst: &netsim.GEConfig{
				PGoodToBad: 0.2, PBadToGood: 0.3, LossBad: 0.95,
			}},
		},
		timeout: 20 * time.Second,
	})
	primary, standby := aggs[0], aggs[1]

	lockstepAgree(t, clients, elems, 1)
	lockstepAgree(t, clients, elems, 2)

	primary.SetDown(true)
	lockstepAgree(t, clients, elems, 3) // kill → adopt, straggler frontier fenced
	if got := standby.Adoptions(); got != 1 {
		t.Fatalf("standby adoptions = %d, want 1", got)
	}
	for w, c := range clients {
		if rank := c.HomeRank(); rank != 1 {
			t.Fatalf("worker %d home rank = %d after the kill, want 1", w, rank)
		}
	}
	lockstepAgree(t, clients, elems, 4)
	lockstepAgree(t, clients, elems, 5)

	revive(primary)
	for step := 6; step <= 9; step++ { // stale probe + 3-tensor probation
		lockstepAgree(t, clients, elems, step)
	}
	lockstepAgree(t, clients, elems, 10)
	for w, c := range clients {
		if rank := c.HomeRank(); rank != 0 {
			t.Fatalf("worker %d home rank = %d after probation, want 0 (stats %+v)", w, rank, c.FailoverStats())
		}
	}
	quorumShort := primary.Stats().QuorumCompletions + standby.Stats().QuorumCompletions
	if quorumShort == 0 {
		t.Fatal("burst loss never left the straggler out of a quorum completion")
	}
	if got := primary.Epoch(); got != 2 {
		t.Fatalf("primary epoch = %d after failback, want 2", got)
	}
}

// TestFaultUDPFailoverStatsRace hammers the monitoring surface —
// DebugState, FailoverStats, HomeRank — from a separate goroutine
// through a full kill → adopt → failback cycle, for the race detector:
// re-homing swaps sockets and I/O views under concurrent reads.
func TestFaultUDPFailoverStatsRace(t *testing.T) {
	const n, elems = 2, 2000
	aggs, clients := failoverCluster(t, failoverOpts{workers: n, standbys: 1, timeout: 20 * time.Second})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, c := range clients {
				_ = c.DebugState()
				_ = c.FailoverStats()
				_ = c.HomeRank()
			}
			for _, a := range aggs {
				_ = a.DebugState(false)
			}
		}
	}()

	lockstep(t, clients, elems, 1)
	aggs[0].SetDown(true)
	lockstep(t, clients, elems, 2)
	revive(aggs[0])
	for step := 3; step <= 7; step++ {
		lockstep(t, clients, elems, step)
	}
	close(stop)
	wg.Wait()
	for w, c := range clients {
		if rank := c.HomeRank(); rank != 0 {
			t.Fatalf("worker %d home rank = %d at the end of the cycle, want 0", w, rank)
		}
	}
}
