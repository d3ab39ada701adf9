package transport

import (
	"math/bits"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"switchml/internal/core"
	"switchml/internal/faults"
	"switchml/internal/packet"
)

// checkBoundary verifies the post-recovery aggregate shape: a prefix
// of full-membership sums, a suffix of survivor-only sums, and a
// single transition aligned to a chunk boundary.
func checkBoundary(t *testing.T, got []int32, full, surv int32, k int) int {
	t.Helper()
	boundary := -1
	for j, v := range got {
		switch {
		case boundary < 0 && v == full:
			continue
		case boundary < 0 && v == surv:
			boundary = j
		case boundary >= 0 && v == surv:
			continue
		default:
			t.Fatalf("elem %d: got %d, want %d (full) before the boundary or %d (survivors) after", j, v, full, surv)
		}
	}
	if boundary < 0 {
		boundary = len(got)
	}
	if boundary%k != 0 {
		t.Fatalf("recovery boundary %d is not aligned to the %d-element chunk size", boundary, k)
	}
	return boundary
}

// TestFaultUDPInjectorLoss pushes a tensor through clients and an
// aggregator that all drop, duplicate and corrupt datagrams via the
// seeded injector; retransmission and the checksum must still produce
// exact sums.
func TestFaultUDPInjectorLoss(t *testing.T) {
	const n, s, k, d = 2, 4, 16, 3000
	agg, err := NewAggregator(AggregatorConfig{
		Addr: "127.0.0.1:0",
		Switch: core.SwitchConfig{
			Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true,
		},
		Inject: &faults.InjectorConfig{Seed: 99, DropRate: 0.05, DupRate: 0.02, CorruptRate: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	updates := make([][]int32, n)
	want := make([]int32, d)
	for i := range updates {
		updates[i] = make([]int32, d)
		for j := range updates[i] {
			updates[i][j] = int32(i*7 + j%13)
			want[j] += updates[i][j]
		}
	}
	results := make([][]int32, n)
	errs := make([]error, n)
	retx := make([]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := NewClient(ClientConfig{
				Aggregator: agg.Addr().String(),
				Worker: core.WorkerConfig{
					ID: uint16(i), Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true,
				},
				RTO:     15 * time.Millisecond,
				Timeout: 20 * time.Second,
				Inject:  &faults.InjectorConfig{Seed: int64(i + 1), DropRate: 0.05, DupRate: 0.02, CorruptRate: 0.02},
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			results[i], errs[i] = c.AllReduceInt32(updates[i])
			retx[i] = c.Stats().Retransmissions
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		for j := range want {
			if results[i][j] != want[j] {
				t.Fatalf("worker %d elem %d: got %d want %d", i, j, results[i][j], want[j])
			}
		}
	}
	if retx[0]+retx[1] == 0 {
		t.Error("injector was configured but no retransmissions happened")
	}
}

// TestFaultUDPWorkerCrashRecovery is the §5.6 failure path over real
// sockets: a ghost worker joins with its initial window and then goes
// silent mid-tensor. The aggregator's detector must evict it, walk
// the survivors through reconfigure/report/resume, and let them
// finish with survivor-only sums past the recovery frontier.
func TestFaultUDPWorkerCrashRecovery(t *testing.T) {
	const n, s, k, d = 3, 4, 32, 4000
	agg, err := NewAggregator(AggregatorConfig{
		Addr: "127.0.0.1:0",
		Switch: core.SwitchConfig{
			Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true,
		},
		Liveness: &LivenessConfig{SilenceAfter: 250 * time.Millisecond, CheckEvery: 60 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	// The ghost: a protocol-correct initial window from worker 2, then
	// silence forever.
	ghostCfg := core.WorkerConfig{ID: 2, Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true}
	ghost, err := core.NewWorker(ghostCfg)
	if err != nil {
		t.Fatal(err)
	}
	ghostU := make([]int32, d)
	for j := range ghostU {
		ghostU[j] = 3
	}
	gconn, err := net.DialUDP("udp", nil, agg.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer gconn.Close()
	for _, p := range ghost.Start(ghostU) {
		if _, err := gconn.Write(p.Marshal()); err != nil {
			t.Fatal(err)
		}
	}

	results := make([][]int32, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			u := make([]int32, d)
			for j := range u {
				u[j] = int32(i + 1)
			}
			c, err := NewClient(ClientConfig{
				Aggregator: agg.Addr().String(),
				Worker: core.WorkerConfig{
					ID: uint16(i), Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true,
				},
				RTO:     20 * time.Millisecond,
				Timeout: 20 * time.Second,
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			results[i], errs[i] = c.AllReduceInt32(u)
		}()
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("survivor %d: %v", i, errs[i])
		}
	}
	if agg.Alive(2) {
		t.Error("ghost worker 2 was not declared failed")
	}
	if !agg.Alive(0) || !agg.Alive(1) {
		t.Error("a survivor was wrongly declared failed")
	}
	if agg.Epoch() == 0 {
		t.Error("job generation was not bumped by recovery")
	}
	// Both survivors converge on the identical tensor: full sums
	// (1+2+3) before the recovery frontier, survivor sums (1+2) after.
	for j := range results[0] {
		if results[0][j] != results[1][j] {
			t.Fatalf("survivors disagree at elem %d: %d vs %d", j, results[0][j], results[1][j])
		}
	}
	boundary := checkBoundary(t, results[0], 6, 3, k)
	if boundary >= d {
		t.Error("no element carries survivor-only sums: recovery never ran")
	}
}

// TestFaultRetainedSliceReopen checks the int32 path across a §5.6
// re-open that aborts a membership fence. Three workers aggregate one
// tensor of four chunks while a fourth solicits a join, so the two live
// workers arm the membership fence. Chunk 3's result is withheld from
// worker 1 (the laggard) until the generation moves; worker 0 (the
// leader) completes the tensor. The leader's next call holds at the
// fence; worker 2 goes silent and is evicted, the recovery aborts the
// fence and releases both survivors at chunk 3 — below the leader's
// boundary — so the leader re-opens a tensor it had already returned,
// and chunk 3 is re-aggregated from whatever its u holds now. The
// laggard's result must be the exact survivors' sum of what the callers
// passed, and its next call must not hold at the aborted fence: the
// release that aborted it disarmed it. The rows differ in what the
// leader's caller does with u once its call returns.
func TestFaultRetainedSliceReopen(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reuse bool // refill the leader's u for the next step
		skip  string
	}{
		{name: "aborted fence"},
		{name: "reused u", reuse: true, skip: "finding (ROADMAP item 6(a)): the leader's re-open re-reads the caller's reused u, " +
			"so the laggard's chunk 3 carries the mutated values instead of the survivors' sum"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.skip != "" {
				t.Skip(tc.skip)
			}
			const n, s, k, d = 4, 4, 8, 32
			agg, err := NewAggregator(AggregatorConfig{
				Addr: "127.0.0.1:0",
				Switch: core.SwitchConfig{
					Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true,
				},
				Liveness: &LivenessConfig{SilenceAfter: 300 * time.Millisecond, CheckEvery: 30 * time.Millisecond},
				Absent:   []int{3},
				// Generation 0's results for slot 3 reach only the leader's own
				// retransmission.
				DropResult: func(p *packet.Header) bool {
					return p.JobID == 0 && p.Idx == 3 && (p.Kind != packet.KindResultUnicast || p.WorkerID != 0)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer agg.Close()

			clients := make([]*Client, 2)
			for i := range clients {
				c, err := NewClient(ClientConfig{
					Aggregator: agg.Addr().String(),
					Worker:     core.WorkerConfig{ID: uint16(i), Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true},
					RTO:        100 * time.Millisecond,
					Timeout:    5 * time.Second,
					Heartbeat:  50 * time.Millisecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				clients[i] = c
			}
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				if st := agg.DebugState(false); st.Peers[0] != "" && st.Peers[1] != "" {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the workers' heartbeats never reached the aggregator")
				}
			}
			// The join fence's directive is broadcast to every known member in
			// worker order, so once the joiner holds it the live workers have it
			// queued ahead of the tensor they are about to start.
			joiner := dialRaw(t, agg, 3)
			joiner.send(packet.KindJoin, 0, 0, 0)
			joiner.await(packet.KindReconfig, 1)

			ghost, err := core.NewWorker(core.WorkerConfig{ID: 2, Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true})
			if err != nil {
				t.Fatal(err)
			}
			ghostU := make([]int32, d)
			for j := range ghostU {
				ghostU[j] = 7
			}
			gconn := dialRaw(t, agg, 2).conn
			for _, p := range ghost.Start(ghostU) {
				if _, err := gconn.Write(p.Marshal()); err != nil {
					t.Fatal(err)
				}
			}

			us := make([][]int32, 2)
			for i := range us {
				us[i] = make([]int32, d)
				for j := range us[i] {
					us[i][j] = int32((i+1)*100 + j)
				}
			}
			want := make([]int32, d)
			for j := range want {
				want[j] = us[0][j] + us[1][j]
				if j < 3*k {
					want[j] += ghostU[j]
				}
			}
			type result struct {
				sum []int32
				err error
			}
			leaderT, laggardT := make(chan result, 1), make(chan result, 1)
			go func() { sum, err := clients[0].AllReduceInt32(us[0]); leaderT <- result{sum, err} }()
			go func() { sum, err := clients[1].AllReduceInt32(us[1]); laggardT <- result{sum, err} }()

			r := <-leaderT
			if r.err != nil {
				t.Fatalf("leader: %v", r.err)
			}
			for j := range r.sum {
				if full := us[0][j] + us[1][j] + ghostU[j]; r.sum[j] != full {
					t.Fatalf("leader elem %d = %d, want the full sum %d", j, r.sum[j], full)
				}
			}
			// The leader's caller moves on, and the next call holds at the fence.
			// The §5.6 recovery re-opens the returned tensor from chunk 3 and
			// re-aggregates it without the ghost: the slice already returned
			// must not see it (see the check after the next step).
			returned, kept := r.sum, slices.Clone(r.sum)
			// A training loop reuses its gradient buffer for the next step.
			if tc.reuse {
				for j := range us[0] {
					us[0][j] = -1 << 20
				}
			}
			next := [][]int32{stepUpdate(0, 2, d), stepUpdate(1, 2, d)}
			leaderNext := make(chan result, 1)
			go func() { sum, err := clients[0].AllReduceInt32(next[0]); leaderNext <- result{sum, err} }()

			r = <-laggardT
			if r.err != nil {
				t.Fatalf("laggard: %v", r.err)
			}
			if agg.Alive(2) {
				t.Fatal("worker 2 was never evicted: the release did not come from the §5.6 recovery")
			}
			for j := range want {
				if r.sum[j] != want[j] {
					t.Errorf("laggard elem %d = %d, want %d (full sums before chunk 3, survivors' sums from it)", j, r.sum[j], want[j])
				}
			}
			laggardSum, err := clients[1].AllReduceInt32(next[1])
			if err != nil {
				t.Fatalf("laggard, next step: %v", err)
			}
			r = <-leaderNext
			if r.err != nil {
				t.Fatalf("leader, next step: %v", r.err)
			}
			for j, v := range stepSum([]int{0, 1}, 2, d) {
				if r.sum[j] != v || laggardSum[j] != v {
					t.Fatalf("next step elem %d: leader %d, laggard %d, want %d", j, r.sum[j], laggardSum[j], v)
				}
			}
			// The re-open ran during that next call, after the first sum was
			// returned: it went to the worker's own buffer, not the caller's.
			for j := range kept {
				if returned[j] != kept[j] {
					t.Fatalf("the leader's returned sum was written after the return: elem %d = %d, was %d", j, returned[j], kept[j])
				}
			}
		})
	}
}

// TestFaultClientBackoffResetOnReceive is the regression test for the
// per-slot backoff reset: any receive that makes the slot progress —
// or shows it idle — must drop the slot back to the base RTO, while a
// receive the state machine ignores must not.
func TestFaultClientBackoffResetOnReceive(t *testing.T) {
	const n, s, k = 2, 2, 4
	// An aggregator nobody talks to, just so the client can dial.
	agg, err := NewAggregator(AggregatorConfig{
		Addr:   "127.0.0.1:0",
		Switch: core.SwitchConfig{Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	c, err := NewClient(ClientConfig{
		Aggregator: agg.Addr().String(),
		Worker: core.WorkerConfig{
			ID: 0, Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	u := make([]int32, 2*k) // two chunks: slots 0 and 1, version 0
	for j := range u {
		u[j] = int32(j)
	}
	c.worker.Start(u)
	// timeOut expires slot 0's timer n times over on the pump's own
	// clock; backoff reads the doublings back off its timeout.
	var clock int64
	timeOut := func(n int) {
		for i := 0; i < n; i++ {
			c.pump.Sent(0, clock)
			clock += c.pump.Timeout(0)
			c.pump.Due(clock, nil)
		}
	}
	backoff := func() int { return bits.Len64(uint64(c.pump.Timeout(0)/c.pump.RTO())) - 1 }

	// A version-mismatched result is ignored by the state machine; the
	// slot is still pending, so the loss streak is not over.
	timeOut(5)
	stale := &packet.Packet{Kind: packet.KindResult, Ver: 1, Idx: 0, Off: 0, Vector: make([]int32, k)}
	if _, err := c.handleIncoming(stale); err != nil {
		t.Fatal(err)
	}
	if got := backoff(); got != 5 {
		t.Errorf("ignored result reset backoff: got %d want 5", got)
	}

	// The real result completes the chunk: backoff must reset.
	good := &packet.Packet{Kind: packet.KindResult, Ver: 0, Idx: 0, Off: 0, Vector: make([]int32, k)}
	for j := range good.Vector {
		good.Vector[j] = 2 * int32(j)
	}
	if _, err := c.handleIncoming(good); err != nil {
		t.Fatal(err)
	}
	if got := backoff(); got != 0 {
		t.Errorf("completing result did not reset backoff: got %d want 0", got)
	}

	// A duplicate result for the now-idle slot leaves it at the base
	// RTO (an idle slot cannot time out, so there is no streak to end).
	if _, err := c.handleIncoming(good); err != nil {
		t.Fatal(err)
	}
	if got := backoff(); got != 0 {
		t.Errorf("result for idle slot left backoff at %d, want 0", got)
	}
}

// TestFaultUDPHeartbeatKeepsIdleWorkerAlive parks both workers well
// past the silence threshold with only heartbeats flowing; the
// detector must not evict anyone, and a later all-reduce must still
// see full membership.
func TestFaultUDPHeartbeatKeepsIdleWorkerAlive(t *testing.T) {
	const n, s, k, d = 2, 2, 8, 400
	agg, err := NewAggregator(AggregatorConfig{
		Addr: "127.0.0.1:0",
		Switch: core.SwitchConfig{
			Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true,
		},
		Liveness: &LivenessConfig{SilenceAfter: 150 * time.Millisecond, CheckEvery: 40 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	clients := make([]*Client, n)
	for i := range clients {
		c, err := NewClient(ClientConfig{
			Aggregator: agg.Addr().String(),
			Worker: core.WorkerConfig{
				ID: uint16(i), Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true,
			},
			RTO:       20 * time.Millisecond,
			Timeout:   10 * time.Second,
			Heartbeat: 40 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}

	// Idle for several silence thresholds: only heartbeats flow.
	time.Sleep(500 * time.Millisecond)
	for i := 0; i < n; i++ {
		if !agg.Alive(i) {
			t.Fatalf("idle-but-heartbeating worker %d was evicted", i)
		}
	}
	if agg.Epoch() != 0 {
		t.Fatalf("recovery ran against an idle job: epoch %d", agg.Epoch())
	}

	var wg sync.WaitGroup
	results := make([][]int32, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			u := make([]int32, d)
			for j := range u {
				u[j] = int32(i + 1)
			}
			results[i], errs[i] = clients[i].AllReduceInt32(u)
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		for j, v := range results[i] {
			if v != 3 {
				t.Fatalf("worker %d elem %d: got %d want 3", i, j, v)
			}
		}
	}
}
