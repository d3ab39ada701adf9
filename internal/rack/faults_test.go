package rack

import (
	"sync"
	"testing"

	"switchml/internal/faults"
	"switchml/internal/netsim"
	"switchml/internal/telemetry"
)

// eventLog is a tracer collecting events for order assertions.
type eventLog struct {
	mu  sync.Mutex
	evs []telemetry.Event
}

func (l *eventLog) Emit(e telemetry.Event) {
	l.mu.Lock()
	l.evs = append(l.evs, e)
	l.mu.Unlock()
}

// firstTS returns the timestamp of the first event of type t, or -1.
func (l *eventLog) firstTS(t telemetry.EventType) int64 {
	for _, e := range l.evs {
		if e.Type == t {
			return e.TS
		}
	}
	return -1
}

// checkRecoveryBoundary verifies the global-frontier resume semantic
// on one aggregate: a prefix of full-membership sums, then a suffix of
// survivor-only sums, switching exactly once and at a chunk boundary.
// It returns the boundary element index.
func checkRecoveryBoundary(t *testing.T, got []int32, full, survivors int32, slotElems int) int {
	t.Helper()
	boundary := len(got)
	for j, v := range got {
		if v == survivors {
			boundary = j
			break
		}
		if v != full {
			t.Fatalf("aggregate[%d] = %d, want %d (full) or %d (survivors)", j, v, full, survivors)
		}
	}
	for j := boundary; j < len(got); j++ {
		if got[j] != survivors {
			t.Fatalf("aggregate[%d] = %d after boundary %d, want %d", j, got[j], boundary, survivors)
		}
	}
	if boundary%slotElems != 0 {
		t.Fatalf("recovery boundary %d is not a chunk boundary (k=%d)", boundary, slotElems)
	}
	return boundary
}

// TestFaultWorkerCrashRecovery is the acceptance scenario: worker 2 of
// 8 crashes mid-tensor under 1% loss; the controller detects the
// silence, retires the worker under a new generation, and the seven
// survivors resume from the global frontier and finish with
// bitwise-identical aggregates. The trace must show the crash →
// detection → reconfigure → resume sequence in order.
func TestFaultWorkerCrashRecovery(t *testing.T) {
	log := &eventLog{}
	const crashAt = 100 * netsim.Microsecond
	cfg := Config{
		Workers: 8, LossRecovery: true, LossRate: 0.01, Seed: 11,
		RTO:    100 * netsim.Microsecond,
		Tracer: log,
		Faults: &faults.Scenario{Actions: []faults.Action{
			{Kind: faults.CrashWorker, Worker: 2, At: crashAt},
		}},
	}
	r, err := NewRack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const d = 40000
	us := make([][]int32, 8)
	for w := range us {
		us[w] = make([]int32, d)
		for j := range us[w] {
			us[w][j] = int32(w + 1)
		}
	}
	res, err := r.AllReduce(us)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 || res.Failed[0] != 2 {
		t.Fatalf("Failed = %v, want [2]", res.Failed)
	}
	if r.Epoch() == 0 {
		t.Fatal("epoch was not bumped by recovery")
	}

	// 1+2+...+8 = 36; without worker 2 (value 3) the sum is 33.
	const full, survivors = 36, 33
	k := r.Config().SlotElems
	boundary := checkRecoveryBoundary(t, r.Aggregate(0), full, survivors, k)
	if boundary >= d {
		t.Fatal("no element was re-aggregated by the survivor membership")
	}
	// Survivors must agree bitwise.
	ref := r.Aggregate(0)
	for w := 0; w < 8; w++ {
		if w == 2 {
			continue
		}
		got := r.Aggregate(w)
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("worker %d diverges from worker 0 at %d: %d vs %d", w, j, got[j], ref[j])
			}
		}
	}

	// Event ordering and detection latency.
	crash := log.firstTS(telemetry.EvWorkerCrash)
	detect := log.firstTS(telemetry.EvFailureDetected)
	reconf := log.firstTS(telemetry.EvReconfigure)
	resume := log.firstTS(telemetry.EvResume)
	if crash < 0 || detect < 0 || reconf < 0 || resume < 0 {
		t.Fatalf("missing recovery events: crash=%d detect=%d reconf=%d resume=%d",
			crash, detect, reconf, resume)
	}
	if !(crash < detect && detect <= reconf && reconf <= resume) {
		t.Fatalf("recovery events out of order: crash=%d detect=%d reconf=%d resume=%d",
			crash, detect, reconf, resume)
	}
	lv := r.Config().Liveness
	if lv == nil {
		t.Fatal("liveness config was not defaulted on")
	}
	if maxLat := int64(lv.SilenceAfter + 2*lv.CheckEvery); detect-crash > maxLat {
		t.Fatalf("detection latency %d ns exceeds silence+2·sweep = %d ns", detect-crash, maxLat)
	}
}

// TestFaultSwitchRestartRecovery wipes the switch's register state
// mid-tensor. Recovery must deliver exact full-membership aggregates —
// no torn or mixed-generation values — on every worker.
func TestFaultSwitchRestartRecovery(t *testing.T) {
	log := &eventLog{}
	cfg := Config{
		Workers: 8, LossRecovery: true, LossRate: 0.01, Seed: 5,
		RTO:    100 * netsim.Microsecond,
		Tracer: log,
		Faults: &faults.Scenario{Actions: []faults.Action{
			{Kind: faults.RestartSwitch, At: 80 * netsim.Microsecond},
		}},
		// React faster than the retransmission timeout: under loss,
		// workers drift out of per-slot lockstep and retransmission
		// alone cannot drain a wiped pool, so the controller must drive
		// the resume.
		Liveness: &LivenessConfig{
			SilenceAfter: 1600 * netsim.Microsecond,
			CheckEvery:   50 * netsim.Microsecond,
		},
	}
	r, err := NewRack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const d = 30000
	u := make([]int32, d)
	for j := range u {
		u[j] = int32(j%97 + 1)
	}
	res, err := r.AllReduceShared(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("Failed = %v, want none (membership unchanged)", res.Failed)
	}
	want := make([]int32, d)
	for j := range want {
		want[j] = 8 * u[j]
	}
	checkAggregate(t, r, want)
	if r.Epoch() == 0 {
		t.Fatal("epoch was not bumped by switch-restart recovery")
	}
	restart := log.firstTS(telemetry.EvSwitchRestart)
	reconf := log.firstTS(telemetry.EvReconfigure)
	resume := log.firstTS(telemetry.EvResume)
	if restart < 0 || reconf < 0 || resume < 0 {
		t.Fatalf("missing events: restart=%d reconf=%d resume=%d", restart, reconf, resume)
	}
	if !(restart < reconf && reconf <= resume) {
		t.Fatalf("events out of order: restart=%d reconf=%d resume=%d", restart, reconf, resume)
	}
}

// TestFaultCrashAtStepN anchors a crash to aggregation step 2 and
// checks every step's outcome: step 1 clean, step 2 recovered with a
// survivor-only suffix, step 3 running on the shrunken membership.
func TestFaultCrashAtStepN(t *testing.T) {
	cfg := Config{
		Workers: 4, LossRecovery: true, Seed: 9,
		RTO: 100 * netsim.Microsecond,
		Faults: &faults.Scenario{Actions: []faults.Action{
			{Kind: faults.CrashWorker, Worker: 1, Step: 2, At: 50 * netsim.Microsecond},
		}},
	}
	r, err := NewRack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const d = 20000
	u := make([]int32, d)
	for j := range u {
		u[j] = 1
	}
	for step := 1; step <= 3; step++ {
		res, err := r.AllReduceShared(u)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		switch step {
		case 1:
			if len(res.Failed) != 0 {
				t.Fatalf("step 1: Failed = %v, want none", res.Failed)
			}
			for j, v := range r.Aggregate(0) {
				if v != 4 {
					t.Fatalf("step 1: aggregate[%d] = %d, want 4", j, v)
				}
			}
		case 2:
			if len(res.Failed) != 1 || res.Failed[0] != 1 {
				t.Fatalf("step 2: Failed = %v, want [1]", res.Failed)
			}
			checkRecoveryBoundary(t, r.Aggregate(0), 4, 3, r.Config().SlotElems)
		case 3:
			if len(res.Failed) != 1 || res.Failed[0] != 1 {
				t.Fatalf("step 3: Failed = %v, want [1]", res.Failed)
			}
			for j, v := range r.Aggregate(0) {
				if v != 3 {
					t.Fatalf("step 3: aggregate[%d] = %d, want 3", j, v)
				}
			}
		}
	}
}

// TestFaultWorkerRestartRejoins crashes a worker, restarts it, and
// checks that it is re-admitted at the next step boundary under a new
// generation, with the full membership aggregating again.
func TestFaultWorkerRestartRejoins(t *testing.T) {
	cfg := Config{
		Workers: 4, LossRecovery: true, Seed: 13,
		RTO: 100 * netsim.Microsecond,
		Faults: &faults.Scenario{Actions: []faults.Action{
			{Kind: faults.CrashWorker, Worker: 3, Step: 1, At: 50 * netsim.Microsecond},
			{Kind: faults.RestartWorker, Worker: 3, Step: 2, At: 0},
		}},
	}
	r, err := NewRack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const d = 10000
	u := make([]int32, d)
	for j := range u {
		u[j] = 2
	}
	// Step 1: crash mid-tensor; worker 3 fails.
	res, err := r.AllReduceShared(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 || res.Failed[0] != 3 {
		t.Fatalf("step 1: Failed = %v, want [3]", res.Failed)
	}
	// Step 2: worker 3 restarts during the step but cannot rejoin a
	// collective in flight.
	res, err = r.AllReduceShared(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 || res.Failed[0] != 3 {
		t.Fatalf("step 2: Failed = %v, want [3]", res.Failed)
	}
	epochBefore := r.Epoch()
	// Step 3: re-admitted at the boundary; full membership again.
	res, err = r.AllReduceShared(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("step 3: Failed = %v, want none", res.Failed)
	}
	if r.Epoch() == epochBefore {
		t.Fatal("re-admission did not bump the job generation")
	}
	for j, v := range r.Aggregate(3) {
		if v != 8 {
			t.Fatalf("step 3: aggregate[%d] = %d, want 8", j, v)
		}
	}
}

// TestFaultLinkBlackoutWindow blacks out one worker's links for a
// window mid-tensor; retransmission alone must recover (no membership
// change), and the blackout must be visible in link stats.
func TestFaultLinkBlackoutWindow(t *testing.T) {
	cfg := Config{
		Workers: 3, LossRecovery: true, Seed: 21,
		RTO: 100 * netsim.Microsecond,
		Faults: &faults.Scenario{Actions: []faults.Action{
			{Kind: faults.LinkDown, Worker: 0, At: 50 * netsim.Microsecond},
			{Kind: faults.LinkUp, Worker: 0, At: 250 * netsim.Microsecond},
		}},
	}
	r, err := NewRack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const d = 20000
	u := make([]int32, d)
	for j := range u {
		u[j] = int32(j % 50)
	}
	res, err := r.AllReduceShared(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("Failed = %v, want none", res.Failed)
	}
	if res.Retransmissions == 0 {
		t.Error("blackout recovered without retransmissions")
	}
	want := make([]int32, d)
	for j := range want {
		want[j] = 3 * u[j]
	}
	checkAggregate(t, r, want)
	st := r.uplink[0].Stats()
	if st.Blackholed == 0 {
		t.Error("uplink recorded no blackholed packets during the window")
	}
}

// TestFaultBurstLossRack runs a full aggregation under Gilbert–Elliott
// burst loss configured at the rack level (satellite of §5.5's loss
// tolerance: bursts stress recovery harder than Bernoulli loss at the
// same mean).
func TestFaultBurstLossRack(t *testing.T) {
	r, err := NewRack(Config{
		Workers: 3, LossRecovery: true, Seed: 17,
		RTO: 100 * netsim.Microsecond,
		BurstLoss: &netsim.GEConfig{
			PGoodToBad: 0.002, PBadToGood: 0.2, LossGood: 0, LossBad: 0.9,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const d = 20000
	u := make([]int32, d)
	for j := range u {
		u[j] = int32(j%31 - 15)
	}
	res, err := r.AllReduceShared(u)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retransmissions == 0 {
		t.Error("burst loss produced no retransmissions")
	}
	want := make([]int32, d)
	for j := range want {
		want[j] = 3 * u[j]
	}
	checkAggregate(t, r, want)
}

// TestFaultDeterministicReplay runs the crash scenario twice with the
// same seed and requires identical timing and results.
func TestFaultDeterministicReplay(t *testing.T) {
	run := func() (netsim.Time, []int32) {
		r, err := NewRack(Config{
			Workers: 4, LossRecovery: true, LossRate: 0.01, Seed: 23,
			RTO: 100 * netsim.Microsecond,
			Faults: &faults.Scenario{Actions: []faults.Action{
				{Kind: faults.CrashWorker, Worker: 0, At: 60 * netsim.Microsecond},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		u := make([]int32, 8000)
		for j := range u {
			u[j] = int32(j % 13)
		}
		res, err := r.AllReduceShared(u)
		if err != nil {
			t.Fatal(err)
		}
		return res.TAT, append([]int32(nil), r.Aggregate(1)...)
	}
	tat1, agg1 := run()
	tat2, agg2 := run()
	if tat1 != tat2 {
		t.Fatalf("TAT diverged across replays: %v vs %v", tat1, tat2)
	}
	for j := range agg1 {
		if agg1[j] != agg2[j] {
			t.Fatalf("aggregate diverged at %d: %d vs %d", j, agg1[j], agg2[j])
		}
	}
}

// TestFaultRejectsWithoutRecovery mirrors the LossRate guard for the
// fault-injection knobs: none of them make sense with Algorithm 1.
func TestFaultRejectsWithoutRecovery(t *testing.T) {
	bad := []Config{
		{Workers: 2, BurstLoss: &netsim.GEConfig{PGoodToBad: 0.1, PBadToGood: 0.5, LossBad: 1}},
		{Workers: 2, DupRate: 0.1},
		{Workers: 2, CorruptRate: 0.1},
		{Workers: 2, Faults: &faults.Scenario{Actions: []faults.Action{
			{Kind: faults.CrashWorker, Worker: 0},
		}}},
	}
	for i, cfg := range bad {
		if _, err := NewRack(cfg); err == nil {
			t.Errorf("config %d accepted without loss recovery", i)
		}
	}
	// An invalid scenario is rejected even with recovery on.
	if _, err := NewRack(Config{
		Workers: 2, LossRecovery: true,
		Faults: &faults.Scenario{Actions: []faults.Action{
			{Kind: faults.CrashWorker, Worker: 5},
		}},
	}); err == nil {
		t.Error("out-of-range crash target accepted")
	}
}
