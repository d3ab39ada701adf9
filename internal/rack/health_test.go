package rack

import (
	"errors"
	"reflect"
	"testing"

	"switchml/internal/faults"
	"switchml/internal/netsim"
	"switchml/internal/telemetry"
)

// healthTestConfig is a small rack tuned so a switch kill mid-step
// lands with chunks both completed and in flight, and detection,
// probing and probation all resolve within a few steps.
func healthTestConfig(sc *faults.Scenario) Config {
	return Config{
		Workers:      4,
		PoolSize:     8,
		SlotElems:    32,
		LossRecovery: true,
		RTO:          100 * netsim.Microsecond,
		Seed:         7,
		Faults:       sc,
		Health: &HealthConfig{
			SuspectAfter: 800 * netsim.Microsecond,
			ProbeEvery:   200 * netsim.Microsecond,
			Probation:    2,
		},
	}
}

// stepUpdates builds per-worker updates whose values identify both the
// step and the worker, so a torn or replayed chunk cannot go unnoticed.
func stepUpdates(workers, elems, step int) ([][]int32, []int32) {
	us := make([][]int32, workers)
	want := make([]int32, elems)
	for w := range us {
		us[w] = make([]int32, elems)
		for j := range us[w] {
			us[w][j] = int32(step*1000 + w*10 + j%7)
			want[j] += us[w][j]
		}
	}
	return us, want
}

// TestFaultSwitchKillFallbackFailback is the tentpole scenario: the
// switch's aggregation program dies mid-step, the job degrades to host
// ring all-reduce at the chunk frontier, runs degraded steps, and
// fails back to the switch after the probation window — with every
// step's aggregate bit-identical to a fault-free run.
func TestFaultSwitchKillFallbackFailback(t *testing.T) {
	const elems, steps = 4096, 6
	sc := &faults.Scenario{Actions: []faults.Action{
		{Kind: faults.KillSwitch, Step: 2, At: 20 * netsim.Microsecond},
		{Kind: faults.ReviveSwitch, Step: 2, At: 3 * netsim.Millisecond},
	}}
	faulty, err := NewRack(healthTestConfig(sc))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := NewRack(healthTestConfig(nil))
	if err != nil {
		t.Fatal(err)
	}

	for step := 1; step <= steps; step++ {
		us, want := stepUpdates(4, elems, step)
		if _, err := faulty.AllReduce(us); err != nil {
			t.Fatalf("step %d (faulty): %v", step, err)
		}
		us2, _ := stepUpdates(4, elems, step)
		if _, err := clean.AllReduce(us2); err != nil {
			t.Fatalf("step %d (clean): %v", step, err)
		}
		for w := 0; w < 4; w++ {
			if !reflect.DeepEqual(faulty.Aggregate(w), want) {
				t.Fatalf("step %d worker %d aggregate differs from the exact sum", step, w)
			}
			if !reflect.DeepEqual(faulty.Aggregate(w), clean.Aggregate(w)) {
				t.Fatalf("step %d worker %d aggregate differs from the fault-free run", step, w)
			}
		}
	}

	c := faulty.Counters()
	if c["health_degrades"] != 1 {
		t.Errorf("health_degrades = %d, want 1", c["health_degrades"])
	}
	if c["health_failbacks"] != 1 {
		t.Errorf("health_failbacks = %d, want 1", c["health_failbacks"])
	}
	if c["health_probes"] == 0 || c["health_probe_acks"] == 0 {
		t.Errorf("probes/acks = %d/%d, want both nonzero", c["health_probes"], c["health_probe_acks"])
	}
	if c["host_aggregated_elems"] == 0 {
		t.Error("no elements aggregated by the host fabric")
	}
	if faulty.Degraded() {
		t.Error("job still degraded after probation and failback")
	}
	if cc := clean.Counters(); cc["health_degrades"] != 0 || cc["host_aggregated_elems"] != 0 {
		t.Errorf("fault-free run touched the host fabric: %v", cc)
	}
}

// TestFaultFallbackTelemetry checks the degrade → probe → failback
// sequence is visible, ordered, and barrier-aligned in the event
// stream.
func TestFaultFallbackTelemetry(t *testing.T) {
	sc := &faults.Scenario{Actions: []faults.Action{
		{Kind: faults.KillSwitch, Step: 1, At: 20 * netsim.Microsecond},
		{Kind: faults.ReviveSwitch, Step: 1, At: 3 * netsim.Millisecond},
	}}
	cfg := healthTestConfig(sc)
	log := &eventLog{}
	cfg.Tracer = log
	r, err := NewRack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 5; step++ {
		us, _ := stepUpdates(4, 4096, step)
		if _, err := r.AllReduce(us); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	suspect := log.firstTS(telemetry.EvSwitchSuspect)
	degrade := log.firstTS(telemetry.EvDegrade)
	probe := log.firstTS(telemetry.EvProbe)
	ack := log.firstTS(telemetry.EvProbeAck)
	failback := log.firstTS(telemetry.EvFailback)
	if suspect < 0 || degrade < 0 || probe < 0 || ack < 0 || failback < 0 {
		t.Fatalf("missing transition events: suspect=%d degrade=%d probe=%d ack=%d failback=%d",
			suspect, degrade, probe, ack, failback)
	}
	if !(suspect <= degrade && degrade <= probe && probe < ack && ack <= failback) {
		t.Fatalf("transition order wrong: suspect=%d degrade=%d probe=%d ack=%d failback=%d",
			suspect, degrade, probe, ack, failback)
	}
	for _, e := range log.evs {
		if e.Type == telemetry.EvDegrade && e.Off%32 != 0 {
			t.Fatalf("degrade handoff frontier %d is not a chunk boundary", e.Off)
		}
	}
}

// TestFaultFallbackDeterministicReplay runs the identical fallback
// scenario twice from the same seed and requires bit-identical event
// streams: the degraded path must be as replayable as the switch path.
func TestFaultFallbackDeterministicReplay(t *testing.T) {
	run := func() []telemetry.Event {
		sc := &faults.Scenario{Actions: []faults.Action{
			{Kind: faults.KillSwitch, Step: 2, At: 20 * netsim.Microsecond},
			{Kind: faults.ReviveSwitch, Step: 2, At: 3 * netsim.Millisecond},
		}}
		cfg := healthTestConfig(sc)
		cfg.LossRate = 0.01
		log := &eventLog{}
		cfg.Tracer = log
		r, err := NewRack(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for step := 1; step <= 5; step++ {
			us, _ := stepUpdates(4, 2048, step)
			if _, err := r.AllReduce(us); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		return log.evs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs:\n a: %+v\n b: %+v", i, a[i], b[i])
		}
	}
	if telemetry.CountByType(a)[telemetry.EvDegrade] == 0 {
		t.Fatal("replay runs never degraded; scenario is not exercising fallback")
	}
}

// TestFaultDegradedModeSteadyState pins the job on the host fabric
// (StartDegraded + negative probation) and checks correctness and
// counters there.
func TestFaultDegradedModeSteadyState(t *testing.T) {
	cfg := healthTestConfig(nil)
	cfg.StartDegraded = true
	cfg.Health.Probation = -1
	r, err := NewRack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const elems = 2048
	for step := 1; step <= 3; step++ {
		us, want := stepUpdates(4, elems, step)
		if _, err := r.AllReduce(us); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for w := 0; w < 4; w++ {
			if !reflect.DeepEqual(r.Aggregate(w), want) {
				t.Fatalf("step %d worker %d degraded aggregate wrong", step, w)
			}
		}
	}
	if !r.Degraded() {
		t.Error("negative probation failed back anyway")
	}
	c := r.Counters()
	if want := uint64(3 * elems); c["host_aggregated_elems"] != want {
		t.Errorf("host_aggregated_elems = %d, want %d", c["host_aggregated_elems"], want)
	}
	if c["switch_completions"] != 0 {
		t.Errorf("switch saw %d completions in pinned degraded mode", c["switch_completions"])
	}
}

// TestFaultSwitchKillNoFallbackTypedError opts out of fallback and
// checks a dead switch surfaces as the typed, retryable ErrSwitchDown
// — and that the job genuinely is retryable after a revival.
func TestFaultSwitchKillNoFallbackTypedError(t *testing.T) {
	sc := &faults.Scenario{Actions: []faults.Action{
		{Kind: faults.KillSwitch, Step: 1, At: 20 * netsim.Microsecond},
	}}
	cfg := healthTestConfig(sc)
	cfg.Health = nil
	cfg.NoFallback = true
	r, err := NewRack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	us, _ := stepUpdates(4, 2048, 1)
	_, err = r.AllReduce(us)
	if !errors.Is(err, ErrSwitchDown) {
		t.Fatalf("AllReduce error = %v, want ErrSwitchDown", err)
	}
}

// TestFaultNoFallbackStallBudgetRestartsOnResume pins that a recovery
// resume clears the per-slot stall counts along with the timers: a
// re-opened window is a new chunk for every slot. Every link goes dark
// long enough for six straight timeouts per slot, a switch restart
// resumes the job at the frontier while the links are still down, and
// the links return before the eighth timeout after the resume. Were
// the budget carried across the resume, the second timeout after it
// would exhaust the stall limit and abandon the step.
func TestFaultNoFallbackStallBudgetRestartsOnResume(t *testing.T) {
	ms := netsim.Millisecond
	// With RTO 100 µs and doubling backoff, a slot's n-th straight
	// timeout lands ≈ (2^n − 1) RTO after its last send.
	sc := &faults.Scenario{Actions: []faults.Action{
		{Kind: faults.LinkDown, Worker: -1, At: 20 * netsim.Microsecond},
		// Between the sixth timeout (≈ 6.3 ms) and the seventh
		// (≈ 12.7 ms); the recovery resume follows one sweep later.
		{Kind: faults.RestartSwitch, At: 7 * ms},
		// Between the resume's sixth timeout (≈ 13.4 ms) and its
		// seventh (≈ 19.8 ms), whose retransmission gets through.
		{Kind: faults.LinkUp, Worker: -1, At: 15 * ms},
	}}
	cfg := healthTestConfig(sc)
	cfg.Health = nil
	cfg.NoFallback = true
	cfg.Liveness = &LivenessConfig{CheckEvery: 50 * netsim.Microsecond}
	r, err := NewRack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	us, want := stepUpdates(4, 4096, 1)
	if _, err := r.AllReduce(us); err != nil {
		t.Fatalf("AllReduce: %v", err)
	}
	if r.Epoch() == 0 {
		t.Fatal("the switch restart never resumed the job")
	}
	for w := 0; w < 4; w++ {
		if !reflect.DeepEqual(r.Aggregate(w), want) {
			t.Fatalf("worker %d aggregate differs from the exact sum", w)
		}
	}
}
