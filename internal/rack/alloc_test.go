package rack

import (
	"testing"

	"switchml/internal/netsim"
	"switchml/internal/telemetry"
)

// countingTracer observes every event and keeps nothing.
type countingTracer struct{ n uint64 }

func (c *countingTracer) Emit(telemetry.Event) { c.n++ }

// TestRackSteadyStateZeroAlloc is the AllocsPerRun gate behind the
// //switchml:hotpath annotations on the simulator's data path (link
// send and delivery, the host's core queue, transmit and timer re-arm,
// switch ingress and egress): once the rings, free lists and the packet
// pool are warm, stepping a rack allocates nothing — lossless, with
// every trace event observed, and with 1 % loss driving the drop,
// timeout, retransmission and shadow-read paths.
func TestRackSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled packets at random under the race detector")
	}
	const (
		warmEvents = 200000
		runEvents  = 20000
		runs       = 20
	)
	tracer := &countingTracer{}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"lossless", Config{Workers: 8, LossRecovery: true, Seed: 1}},
		{"lossless traced", Config{Workers: 8, LossRecovery: true, Seed: 1, Tracer: tracer}},
		{"1% loss", Config{Workers: 8, LossRecovery: true, Seed: 1, LossRate: 0.01, RTO: 100 * netsim.Microsecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewRack(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Large enough that the tensor outlasts the measurement.
			u := make([]int32, 1<<20)
			for _, h := range r.hosts {
				h.Start(u, func(netsim.Time) {})
			}
			step := func(n int) {
				for i := 0; i < n; i++ {
					if !r.sim.Step() {
						t.Fatal("simulation drained before the measurement ended")
					}
				}
			}
			step(warmEvents)
			sent := r.Counters()["packets_sent"]
			allocs := testing.AllocsPerRun(runs, func() { step(runEvents) })
			pkts := (r.Counters()["packets_sent"] - sent) / (runs + 1)
			if allocs != 0 {
				t.Errorf("%.0f allocations per %d events (%d simulated packets), want 0", allocs, runEvents, pkts)
			}
			if pkts == 0 {
				t.Error("no packets were simulated during the measurement")
			}
		})
	}
	if tracer.n == 0 {
		t.Error("the traced case emitted no events")
	}
}
