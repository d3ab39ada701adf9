package rack

import (
	"strconv"
	"strings"
	"testing"

	"switchml/internal/netsim"
	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// TestTraceCountersAgree runs a deterministic lossy aggregation and
// checks that the recorded event stream and the component counters
// describe exactly the same run: every counter must equal its event
// count. This pins the tracer wiring — an unemitted or double-emitted
// event breaks the equality.
func TestTraceCountersAgree(t *testing.T) {
	ring := telemetry.NewRing(1 << 20)
	reg := telemetry.NewRegistry()
	r, err := NewRack(Config{
		Workers: 4, LossRecovery: true, LossRate: 0.01, Seed: 7,
		RTO:     200 * netsim.Microsecond,
		Tracer:  ring,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	u := make([]int32, 100000)
	for i := range u {
		u[i] = 1
	}
	res, err := r.AllReduceShared(u)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retransmissions == 0 {
		t.Fatal("want retransmissions at 1% loss; the consistency check needs recovery traffic")
	}
	if ring.Overwritten() > 0 {
		t.Fatalf("ring overflowed (%d lost): grow the capacity, the test needs every event", ring.Overwritten())
	}
	counts := telemetry.CountByType(ring.Events())
	c := r.Counters()
	sw := r.Switch().Stats()

	check := func(name string, events, counter uint64) {
		t.Helper()
		if events != counter {
			t.Errorf("%s: %d events vs %d counted", name, events, counter)
		}
	}
	// Link layer: every transmission, delivery and drop appears once.
	check("packets sent", counts[telemetry.EvPacketSent], c["packets_sent"])
	check("packets delivered", counts[telemetry.EvPacketRecv], c["packets_delivered"])
	check("packets dropped", counts[telemetry.EvPacketDropped], c["packets_dropped"])
	if counts[telemetry.EvPacketDropped] == 0 {
		t.Error("no drops recorded at 1% loss")
	}
	// Worker layer.
	check("retransmissions", counts[telemetry.EvRetransmit], c["worker_retransmissions"])
	check("retransmissions (result)", counts[telemetry.EvRetransmit], res.Retransmissions)
	check("tensor starts", counts[telemetry.EvTensorStart], uint64(r.Config().Workers))
	check("tensor dones", counts[telemetry.EvTensorDone], uint64(r.Config().Workers))
	// Switch layer: completions and shadow reads match, and the
	// aggregated-contribution identity holds — every accepted update
	// was folded into a slot exactly once.
	check("slot completions", counts[telemetry.EvSlotComplete], sw.Completions)
	check("shadow reads", counts[telemetry.EvShadowRead], sw.ResultRetransmissions)
	accepted := sw.Updates - sw.IgnoredDuplicates - sw.ResultRetransmissions - sw.StaleUpdates
	check("slot aggregations", counts[telemetry.EvSlotAggregated], accepted)

	// The registry view and the struct snapshots are the same
	// counters: spot-check one switch and one worker family.
	if got := reg.Counter("switch_completions_total", "job", "0").Value(); got != sw.Completions {
		t.Errorf("registry switch_completions_total = %d, stats = %d", got, sw.Completions)
	}
	var regSent uint64
	for i := 0; i < r.Config().Workers; i++ {
		regSent += reg.Counter("worker_sent_total", "worker", strconv.Itoa(i)).Value()
	}
	if regSent != c["worker_sent"] {
		t.Errorf("registry worker_sent sum = %d, stats sum = %d", regSent, c["worker_sent"])
	}
	// And the RTT histogram saw the clean round trips.
	if h := reg.Histogram("rack_rtt_ns", telemetry.LatencyBuckets).Snapshot(); h.Count == 0 {
		t.Error("rack_rtt_ns histogram is empty")
	}
}

// TestTraceDuplicateResultIsNoRTTSample hand-delivers a result to a
// slot with nothing in flight — a duplicate, or a unicast repair that
// arrives after its chunk completed — a millisecond after the tensor
// finished. It answers no send of this worker's, so it is no round
// trip: rack_rtt_ns must not see it, nor the adaptive RTO's estimate.
func TestTraceDuplicateResultIsNoRTTSample(t *testing.T) {
	reg := telemetry.NewRegistry()
	r, err := NewRack(Config{Workers: 2, LossRecovery: true, AdaptiveRTO: true, Seed: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	us, _ := stepUpdates(2, 4096, 1)
	if _, err := r.AllReduce(us); err != nil {
		t.Fatal(err)
	}
	h := r.hosts[0]
	rtts := reg.Histogram("rack_rtt_ns", telemetry.LatencyBuckets)
	samples, srtt, stale := rtts.Snapshot().Count, h.pump.SRTT(), h.worker.Stats().StaleResults
	if samples == 0 || srtt == 0 {
		t.Fatalf("the step left %d RTT samples and an SRTT of %d: nothing to compare with", samples, srtt)
	}
	r.Sim().After(netsim.Millisecond, func() {
		h.Deliver(&packet.Packet{Kind: packet.KindResult, JobID: h.worker.JobID(), Vector: make([]int32, r.Config().SlotElems)})
	})
	r.Sim().Run()
	if got := h.worker.Stats().StaleResults; got != stale+1 {
		t.Fatalf("stale results = %d, want %d: the duplicate never reached the worker", got, stale+1)
	}
	if got := rtts.Snapshot().Count; got != samples {
		t.Errorf("rack_rtt_ns counted %d samples after the duplicate, %d before", got, samples)
	}
	if got := h.pump.SRTT(); got != srtt {
		t.Errorf("SRTT = %d after the duplicate, %d before", got, srtt)
	}
}

// TestTraceChromeExport runs a short lossy aggregation and checks the
// recorded events export to a loadable Chrome trace containing drop
// and retransmit markers.
func TestTraceChromeExport(t *testing.T) {
	ring := telemetry.NewRing(1 << 18)
	r, err := NewRack(Config{
		Workers: 2, LossRecovery: true, LossRate: 0.05, Seed: 3,
		RTO: 100 * netsim.Microsecond, Tracer: ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AllReduceShared(make([]int32, 20000)); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := telemetry.WriteChromeTrace(&sb, ring.Events()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"PacketDropped"`, `"Retransmit"`, `"name":"tensor"`, `"traceEvents"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s", want)
		}
	}
}
