package transport

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"switchml/internal/core"
	"switchml/internal/telemetry"
)

// TestFaultObservabilityChaos hammers the whole observability plane —
// snapshot deltas, the time-series sampler, per-slot/debug state and
// the flight recorder — from background goroutines while the cluster
// goes through a kill → degrade → failback cycle. Run under -race by
// the chaos gate, it proves the monitoring surface can be read at any
// moment: counters stay monotonic, sampled series are never torn
// (timestamps strictly increase), and the fault transitions leave
// schema-valid incident files behind.
func TestFaultObservabilityChaos(t *testing.T) {
	const n, elems = 2, 1500
	reg := telemetry.NewRegistry()
	dir := t.TempDir()
	fr := telemetry.NewFlightRecorder(telemetry.FlightConfig{
		Capacity: 1024,
		Dir:      dir,
		Registry: reg,
	})

	agg, err := NewAggregator(AggregatorConfig{
		Addr:    "127.0.0.1:0",
		Switch:  core.SwitchConfig{Workers: n, PoolSize: 8, SlotElems: 32, LossRecovery: true},
		Metrics: reg,
		Tracer:  fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	// Trigger dumps embed the aggregator's per-slot state; DebugState
	// never takes the recovery lock, so this is safe from any emitter.
	fr.SetState(func() any { return agg.DebugState(true) })

	clients := make([]*Client, n)
	for i := 0; i < n; i++ {
		c, err := NewClient(ClientConfig{
			Aggregator: agg.Addr().String(),
			Worker: core.WorkerConfig{
				ID: uint16(i), Workers: n, PoolSize: 8, SlotElems: 32, LossRecovery: true,
			},
			RTO:         10 * time.Millisecond,
			Timeout:     20 * time.Second,
			AdaptiveRTO: true,
			Fallback:    &FallbackConfig{Probation: 1},
			Metrics:     reg,
			Tracer:      fr,
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		t.Cleanup(func() { c.Close() })
	}
	mesh := make([]string, n)
	for i, c := range clients {
		mesh[i] = fmt.Sprintf("127.0.0.1:%d", c.MeshAddr().Port)
	}
	for _, c := range clients {
		if err := c.SetMeshPeers(mesh); err != nil {
			t.Fatal(err)
		}
	}

	smp := telemetry.NewSampler(reg, telemetry.SamplerConfig{Capacity: 4096})
	stop := make(chan struct{})
	var mon sync.WaitGroup
	monErr := make(chan string, 16)
	report := func(format string, args ...any) {
		select {
		case monErr <- fmt.Sprintf(format, args...):
		default:
		}
	}
	// Monitor 1: sampler plus snapshot-delta monotonicity.
	mon.Add(1)
	go func() {
		defer mon.Done()
		prev := reg.Snapshot()
		lastTS := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			ts := time.Now().UnixNano()
			if ts <= lastTS {
				ts = lastTS + 1
			}
			lastTS = ts
			smp.Sample(ts)
			cur := reg.Snapshot()
			d := cur.Delta(prev)
			for k, v := range d.Counters {
				// Counters are monotonic, so unsigned deltas that look
				// like wrap-around mean a torn or regressed read.
				if v > 1<<62 {
					report("counter %s regressed (delta %d)", k, v)
				}
			}
			for k, h := range d.Histograms {
				if h.Count > 1<<62 {
					report("histogram %s count regressed", k)
				}
			}
			prev = cur
			time.Sleep(200 * time.Microsecond)
		}
	}()
	// Monitor 2: deep debug state from a foreign goroutine.
	mon.Add(1)
	go func() {
		defer mon.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := agg.DebugState(true)
			if st.Role != "aggregator" || len(st.ShardDatagrams) != st.Shards {
				report("bad agg debug state: %+v", st)
			}
			for _, c := range clients {
				cs := c.DebugState()
				if cs.Role != "worker" {
					report("bad client debug state: %+v", cs)
				}
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	lockstep(t, clients, elems, 1)
	agg.SetDown(true)
	lockstep(t, clients, elems, 2) // degrade mid-tensor, finish on mesh
	agg.SetDown(false)
	// Each degraded tensor resolves the previous tensor's probe and
	// sends the next; an ack that has not arrived by then resets the
	// streak. Under -race, with the monitors spinning, that happens, so
	// drive tensors until every worker has failed back rather than
	// assuming probe + ack take exactly two.
	step := 3
	for deadline := time.Now().Add(10 * time.Second); ; step++ {
		lockstep(t, clients, elems, step)
		back := true
		for _, c := range clients {
			back = back && c.FallbackStats().Failbacks > 0
		}
		if back || time.Now().After(deadline) {
			break
		}
	}
	lockstep(t, clients, elems, step+1) // one more on the switch path
	close(stop)
	mon.Wait()
	close(monErr)
	for msg := range monErr {
		t.Error(msg)
	}

	// The health cycle ran on every worker.
	for w, c := range clients {
		st := c.FallbackStats()
		if st.Degrades == 0 || st.Failbacks == 0 {
			t.Errorf("worker %d: degrades/failbacks = %d/%d, want both nonzero", w, st.Degrades, st.Failbacks)
		}
		if c.Degraded() {
			t.Errorf("worker %d still degraded", w)
		}
	}

	// Sampled series are not torn: strictly increasing timestamps on
	// every series the run produced.
	dump := smp.Dump()
	if len(dump) == 0 {
		t.Fatal("sampler recorded nothing")
	}
	for name, sd := range dump {
		for i := 1; i < len(sd.Points); i++ {
			if sd.Points[i].TS <= sd.Points[i-1].TS {
				t.Fatalf("series %s torn at %d: %d after %d", name, i, sd.Points[i].TS, sd.Points[i-1].TS)
			}
		}
	}
	if _, ok := dump["udp_datagrams_received_total{role=\"aggregator\"}:rate"]; !ok {
		t.Error("sampler missing the aggregator datagram rate series")
	}

	// The degrade and failback transitions left incident files; each
	// parses against the schema and carries per-slot state.
	files, _ := filepath.Glob(filepath.Join(dir, "incident-*.json"))
	if len(files) < 2 {
		t.Fatalf("incident files = %v, want at least degrade and failback", files)
	}
	reasons := map[string]bool{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var inc telemetry.Incident
		if err := json.Unmarshal(data, &inc); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if inc.Schema != telemetry.IncidentSchema {
			t.Errorf("%s: schema %q", f, inc.Schema)
		}
		if inc.Metrics == nil || inc.Delta == nil {
			t.Errorf("%s: missing metric sections", f)
		}
		if inc.State == nil {
			t.Errorf("%s: missing deep state", f)
		}
		reasons[inc.Reason] = true
	}
	if !reasons["Degrade"] || !reasons["Failback"] {
		t.Errorf("incident reasons = %v, want Degrade and Failback", reasons)
	}

	// Shard load counters add up to the socket-level total.
	st := agg.DebugState(false)
	var shardSum uint64
	for _, v := range st.ShardDatagrams {
		shardSum += v
	}
	if shardSum != st.Received {
		t.Errorf("shard datagrams sum %d != received %d", shardSum, st.Received)
	}
}
