package transport

import (
	"testing"
	"time"

	"switchml/internal/core"
	"switchml/internal/faults"
)

// lapCluster is a 2-worker job at the public wrappers' geometry (64
// slots of 32 elements, default shards and batch) — the shape the lap
// rule's "two-shard interleaving cannot fake a lap" argument is about.
func lapCluster(t *testing.T, rto time.Duration, aggInj *faults.InjectorConfig, clientInj func(id int) *faults.InjectorConfig) (*Aggregator, []*Client) {
	t.Helper()
	const n, s, k = 2, 64, 32
	agg, err := NewAggregator(AggregatorConfig{
		Addr:   "127.0.0.1:0",
		Switch: core.SwitchConfig{Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true},
		Inject: aggInj,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { agg.Close() })
	clients := make([]*Client, n)
	for i := range clients {
		cfg := ClientConfig{
			Aggregator: agg.Addr().String(),
			Worker:     core.WorkerConfig{ID: uint16(i), Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true},
			RTO:        rto,
			Timeout:    30 * time.Second,
		}
		if clientInj != nil {
			cfg.Inject = clientInj(i)
		}
		c, err := NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	return agg, clients
}

// TestFaultLosslessNoEarlyRetransmit is the false-positive gate of
// lap detection: over a lossless network, however the shards' result
// trains interleave, no slot may ever look lapped. Twenty 1M-element
// tensors take under two seconds; the race detector slows them
// fifteenfold without adding to a count, so there the run stops at a
// time budget.
func TestFaultLosslessNoEarlyRetransmit(t *testing.T) {
	// A long RTO keeps a descheduled worker from timing a window out:
	// the count below is about the lap rule alone.
	_, clients := lapCluster(t, time.Second, nil, nil)
	steps := 0
	for t0 := time.Now(); steps < 20 && (steps < 3 || time.Since(t0) < 5*time.Second); steps++ {
		lockstep(t, clients, 1<<20, steps+1)
	}
	for w, c := range clients {
		st := c.Stats()
		t.Logf("worker %d: %d tensors, %d updates, %d retransmissions, %d of them probes (PTO %v)", w, steps, st.Sent, st.Retransmissions,
			st.ProbeRetransmissions, time.Duration(c.DebugState().PTONs))
		if st.EarlyRetransmissions != 0 {
			t.Errorf("worker %d: %d early retransmissions on a lossless run, want 0", w, st.EarlyRetransmissions)
		}
		// The tail probe is the one rule that reads the clock, so a
		// worker descheduled past its PTO duplicates one packet — the
		// newest — when it wakes. More than one a tensor means a rule
		// is firing on a healthy run.
		if st.ProbeRetransmissions > uint64(steps) {
			t.Errorf("worker %d: %d probe retransmissions over %d lossless tensors, want at most one a tensor", w, st.ProbeRetransmissions, steps)
		}
	}
}

// TestFaultLapRecoveryOnBatchedPath loses 1% of the datagrams each
// way under an RTO of half a second. Hundreds of losses at one RTO
// each would take minutes; recovery off the ack clock finishes the
// tensor well inside the time of a few timeouts
// (TestFaultDrainedTailBeatsRTO holds it to none). The same run shows
// the injector no longer forks the I/O path: the aggregator reports
// the I/O mode of a clean one and drains more than one datagram per
// wakeup.
func TestFaultLapRecoveryOnBatchedPath(t *testing.T) {
	const elems = 256 << 10
	clean, _ := lapCluster(t, 0, nil, nil)
	agg, clients := lapCluster(t, 500*time.Millisecond,
		&faults.InjectorConfig{Seed: 41, DropRate: 0.01},
		func(id int) *faults.InjectorConfig {
			return &faults.InjectorConfig{Seed: 42 + int64(id), DropRate: 0.01}
		})

	t0 := time.Now()
	lockstep(t, clients, elems, 1)
	took := time.Since(t0)

	var retx, early uint64
	for _, c := range clients {
		st := c.Stats()
		retx += st.Retransmissions
		early += st.EarlyRetransmissions
	}
	t.Logf("%d elements in %v: %d retransmissions, %d of them early", elems, took.Round(time.Millisecond), retx, early)
	if early == 0 {
		t.Error("no early retransmission on a lossy run")
	}
	if took > 2*time.Second {
		t.Errorf("took %v with RTO 500ms and %d retransmissions: losses are waiting for the timer", took, retx)
	}

	st := agg.DebugState(false)
	if want := clean.DebugState(false).NetMode; st.NetMode != want {
		t.Errorf("injected aggregator net_mode = %q, clean = %q: the injector changed the I/O path", st.NetMode, want)
	}
	// Portable mode reads one datagram per wakeup by construction.
	if st.NetMode != "portable" && st.BatchOccupancyP50 <= 1 {
		t.Errorf("injected aggregator batch_occupancy_p50 = %v in mode %s, want > 1", st.BatchOccupancyP50, st.NetMode)
	}
	if cst := clients[0].DebugState(); cst.NetMode != st.NetMode {
		t.Errorf("injected client net_mode = %q, aggregator %q", cst.NetMode, st.NetMode)
	}
}

// TestFaultDrainedTailBeatsRTO is the same lossy tensor held to the
// stricter reading: no loss anywhere in it — not in the drained tail,
// where the last few slots finish alone with nothing behind them to
// lap a loss — may wait for the half-second timer. A repeat passes if
// no retransmission was timer-driven and (off the race detector, which
// alone slows the tensor past it) the whole tensor took less than one
// RTO; one repeat in five may still draw a loss only the timer sees,
// such as a probe and its doublings all lost.
func TestFaultDrainedTailBeatsRTO(t *testing.T) {
	const elems, repeats, rto = 256 << 10, 5, 500 * time.Millisecond
	passed, probes := 0, uint64(0)
	for r := 0; r < repeats; r++ {
		seed := int64(100 * (r + 1))
		_, clients := lapCluster(t, rto,
			&faults.InjectorConfig{Seed: seed, DropRate: 0.01},
			func(id int) *faults.InjectorConfig {
				return &faults.InjectorConfig{Seed: seed + 1 + int64(id), DropRate: 0.01}
			})
		t0 := time.Now()
		lockstep(t, clients, elems, r+1)
		took := time.Since(t0)
		var st core.WorkerStats
		for _, c := range clients {
			ws := c.Stats()
			st.Retransmissions += ws.Retransmissions
			st.EarlyRetransmissions += ws.EarlyRetransmissions
			st.ProbeRetransmissions += ws.ProbeRetransmissions
			c.Close()
		}
		timer := st.Retransmissions - st.EarlyRetransmissions - st.ProbeRetransmissions
		t.Logf("repeat %d: %v; %d retransmissions: %d lap, %d probe, %d timer (PTO %v)", r, took.Round(time.Millisecond),
			st.Retransmissions, st.EarlyRetransmissions, st.ProbeRetransmissions, timer, time.Duration(clients[0].DebugState().PTONs))
		probes += st.ProbeRetransmissions
		if timer == 0 && (raceEnabled || took < rto) {
			passed++
		}
	}
	if probes == 0 {
		t.Errorf("no probe retransmission in %d lossy tensors", repeats)
	}
	if passed < repeats-1 {
		t.Errorf("%d of %d repeats finished without waiting for the %v timer, want at least %d", passed, repeats, rto, repeats-1)
	}
}
