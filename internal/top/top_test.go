package top

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"switchml/internal/core"
	"switchml/internal/transport"
)

// stateServer serves whatever document the pointer currently holds at
// /debug/state, mimicking a daemon's debug listener.
func stateServer(t *testing.T, doc *atomic.Pointer[any]) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/state" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(*doc.Load())
	}))
	t.Cleanup(srv.Close)
	return srv
}

func hold(v any) *atomic.Pointer[any] {
	p := new(atomic.Pointer[any])
	p.Store(&v)
	return p
}

// TestPollerRatesAndFlags drives two polls against synthetic state
// documents and checks the derived columns: datagram rates from the
// interval delta, loss rate from retransmitted/sent, shard imbalance
// from per-shard deltas, and the anomaly flags they trip.
func TestPollerRatesAndFlags(t *testing.T) {
	aggDoc := hold(transport.AggDebugState{
		Role:           "aggregator",
		Epoch:          7,
		Shards:         4,
		ShardDatagrams: []uint64{100, 100, 100, 100},
		Received:       400,
		Sent:           200,
		Switch:         core.SwitchStats{Completions: 50},
		Pool:           core.PoolState{Occupancy: 0.25},
		Peers:          []string{"a", "b"},
		Alive:          []bool{true, true},
	})
	w0Doc := hold(transport.ClientDebugState{
		Role: "worker", Worker: 0, Epoch: 7,
		SRTTNs: 1_200_000, RTONs: 4_800_000,
		FrontierOff: 4096, PendingChunks: 3,
		Received: 100, Sent: 110,
		Stats: core.WorkerStats{Sent: 110, Retransmissions: 10},
	})
	aggSrv := stateServer(t, aggDoc)
	w0Srv := stateServer(t, w0Doc)

	p := NewPoller(Config{Agg: aggSrv.URL, Workers: []string{w0Srv.URL}})
	// A fake clock makes the 2-second interval exact.
	now := time.Unix(1000, 0)
	p.now = func() time.Time { return now }

	v1, err := p.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if v1.IntervalSec != 0 || v1.Agg.RxRate != 0 {
		t.Errorf("first poll must have zero rates, got %+v", v1.Agg)
	}
	if v1.Agg.Epoch != 7 || v1.Agg.Occupancy != 0.25 || v1.Agg.AliveCount != 2 {
		t.Errorf("agg view = %+v", v1.Agg)
	}
	if len(v1.Workers) != 1 || v1.Workers[0].State != "SWITCH" || v1.Workers[0].SRTTMs != 1.2 {
		t.Errorf("worker view = %+v", v1.Workers)
	}

	// Second poll, 2 s later: one hot shard, lossy worker, degraded.
	aggDoc.Store(ptrAny(transport.AggDebugState{
		Role:           "aggregator",
		Epoch:          7,
		Shards:         4,
		ShardDatagrams: []uint64{1000, 120, 120, 120},
		Received:       1360,
		Sent:           680,
		Switch:         core.SwitchStats{Completions: 170},
		Pool:           core.PoolState{Occupancy: 0.5},
		Peers:          []string{"a", "b"},
		Alive:          []bool{true, false},
		Batch:          32,
		NetMode:        "mmsg",
		SendErrors:     7,
		// 2 workers × 2,048 slots against a stock receive buffer: the
		// kernel shed 40 trains.
		RcvbufDrops:     40,
		RcvbufBytes:     212992,
		RcvbufNeedBytes: 5242880,
	}))
	w0Doc.Store(ptrAny(transport.ClientDebugState{
		Role: "worker", Worker: 0, Epoch: 8, Degraded: true,
		SRTTNs: 2_000_000, RTONs: 8_000_000, PTONs: 6_500_000,
		FrontierOff: 8192, PendingChunks: 0,
		Received: 300, Sent: 350,
		Stats:      core.WorkerStats{Sent: 310, Retransmissions: 50, EarlyRetransmissions: 45, ProbeRetransmissions: 3},
		Fallback:   transport.FallbackStats{Degrades: 2, Failbacks: 1},
		SendErrors: 3,
		PoolSize:   2048, RcvbufDrops: 5,
	}))
	now = now.Add(2 * time.Second)
	v2, err := p.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if v2.IntervalSec != 2 {
		t.Fatalf("interval = %v", v2.IntervalSec)
	}
	if got := v2.Agg.RxRate; got != 480 {
		t.Errorf("agg rx rate = %v, want 480", got)
	}
	// Deltas 900/20/20/20: mean 240, max 900 → imbalance 3.75.
	if got := v2.Agg.ShardImbalance; got != 3.75 {
		t.Errorf("shard imbalance = %v, want 3.75", got)
	}
	if v2.Agg.AliveCount != 1 {
		t.Errorf("alive = %d, want 1", v2.Agg.AliveCount)
	}
	wk := v2.Workers[0]
	if wk.State != "DEGRADED" || wk.Epoch != 8 {
		t.Errorf("worker state = %+v", wk)
	}
	if v2.Agg.SendErrors != 7 || v2.Agg.NetMode != "mmsg" || v2.Agg.Batch != 32 {
		t.Errorf("agg I/O columns = %+v", v2.Agg)
	}
	if wk.SendErrors != 3 {
		t.Errorf("worker send errors = %d, want 3", wk.SendErrors)
	}
	if got := wk.RxRate; got != 100 {
		t.Errorf("worker rx rate = %v, want 100", got)
	}
	// 40 retransmissions over 200 sent chunks → 20% loss.
	if got := wk.LossRate; got != 0.2 {
		t.Errorf("loss rate = %v, want 0.2", got)
	}
	if wk.Retransmissions != 50 || wk.EarlyRetransmissions != 45 || wk.ProbeRetransmissions != 3 || wk.PTOMs != 6.5 {
		t.Errorf("retransmissions/early/probe = %d/%d/%d at PTO %v ms, want 50/45/3 at 6.5", wk.Retransmissions, wk.EarlyRetransmissions, wk.ProbeRetransmissions, wk.PTOMs)
	}
	joined := strings.Join(v2.Flags, " ")
	if !strings.Contains(joined, "loss-spike(w0") {
		t.Errorf("flags %v missing loss spike", v2.Flags)
	}
	if !strings.Contains(joined, "shard-imbalance") {
		t.Errorf("flags %v missing shard imbalance", v2.Flags)
	}
	// Drops at full receive buffers during the interval, on both roles.
	for _, want := range []string{
		"overrun(agg 40 drops, rcvbuf 212992 of 5242880 needed)", "overrun(w0 5 drops)",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("flags %v missing %q", v2.Flags, want)
		}
	}
	if v2.Agg.RcvbufDrops != 40 || v2.Agg.NewRcvbufDrops != 40 || wk.RcvbufDrops != 5 || wk.PoolSize != 2048 {
		t.Errorf("overrun columns: agg %d (+%d), worker %d at pool %d", v2.Agg.RcvbufDrops, v2.Agg.NewRcvbufDrops, wk.RcvbufDrops, wk.PoolSize)
	}
	// 3 transitions (2 degrades + 1 failback) within the window.
	if !strings.Contains(joined, "probation-flap(w0") {
		t.Errorf("flags %v missing probation flap", v2.Flags)
	}

	// The rendered table carries the headline columns.
	var buf bytes.Buffer
	Render(&buf, v2)
	out := buf.String()
	for _, want := range []string{"DEGRADED", "loss-spike", "rx/s", "agg ", "serr", "io mmsg/32", "   6.50ms    8.00ms", "   retx  timer/lap/probe", "     50           2/45/3", "rdrop 40", " rdrop ", "overrun(agg"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}

	// The view is a stable JSON document for -json scripting.
	data, err := json.Marshal(v2)
	if err != nil {
		t.Fatal(err)
	}
	var rt ClusterView
	if err := json.Unmarshal(data, &rt); err != nil {
		t.Fatal(err)
	}
	if rt.Workers[0].LossRate != 0.2 || rt.Agg.ShardImbalance != 3.75 || rt.Workers[0].EarlyRetransmissions != 45 || rt.Workers[0].ProbeRetransmissions != 3 {
		t.Errorf("JSON round trip lost fields: %+v", rt)
	}
}

func ptrAny(v any) *any { return &v }

// TestPollerPartialFailure checks that a dead endpoint degrades to an
// Errors entry and only a fully dark cluster returns an error.
func TestPollerPartialFailure(t *testing.T) {
	w0Doc := hold(transport.ClientDebugState{Role: "worker", Worker: 0})
	w0Srv := stateServer(t, w0Doc)
	p := NewPoller(Config{
		Agg:     "http://127.0.0.1:1", // nothing listens there
		Workers: []string{w0Srv.URL},
		Timeout: 500 * time.Millisecond,
	})
	v, err := p.Poll()
	if err != nil {
		t.Fatalf("partial outage must not error: %v", err)
	}
	if len(v.Errors) != 1 || v.Agg != nil || len(v.Workers) != 1 {
		t.Errorf("view = %+v", v)
	}

	dark := NewPoller(Config{
		Agg:     "http://127.0.0.1:1",
		Timeout: 500 * time.Millisecond,
	})
	if _, err := dark.Poll(); err == nil {
		t.Error("fully dark cluster must return an error")
	}
}
