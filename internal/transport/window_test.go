package transport

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"switchml/internal/core"
	"switchml/internal/netio"
	"switchml/internal/packet"
)

// TestTunePoolSize pins the rule: a power of two, never below
// minPoolSize, never growing with the worker count or the packet size,
// and the sizes the sweep fixed for 32-element packets.
func TestTunePoolSize(t *testing.T) {
	for _, tc := range []struct{ workers, k, want int }{
		{1, 32, 1024}, {2, 32, 512}, {3, 32, 256}, {4, 32, 256}, {5, 32, 128},
		{8, 32, 128}, {9, 32, 64}, {16, 32, 64}, {64, 32, 64}, {512, 32, 64},
		{2, 64, 256}, {2, 128, 128}, {2, 256, 64}, {8, 256, 64},
	} {
		if got := TunePoolSize(tc.workers, tc.k); got != tc.want {
			t.Errorf("TunePoolSize(%d workers, %d elements) = %d, want %d", tc.workers, tc.k, got, tc.want)
		}
	}
	for _, k := range []int{1, 8, 32, 33, 64, 100, 256, 360} {
		prev := 0
		for workers := 1; workers <= 300; workers++ {
			s := TunePoolSize(workers, k)
			switch {
			case s < minPoolSize || s&(s-1) != 0:
				t.Fatalf("TunePoolSize(%d, %d) = %d, want a power of two of at least %d", workers, k, s, minPoolSize)
			case prev != 0 && s > prev:
				t.Fatalf("TunePoolSize(%d, %d) = %d, above the %d of one worker fewer", workers, k, s, prev)
			case s > minPoolSize && workers*s*packet.WireLen(k) > inflightBudget:
				t.Fatalf("TunePoolSize(%d, %d) = %d puts %d bytes in flight, over the budget of %d", workers, k, s, workers*s*packet.WireLen(k), inflightBudget)
			}
			prev = s
		}
	}
	// Inputs no configuration would validate still terminate.
	if got := TunePoolSize(0, 0); got < minPoolSize {
		t.Errorf("TunePoolSize(0, 0) = %d", got)
	}
}

// TestTuneShape pins the packet shape the UDP entry points select from
// Workers alone, k by TuneShape and s by TunePoolSize at that k, and
// checks the rule's invariants over a range of worker counts: k a
// multiple of the codec's eight-wide pass and at least the Tofino's
// 32, an update datagram inside one Ethernet frame, workers×minPoolSize
// of them inside the budget wherever k is above its floor, k the
// largest such, and k never rising with workers.
func TestTuneShape(t *testing.T) {
	for _, tc := range []struct{ workers, k, s int }{
		{1, 352, 64}, {2, 312, 64}, {3, 200, 64}, {4, 152, 64}, {8, 72, 64},
		{16, 32, 64}, {64, 32, 64}, {512, 32, 64},
	} {
		if k := TuneShape(tc.workers); k != tc.k || TunePoolSize(tc.workers, k) != tc.s {
			t.Errorf("TuneShape(%d workers) = k %d at s %d; want k %d at s %d", tc.workers, k, TunePoolSize(tc.workers, k), tc.k, tc.s)
		}
	}
	fits := func(workers, k int) bool {
		return packet.WireLen(k)+ipUDPHeaders <= frameMTU && workers*minPoolSize*packet.WireLen(k) <= inflightBudget
	}
	prev := 0
	for workers := 1; workers <= 300; workers++ {
		k := TuneShape(workers)
		switch {
		case k%elemAlign != 0 || k < packet.DefaultElems:
			t.Fatalf("TuneShape(%d) gives k %d, want a multiple of %d of at least %d", workers, k, elemAlign, packet.DefaultElems)
		case packet.WireLen(k)+ipUDPHeaders > frameMTU:
			t.Fatalf("TuneShape(%d) gives k %d: a %d-byte datagram, over a %d-byte frame", workers, k, packet.WireLen(k), frameMTU)
		case k > packet.DefaultElems && !fits(workers, k):
			t.Fatalf("TuneShape(%d) gives k %d: %d bytes in flight at %d slots, over the budget of %d", workers, k, workers*minPoolSize*packet.WireLen(k), minPoolSize, inflightBudget)
		case fits(workers, k+elemAlign):
			t.Fatalf("TuneShape(%d) gives k %d, but %d fits as well", workers, k, k+elemAlign)
		case prev != 0 && k > prev:
			t.Fatalf("TuneShape(%d) gives k %d, above the %d of one worker fewer", workers, k, prev)
		}
		prev = k
	}
	if k := TuneShape(0); k != 352 {
		t.Errorf("TuneShape(0) = k %d; want one worker's 352", k)
	}
}

// ioModes are netio's three modes, each with the environment variable
// that selects it (none for gso, the default where the kernel has it).
var ioModes = []struct {
	mode netio.Mode
	env  string
}{{netio.ModeGSO, ""}, {netio.ModeMmsg, netio.NoGSOEnv}, {netio.ModePortable, netio.NoMmsgEnv}}

// windowCluster is a 2-worker job of 32-element packets with s slots,
// default shards, on whatever I/O mode the environment selects.
func windowCluster(t *testing.T, s int, rto time.Duration) (*Aggregator, []*Client) {
	t.Helper()
	const n, k = 2, 32
	agg, err := NewAggregator(AggregatorConfig{
		Addr:   "127.0.0.1:0",
		Switch: core.SwitchConfig{Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { agg.Close() })
	clients := make([]*Client, n)
	for i := range clients {
		c, err := NewClient(ClientConfig{
			Aggregator: agg.Addr().String(),
			Worker:     core.WorkerConfig{ID: uint16(i), Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true},
			RTO:        rto,
			Timeout:    60 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	return agg, clients
}

// TestFaultWindowFitsReceiveBuffer runs lossless 1M-element tensors at
// the tuned pool size in each I/O mode and requires that the window
// fits the socket buffers the endpoints sized for it: no datagram
// dropped at a full receive queue, nothing recovered by lap or by
// timer. The modes without segmentation offload are the point — there
// every datagram is charged a whole sk_buff, and 1,024 of them overrun
// a stock buffer several times over. (The tail probe may duplicate the
// newest packet of a tensor when the box stalls a worker past its PTO,
// as in TestFaultLosslessNoEarlyRetransmit: at most one a tensor.)
func TestFaultWindowFitsReceiveBuffer(t *testing.T) {
	for _, mode := range ioModes {
		t.Run(mode.mode.String(), func(t *testing.T) {
			if mode.env != "" {
				t.Setenv(mode.env, "1")
			}
			s := TunePoolSize(2, 32)
			agg, clients := windowCluster(t, s, time.Second)
			ds := agg.DebugState(false)
			if ds.RcvbufBytes == 0 {
				t.Skip("this platform does not report socket buffer sizes")
			}
			if ds.RcvbufBytes < ds.RcvbufNeedBytes {
				t.Skipf("the kernel granted a %d-byte receive buffer, under the %d the window needs (rmem_max)", ds.RcvbufBytes, ds.RcvbufNeedBytes)
			}
			if mode.env == "" && ds.NetMode != "gso" {
				t.Skipf("no segmentation offload here (mode %s)", ds.NetMode)
			}
			steps := 0
			for t0 := time.Now(); steps < 6 && (steps < 2 || time.Since(t0) < 5*time.Second); steps++ {
				lockstep(t, clients, 1<<20, steps+1)
			}
			ds = agg.DebugState(false)
			t.Logf("%s, pool %d: %d tensors, shard receive buffer %d bytes for a need of %d, occupancy p50 %.0f",
				ds.NetMode, s, steps, ds.RcvbufBytes, ds.RcvbufNeedBytes, ds.BatchOccupancyP50)
			if ds.RcvbufDrops != 0 {
				t.Errorf("aggregator: %d datagrams dropped at a full receive buffer, want 0", ds.RcvbufDrops)
			}
			for w, c := range clients {
				cs := c.DebugState()
				st := cs.Stats
				timer := st.Retransmissions - st.EarlyRetransmissions - st.ProbeRetransmissions
				if cs.RcvbufDrops != 0 || st.EarlyRetransmissions != 0 || timer != 0 || st.ProbeRetransmissions > uint64(steps) {
					t.Errorf("worker %d: %d drops at the receive buffer (%d bytes for a need of %d), %d lap, %d timer and %d probe retransmissions over %d lossless tensors; want none but a probe a tensor",
						w, cs.RcvbufDrops, cs.RcvbufBytes, cs.RcvbufNeedBytes, st.EarlyRetransmissions, timer, st.ProbeRetransmissions, steps)
				}
			}
		})
	}
}

// TestFaultReceiveBufferOverrun is the other side: a pool four times
// the tuned size against shard sockets whose receive buffers were cut
// to a fraction of one window. The kernel drops most of every window;
// the aggregate must still be exact, the drops must be counted where an
// operator can see them, and recovery must ride the ack clock — a lap
// or a probe per loss — rather than wait out timers.
func TestFaultReceiveBufferOverrun(t *testing.T) {
	const s = 2048
	if runtime.GOOS != "linux" {
		t.Skip("receive-queue drops are reported through a Linux cmsg (SO_RXQ_OVFL)")
	}
	agg, clients := windowCluster(t, s, time.Second)
	for _, conn := range agg.conns {
		if err := conn.SetReadBuffer(104 << 10); err != nil { // granted twice that: the stock 212,992
			t.Fatal(err)
		}
	}
	const steps = 2
	for step := 1; step <= steps; step++ {
		lockstep(t, clients, 1<<20, step) // checks every element of every worker's sum
	}
	ds := agg.DebugState(false)
	if ds.RcvbufDrops == 0 {
		t.Errorf("aggregator: no receive-buffer drops counted with %d datagrams in flight toward stock-sized buffers", 2*s)
	}
	var lap, probe, timer uint64
	for _, c := range clients {
		st := c.Stats()
		lap += st.EarlyRetransmissions
		probe += st.ProbeRetransmissions
		timer += st.Retransmissions - st.EarlyRetransmissions - st.ProbeRetransmissions
	}
	t.Logf("%s: %d drops counted; recovered %d by lap, %d by probe, %d by timer", ds.NetMode, ds.RcvbufDrops, lap, probe, timer)
	if lap == 0 || timer > lap {
		t.Errorf("recovered %d by lap and %d by timer, want the ack clock to carry the recovery", lap, timer)
	}
}

// TestUpdatesBeyondPoolCounted: a worker configured with a larger pool
// than its aggregator used to stream updates for slots the pool does not
// have, and hang. The dial's hello now refuses it with ErrShape, and not
// one update is counted beyond the pool.
func TestUpdatesBeyondPoolCounted(t *testing.T) {
	agg, err := NewAggregator(AggregatorConfig{
		Addr:   "127.0.0.1:0",
		Switch: core.SwitchConfig{Workers: 1, PoolSize: 16, SlotElems: 32, LossRecovery: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	if _, err := NewClient(ClientConfig{
		Aggregator: agg.Addr().String(),
		Worker:     core.WorkerConfig{Workers: 1, PoolSize: 64, SlotElems: 32, LossRecovery: true},
		RTO:        20 * time.Millisecond,
		Timeout:    300 * time.Millisecond,
	}); !errors.Is(err, ErrShape) {
		t.Fatalf("a 64-slot worker dialed a 16-slot aggregator with %v, want ErrShape", err)
	}
	if got := agg.DebugState(false).BeyondPool; got != 0 {
		t.Errorf("%d updates counted beyond the pool, want 0", got)
	}
}
