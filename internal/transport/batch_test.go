package transport

import (
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"switchml/internal/core"
	"switchml/internal/faults"
	"switchml/internal/netio"
	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// runBatchCluster is runCluster with an explicit I/O burst ceiling on
// both sides (1 = legacy per-packet loops, 0 = the batched default)
// and, when inject is non-nil, that fault process on every endpoint
// (each with its own seed).
func runBatchCluster(t *testing.T, n, d, batch int, seed int64, inject *faults.InjectorConfig) ([][]int32, []int32, *Aggregator, []*Client) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	updates := make([][]int32, n)
	want := make([]int32, d)
	for i := range updates {
		updates[i] = make([]int32, d)
		for j := range updates[i] {
			updates[i][j] = int32(rng.Intn(1001) - 500)
			want[j] += updates[i][j]
		}
	}
	seeded := func(id int64) *faults.InjectorConfig {
		if inject == nil {
			return nil
		}
		cfg := *inject
		cfg.Seed += id
		return &cfg
	}
	agg, err := NewAggregator(AggregatorConfig{
		Addr:   "127.0.0.1:0",
		Shards: 4,
		Batch:  batch,
		Switch: core.SwitchConfig{
			Workers: n, PoolSize: 8, SlotElems: 32, LossRecovery: true,
		},
		Inject: seeded(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	results := make([][]int32, n)
	clients := make([]*Client, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := NewClient(ClientConfig{
				Aggregator: agg.Addr().String(),
				Batch:      batch,
				Worker: core.WorkerConfig{
					ID: uint16(i), Workers: n, PoolSize: 8, SlotElems: 32, LossRecovery: true,
				},
				RTO:     20 * time.Millisecond,
				Timeout: 10 * time.Second,
				Inject:  seeded(int64(i) + 1),
			})
			if err != nil {
				errs[i] = err
				return
			}
			clients[i] = c
			results[i], errs[i] = c.AllReduceInt32(updates[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return results, want, agg, clients
}

// batchedUnbatched runs the identical seeded job through the legacy
// per-packet loops (Batch=1) and the batched run-to-completion loops
// (default batch) and demands bit-identical aggregates — the
// guarantee that batching is purely an I/O change.
func batchedUnbatched(t *testing.T, inject *faults.InjectorConfig) (aggL, aggB *Aggregator, clL, clB []*Client) {
	t.Helper()
	const n, d, seed = 3, 4000, 99
	legacy, want, aggL, clL := runBatchCluster(t, n, d, 1, seed, inject)
	t.Cleanup(func() { aggL.Close() })
	for _, c := range clL {
		t.Cleanup(func() { c.Close() })
	}
	batched, want2, aggB, clB := runBatchCluster(t, n, d, 0, seed, inject)
	t.Cleanup(func() { aggB.Close() })
	for _, c := range clB {
		t.Cleanup(func() { c.Close() })
	}
	for j := range want {
		if want[j] != want2[j] {
			t.Fatalf("seeded inputs diverged at %d", j)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			if legacy[i][j] != want[j] || batched[i][j] != want[j] {
				t.Fatalf("worker %d elem %d: legacy %d batched %d want %d",
					i, j, legacy[i][j], batched[i][j], want[j])
			}
		}
	}
	return aggL, aggB, clL, clB
}

// TestFaultBatchedUnbatchedEquivalence is the equivalence under
// injected loss, duplication and corruption at every endpoint: the
// verdicts land on different datagrams on the two paths (per packet
// as handled, per peer as flushed), the aggregates must not differ.
func TestFaultBatchedUnbatchedEquivalence(t *testing.T) {
	inject := &faults.InjectorConfig{Seed: 7, DropRate: 0.05, DupRate: 0.03, CorruptRate: 0.03}
	aggL, aggB, _, clB := batchedUnbatched(t, inject)
	for name, agg := range map[string]*Aggregator{"legacy": aggL, "batched": aggB} {
		if st := agg.Stats(); st.ResultRetransmissions == 0 && st.IgnoredDuplicates == 0 {
			t.Errorf("%s aggregator saw no retransmitted or duplicate update: the injectors did nothing", name)
		}
	}
	var corrupt uint64
	for _, c := range clB {
		corrupt += c.DebugState().Corrupted
	}
	if corrupt == 0 {
		t.Error("no batched client rejected a corrupted result: the flush-time injector did nothing")
	}
}

// TestBatchedUnbatchedEquivalence is the equivalence on a clean
// network, plus the debug documents of the two strategies.
func TestBatchedUnbatchedEquivalence(t *testing.T) {
	aggL, aggB, clL, clB := batchedUnbatched(t, nil)

	// The debug documents must reflect the strategies actually run.
	stL := aggL.DebugState(false)
	if stL.Batch != 1 || stL.NetMode != "per-packet" {
		t.Errorf("legacy agg debug = batch %d mode %q", stL.Batch, stL.NetMode)
	}
	stB := aggB.DebugState(false)
	if stB.Batch != DefaultBatch || stB.NetMode == "per-packet" || stB.NetMode == "" {
		t.Errorf("batched agg debug = batch %d mode %q", stB.Batch, stB.NetMode)
	}
	// Portable-mode bursts are all exactly 1 datagram, which the
	// histogram's linear interpolation reads back as 0.5 — so the gate
	// is "recording", not a floor on the quantile itself.
	if stB.BatchOccupancyP50 <= 0 {
		t.Errorf("batched occupancy p50 = %v, want > 0 (histogram not recording)", stB.BatchOccupancyP50)
	}
	cst := clB[0].DebugState()
	if cst.Batch != DefaultBatch || cst.NetMode == "per-packet" || cst.NetMode == "" {
		t.Errorf("batched client debug = batch %d mode %q", cst.Batch, cst.NetMode)
	}
	if lst := clL[0].DebugState(); lst.NetMode != "per-packet" {
		t.Errorf("legacy client mode = %q, want per-packet", lst.NetMode)
	}
}

// TestShardStageFlushZeroAlloc is the AllocsPerRun gate behind the
// //switchml:hotpath annotations on stageMulticast, flushShard and its
// injected branch: a shard marshalling a burst's multicast results
// into its block and fanning them out to every peer must not touch the
// heap — nor when an injector splits the block into runs, mangled
// copies and duplicates.
func TestShardStageFlushZeroAlloc(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	// The sink is never read: loopback UDP drops on a full receive
	// buffer without erroring the sender, so no draining goroutine
	// (whose own allocations would pollute AllocsPerRun) is needed.
	ap := sink.LocalAddr().(*net.UDPAddr).AddrPort()
	inj, err := faults.NewPacketInjector(faults.InjectorConfig{Seed: 3, DropRate: 0.2, DupRate: 0.2, CorruptRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for name, inj := range map[string]*faults.PacketInjector{"clean": nil, "injected": inj} {
		t.Run(name, func(t *testing.T) {
			send, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			defer send.Close()
			nc, err := netio.Wrap(send, netio.Config{Batch: 8, MTU: 2048})
			if err != nil {
				t.Fatal(err)
			}
			reg := telemetry.NewRegistry()
			a := &Aggregator{
				sent:     reg.Counter("test_sent"),
				sendErrs: reg.Counter("test_send_errors"),
				peers:    make([]atomic.Pointer[netip.AddrPort], 2),
				inj:      inj,
			}
			a.peers[0].Store(&ap)
			a.peers[1].Store(&ap)
			sh := &aggShard{
				nc:      nc,
				block:   make([]byte, 0, 8*2048),
				mangled: make([]byte, 0, 2048),
			}
			res := packet.NewUpdate(0, 0, 1, 5, 4096, make([]int32, 26))
			res.Kind = packet.KindResult
			wire := res.Marshal()
			step := func() {
				for k := 0; k < 4; k++ {
					a.stageMulticast(sh, res)
				}
				a.write(sh, wire, ap) // a unicast result rides the same flush
				a.flushShard(sh)
			}
			step() // warm the staging arena
			if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
				t.Errorf("stage+flush cycle allocates %.2f/op in mode %v, want 0", allocs, nc.Mode())
			}
			if inj != nil {
				if st := inj.Stats(); st.Dropped == 0 || st.Duplicated == 0 || st.Corrupted == 0 {
					t.Errorf("injector verdicts %+v: a branch of the injected flush went unexercised", st)
				}
			}
		})
	}
}

// TestClientWindowPumpZeroAlloc is the AllocsPerRun gate behind the
// //switchml:hotpath annotations on the client's handleIncoming, send
// and stageTx: a burst of results, each answered by the slot's next
// update marshalled into the window block, and the flush that ends the
// pass must not touch the heap — nor when an injector truncates,
// mangles and re-stages segments in the block.
func TestClientWindowPumpZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the packet pool allocates under the race detector")
	}
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close() // never read: loopback drops on a full buffer without erroring the sender
	const s, k, runs = 8, 32, 100
	for name, inj := range map[string]*faults.InjectorConfig{
		"clean":    nil,
		"injected": {Seed: 3, DropRate: 0.2, DupRate: 0.2, CorruptRate: 0.2},
	} {
		t.Run(name, func(t *testing.T) {
			c, err := NewClient(ClientConfig{
				Aggregator: sink.LocalAddr().String(),
				Worker:     core.WorkerConfig{ID: 0, Workers: 1, PoolSize: s, SlotElems: k, LossRecovery: true},
				Inject:     inj,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			// With one worker a slot's result is its update: answer
			// every slot of the window, pass after pass, out of a
			// tensor long enough never to finish.
			u := make([]int32, (runs+3)*s*k)
			res := make([]packet.Packet, s)
			for i, p := range c.worker.Start(u) {
				res[i] = packet.Packet{Kind: packet.KindResult, Idx: p.Idx, Ver: p.Ver, Off: p.Off, Vector: make([]int32, k)}
				packet.PutPacket(p)
			}
			step := func() {
				c.tick()
				for i := range res {
					if done, err := c.handleIncoming(&res[i]); err != nil || done {
						t.Fatalf("slot %d: done=%v err=%v", i, done, err)
					}
					res[i].Ver ^= 1
					res[i].Off += s * k
				}
				if err := c.flushTx(); err != nil {
					t.Fatal(err)
				}
			}
			step() // warm the packet pool and the staging arena
			if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
				t.Errorf("result→update→flush cycle allocates %.2f/op, want 0", allocs)
			}
			if got, want := c.worker.Stats().Results, uint64((runs+2)*s); got != want {
				t.Errorf("worker accepted %d results, want %d: the cycle did not run", got, want)
			}
			if c.inj != nil {
				if st := c.inj.Stats(); st.Dropped == 0 || st.Duplicated == 0 || st.Corrupted == 0 {
					t.Errorf("injector verdicts %+v: a branch of the injected send went unexercised", st)
				}
			}
		})
	}
}

// TestBatchedDebugStateRace hammers the debug documents — including
// the merged occupancy snapshot and the pooled mesh buffer owner —
// while a batched job runs, for the race detector.
func TestBatchedDebugStateRace(t *testing.T) {
	const n, d = 2, 2000
	rng := rand.New(rand.NewSource(5))
	updates := make([][]int32, n)
	for i := range updates {
		updates[i] = make([]int32, d)
		for j := range updates[i] {
			updates[i][j] = int32(rng.Intn(100))
		}
	}
	agg, err := NewAggregator(AggregatorConfig{
		Addr:   "127.0.0.1:0",
		Shards: 4,
		Switch: core.SwitchConfig{Workers: n, PoolSize: 8, SlotElems: 32, LossRecovery: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	pollers.Add(1)
	go func() {
		defer pollers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				st := agg.DebugState(true)
				_ = st.BatchOccupancyP99
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := NewClient(ClientConfig{
				Aggregator: agg.Addr().String(),
				Worker:     core.WorkerConfig{ID: uint16(i), Workers: n, PoolSize: 8, SlotElems: 32, LossRecovery: true},
				RTO:        20 * time.Millisecond,
				Timeout:    10 * time.Second,
			})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			pollers.Add(1)
			go func() {
				defer pollers.Done()
				for {
					select {
					case <-stop:
						return
					default:
						_ = c.DebugState()
					}
				}
			}()
			if _, err := c.AllReduceInt32(updates[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	close(stop)
	pollers.Wait()
}
