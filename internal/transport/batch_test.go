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

// runModeCluster is runCluster on whatever netio mode the environment
// selects, with, when inject is non-nil, that fault process on every
// endpoint (each with its own seed).
func runModeCluster(t *testing.T, n, d int, seed int64, inject *faults.InjectorConfig) ([][]int32, []int32, *Aggregator, []*Client) {
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
		Switch: core.SwitchConfig{
			Workers: n, PoolSize: 8, SlotElems: 32, LossRecovery: true,
		},
		Inject: seeded(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { agg.Close() })
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
	for _, c := range clients {
		if c != nil {
			t.Cleanup(func() { c.Close() })
		}
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return results, want, agg, clients
}

// checkModeEquivalence runs the identical seeded job (seed 99) through
// the one shard loop and window pump in each of netio's modes — segment
// trains, plain vectors, one datagram per syscall — with inject (nil for
// a clean network) at every endpoint, and demands the exact sum from
// every worker in every run: the I/O mode is purely an I/O change. The
// injectors' verdicts land on different datagrams in different modes;
// the aggregates must not differ. Each run's debug documents must name
// the mode it ran and show the occupancy histogram recording. (Portable
// bursts are all exactly 1 datagram, which the histogram's linear
// interpolation reads back as 0.5 — so the gate is "recording", not a
// floor on the quantile itself.) A mode's leg skips only when the
// platform selects a lower mode.
func checkModeEquivalence(t *testing.T, inject *faults.InjectorConfig) {
	const n, d, seed = 3, 4000, 99
	for _, mode := range ioModes {
		t.Run(mode.mode.String(), func(t *testing.T) {
			if mode.env != "" {
				t.Setenv(mode.env, "1")
			}
			got, want, agg, clients := runModeCluster(t, n, d, seed, inject)
			if m := agg.sncs[0].Mode(); m < mode.mode {
				t.Skipf("no %s mode here: the sockets selected %s", mode.mode, m)
			}
			for i := range got {
				for j := range want {
					if got[i][j] != want[j] {
						t.Fatalf("worker %d elem %d = %d, want %d", i, j, got[i][j], want[j])
					}
				}
			}
			ds := agg.DebugState(false)
			if ds.NetMode != mode.mode.String() || ds.Batch != DefaultBatch || ds.BatchOccupancyP50 <= 0 {
				t.Errorf("aggregator debug = mode %q batch %d occupancy p50 %v, want mode %s batch %d p50 > 0",
					ds.NetMode, ds.Batch, ds.BatchOccupancyP50, mode.mode, DefaultBatch)
			}
			var corrupt uint64
			for i, c := range clients {
				cs := c.DebugState()
				if cs.NetMode != mode.mode.String() || cs.Batch != DefaultBatch {
					t.Errorf("worker %d debug = mode %q batch %d, want %s %d", i, cs.NetMode, cs.Batch, mode.mode, DefaultBatch)
				}
				corrupt += cs.Corrupted
			}
			if inject == nil {
				return
			}
			// Both injectors fired — the workers' on the updates the
			// aggregator saw repaired or repeated, the aggregator's
			// flush-time one on the results the workers rejected.
			fired := func(st faults.InjectorStats) bool { return st.Dropped+st.Duplicated+st.Corrupted > 0 }
			if !fired(agg.inj.Stats()) {
				t.Error("the aggregator's injector returned no verdict")
			}
			for i, c := range clients {
				if !fired(c.inj.Stats()) {
					t.Errorf("worker %d's injector returned no verdict", i)
				}
			}
			if st := agg.Stats(); st.ResultRetransmissions == 0 && st.IgnoredDuplicates == 0 {
				t.Error("aggregator saw no retransmitted or duplicate update: the workers' injectors did nothing")
			}
			if corrupt == 0 {
				t.Error("no worker rejected a corrupted result: the aggregator's flush-time injector did nothing")
			}
		})
	}
}

// TestBatchedUnbatchedEquivalence is checkModeEquivalence's clean leg:
// gso, mmsg and portable (the batch of one) must all produce the exact
// sum on a lossless network.
func TestBatchedUnbatchedEquivalence(t *testing.T) {
	checkModeEquivalence(t, nil)
}

// TestFaultBatchedUnbatchedEquivalence is its injected leg: loss,
// duplication and corruption at every endpoint (injector seed 7), the
// exact sum in every mode, and both injectors seen to fire.
func TestFaultBatchedUnbatchedEquivalence(t *testing.T) {
	checkModeEquivalence(t, &faults.InjectorConfig{Seed: 7, DropRate: 0.05, DupRate: 0.03, CorruptRate: 0.03})
}

// TestShardStageFlushZeroAlloc is the AllocsPerRun gate behind the
// //switchml:hotpath annotations on stageMulticast, flushShard and its
// injected branch: a shard keeping a burst's multicast results on its
// block and fanning them out to every peer must not touch the heap —
// nor when an injector splits the block into runs, mangled copies and
// duplicates.
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
				inj:      inj,
			}
			j := &job{peers: make([]atomic.Pointer[netip.AddrPort], 2)}
			j.peers[0].Store(&ap)
			j.peers[1].Store(&ap)
			sh := &aggShard{
				job:     j,
				nc:      nc,
				block:   make([]byte, 0, 8*2048),
				mangled: make([]byte, 0, 2048),
			}
			res := packet.NewUpdate(0, 0, 1, 5, 4096, make([]int32, 26))
			res.Kind = packet.KindResult
			wire := res.Marshal()
			step := func() {
				for k := 0; k < 4; k++ {
					start := len(sh.block)
					sh.block = append(sh.block, wire...) // as the switch writes a result
					a.stageMulticast(sh, start)
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

// TestShardUpdateResultZeroAlloc is the AllocsPerRun gate on the shard
// loop's data path: updates taken from their datagrams (ParseHeader,
// then handleUpdate) into a one-worker job whose every update completes
// its slot, each result written by the switch onto the shard's block
// and flushed to the peer, must not touch the heap — the path
// TestShardStageFlushZeroAlloc covers from the block on, here from the
// receive buffer.
func TestShardUpdateResultZeroAlloc(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close() // never read: loopback drops on a full buffer without erroring the sender
	ap := sink.LocalAddr().(*net.UDPAddr).AddrPort()
	send, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	const s, k = 4, 312
	nc, err := netio.Wrap(send, netio.Config{Batch: 8, MTU: aggWireMTU(k)})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := core.NewShardedSwitch(core.SwitchConfig{Workers: 1, PoolSize: s, SlotElems: k, LossRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	a := &Aggregator{sent: reg.Counter("test_sent"), sendErrs: reg.Counter("test_send_errors")}
	j := newJob(sw)
	sh := &aggShard{job: j, nc: nc, block: make([]byte, 0, s*packet.WireLen(k))}
	vec := make([]int32, k)
	wire := make([]byte, 0, packet.WireLen(k))
	round := 0
	step := func() {
		for idx := range uint32(s) {
			h := packet.Header{Kind: packet.KindUpdate, Ver: uint8(round % 2), Idx: idx, Off: uint64((round*s + int(idx)) * k)}
			wire = packet.AppendWire(wire[:0], &h, vec)
			payload, err := packet.ParseHeader(&sh.hdr, wire)
			if err != nil {
				t.Fatal(err)
			}
			a.handleUpdate(sh, payload, ap)
		}
		if len(sh.block) != s*packet.WireLen(k) {
			t.Fatalf("round %d staged %d bytes, want %d results", round, len(sh.block), s)
		}
		a.flushShard(sh)
		round++
	}
	step() // learn the peer, warm the staging arena
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("update→result→flush cycle allocates %.2f/op in mode %v, want 0", allocs, nc.Mode())
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
	defer sink.Close() // read only for the hello: loopback drops on a full buffer without erroring the sender
	const s, k, runs = 8, 32, 100
	for name, inj := range map[string]*faults.InjectorConfig{
		"clean":    nil,
		"injected": {Seed: 3, DropRate: 0.2, DupRate: 0.2, CorruptRate: 0.2},
	} {
		t.Run(name, func(t *testing.T) {
			answerHello(sink, s, k, 1)
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

// TestClientResultDatagramZeroAlloc is the AllocsPerRun gate behind the
// //switchml:hotpath annotations on handleDatagram and handleResult: a
// burst of result datagrams as they come off the socket — header
// checked, elements decoded into the worker's aggregate, the follow-up
// encoded from the caller's tensor into the window block — a corrupted
// datagram rejected on the way, and the flush that ends the pass must
// not touch the heap. No packet pool is involved, so the gate holds
// under the race detector too.
func TestClientResultDatagramZeroAlloc(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close() // read only for the hello: loopback drops on a full buffer without erroring the sender
	const s, k, runs = 8, 32, 100
	answerHello(sink, s, k, 1)
	c, err := NewClient(ClientConfig{
		Aggregator: sink.LocalAddr().String(),
		Worker:     core.WorkerConfig{ID: 0, Workers: 1, PoolSize: s, SlotElems: k, LossRecovery: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// With one worker a slot's result is its update: answer every slot of
	// the window, pass after pass, out of a tensor long enough never to
	// finish.
	u := make([]int32, (runs+3)*s*k)
	for i := range u {
		u[i] = int32(i % 1000)
	}
	c.tick()
	c.worker.Open(u)
	res := make([]packet.Packet, s)
	for sd := c.worker.NextSend(); sd != nil; sd = c.worker.NextSend() {
		h := &sd.Header
		res[h.Idx] = packet.Packet{Kind: packet.KindResult, Idx: h.Idx, Ver: h.Ver, Off: h.Off, Vector: sd.Vec}
		c.send(sd)
	}
	wire := make([]byte, 0, packet.WireLen(k))
	bad := res[0].Marshal()
	bad[len(bad)-1] ^= 0xFF
	step := func() {
		c.tick()
		for i := range res {
			wire = res[i].AppendMarshal(wire[:0])
			if done, err := c.handleDatagram(wire); err != nil || done {
				t.Fatalf("slot %d: done=%v err=%v", i, done, err)
			}
			res[i].Ver ^= 1
			res[i].Off += s * k
			res[i].Vector = u[res[i].Off : res[i].Off+k]
		}
		if done, err := c.handleDatagram(bad); err != nil || done {
			t.Fatalf("corrupted datagram: done=%v err=%v", done, err)
		}
		if err := c.flushTx(); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm the staging arena
	if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
		t.Errorf("result datagram→update→flush cycle allocates %.2f/op, want 0", allocs)
	}
	if got, want := c.worker.Stats().Results, uint64((runs+2)*s); got != want {
		t.Errorf("worker accepted %d results, want %d: the cycle did not run", got, want)
	}
	if got, want := c.corrupt.Value(), uint64(runs+2); got != want {
		t.Errorf("%d datagrams counted corrupted, want %d", got, want)
	}
	for i, v := range c.worker.Aggregate()[:(runs+2)*s*k] {
		if v != u[i] {
			t.Fatalf("aggregate[%d] = %d, want %d", i, v, u[i])
		}
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
