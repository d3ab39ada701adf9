package switchml

// Benchmark harness: one testing.B benchmark per paper artifact
// (Table 1, Figures 2-8 and 10, plus the design ablations), each
// regenerating its table at a reduced scale through internal/bench,
// and micro-benchmarks of the protocol hot paths. Run the full-size
// experiments with cmd/switchml-bench -scale 1.

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"switchml/internal/bench"
	"switchml/internal/core"
	"switchml/internal/p4sim"
	"switchml/internal/packet"
	"switchml/internal/quant"
	"switchml/internal/rack"
	"switchml/internal/transport"
)

// benchExperiment runs one experiment id per iteration at a fast
// scale.
func benchExperiment(b *testing.B, id string, scale int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := bench.Run(id, bench.Options{Scale: scale, Seed: 1, Log: io.Discard})
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// Table 1: training throughput, 8 workers @ 10 Gbps.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1", 100) }

// Figure 2: pool size vs TAT and RTT.
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2", 500) }

// Figure 3: training speedup for nine models at 10 and 100 Gbps.
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3", 200) }

// Figure 4: ATE/s vs worker count for five strategies.
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4", 200) }

// Figure 5: TAT inflation under packet loss.
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5", 200) }

// Figure 6: packets-per-10ms timeline under loss.
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6", 200) }

// Figure 7: TAT vs tensor size with MTU-sized packets.
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7", 500) }

// Figure 8: TAT by data type (int32 / float32 / float16).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8", 500) }

// Figure 10: accuracy vs quantization scaling factor.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10", 100) }

// Ablations called out in DESIGN.md.
func BenchmarkAblationAlgorithm(b *testing.B) { benchExperiment(b, "ablation-algorithm", 200) }
func BenchmarkAblationRTO(b *testing.B)       { benchExperiment(b, "ablation-rto", 200) }
func BenchmarkAblationPool(b *testing.B)      { benchExperiment(b, "ablation-pool", 200) }

// Extension experiments covering the §5.4/§6 discussion points.
func BenchmarkMultiTenant(b *testing.B) { benchExperiment(b, "multitenant", 200) }
func BenchmarkStraggler(b *testing.B)   { benchExperiment(b, "straggler", 200) }
func BenchmarkRDMA(b *testing.B)        { benchExperiment(b, "rdma", 200) }
func BenchmarkScaling(b *testing.B)     { benchExperiment(b, "scaling", 500) }

// BenchmarkPipelineHandle measures the executable P4-style pipeline
// (per-stage register RMWs) against BenchmarkSwitchHandle's plain
// state machine.
func BenchmarkPipelineHandle(b *testing.B) {
	const n = 8
	ps, err := p4sim.NewPipelineSwitch(p4sim.Tofino64x100G(), n, 64, 32)
	if err != nil {
		b.Fatal(err)
	}
	vec := make([]int32, 32)
	pkts := make([]*packet.Packet, n)
	for w := range pkts {
		pkts[w] = packet.NewUpdate(uint16(w), 0, 0, 0, 0, vec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pkts[i%n]
		p.Ver = uint8(i / n % 2)
		p.Off = uint64(i / n * 32)
		ps.Handle(p)
	}
}

// BenchmarkSwitchHandle measures the software dataplane: one update
// packet through Algorithm 3.
func BenchmarkSwitchHandle(b *testing.B) {
	const n = 8
	sw, err := core.NewSwitch(core.SwitchConfig{Workers: n, PoolSize: 64, SlotElems: 32, LossRecovery: true})
	if err != nil {
		b.Fatal(err)
	}
	vec := make([]int32, 32)
	pkts := make([]*packet.Packet, n)
	for w := range pkts {
		pkts[w] = packet.NewUpdate(uint16(w), 0, 0, 0, 0, vec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pkts[i%n]
		p.Ver = uint8(i / n % 2)
		p.Off = uint64(i / n * 32)
		sw.Handle(p)
	}
	b.ReportMetric(float64(32), "elems/op")
}

// BenchmarkSwitchHandleInto measures the same ingress through the
// borrow-based hot path: the reply vector is served from the slot's
// storage (or the caller's scratch packet) instead of a fresh
// allocation. Compare against BenchmarkSwitchHandle with benchstat.
func BenchmarkSwitchHandleInto(b *testing.B) {
	const n = 8
	sw, err := core.NewSwitch(core.SwitchConfig{Workers: n, PoolSize: 64, SlotElems: 32, LossRecovery: true})
	if err != nil {
		b.Fatal(err)
	}
	vec := make([]int32, 32)
	pkts := make([]*packet.Packet, n)
	for w := range pkts {
		pkts[w] = packet.NewUpdate(uint16(w), 0, 0, 0, 0, vec)
	}
	var out packet.Packet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pkts[i%n]
		p.Ver = uint8(i / n % 2)
		p.Off = uint64(i / n * 32)
		sw.HandleInto(p, &out)
	}
	b.ReportMetric(float64(32), "elems/op")
}

// BenchmarkShardedHandleInto measures ingress through ShardedSwitch's
// per-slot locks — the path every aggregator shard goroutine takes.
// Single-goroutine numbers isolate the lock overhead; the transport
// race tests cover contention.
func BenchmarkShardedHandleInto(b *testing.B) {
	const n = 8
	ss, err := core.NewShardedSwitch(core.SwitchConfig{Workers: n, PoolSize: 64, SlotElems: 32, LossRecovery: true})
	if err != nil {
		b.Fatal(err)
	}
	vec := make([]int32, 32)
	pkts := make([]*packet.Packet, n)
	for w := range pkts {
		pkts[w] = packet.NewUpdate(uint16(w), 0, 0, 0, 0, vec)
	}
	var out packet.Packet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pkts[i%n]
		p.Ver = uint8(i / n % 2)
		p.Off = uint64(i / n * 32)
		ss.HandleInto(p, &out)
	}
	b.ReportMetric(float64(32), "elems/op")
}

// BenchmarkPacketRoundTrip measures the pooled wire codec: one
// update packet appended into a reused buffer and decoded into a
// reused packet, as the transport send/receive loops do per datagram.
func BenchmarkPacketRoundTrip(b *testing.B) {
	vec := make([]int32, packet.DefaultElems)
	src := packet.NewUpdate(3, 1, 0, 7, 224, vec)
	var wire []byte
	var dst packet.Packet
	b.SetBytes(int64(len(src.Marshal())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire = src.AppendMarshal(wire[:0])
		if err := packet.UnmarshalInto(&dst, wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkerPipeline measures the worker state machine: start,
// results, follow-ups for a full small tensor.
func BenchmarkWorkerPipeline(b *testing.B) {
	u := make([]int32, 32*64)
	w, err := core.NewWorker(core.WorkerConfig{ID: 0, Workers: 1, PoolSize: 16, SlotElems: 32, LossRecovery: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		queue := w.Start(u)
		for len(queue) > 0 {
			p := queue[0]
			queue = queue[1:]
			r := p.Clone()
			r.Kind = packet.KindResult
			next, _ := w.HandleResult(r)
			if next != nil {
				queue = append(queue, next)
			}
		}
	}
}

// BenchmarkQuantize measures the float32 -> int32 conversion path
// (the workers' SSE/AVX loop in the paper, §4) at the benchmark
// harness's scale, 2¹⁶, and reports it per element.
func BenchmarkQuantize(b *testing.B) {
	q, err := quant.NewFixedPoint(1 << 16)
	if err != nil {
		b.Fatal(err)
	}
	src := make([]float32, 1<<16)
	dst := make([]int32, len(src))
	for i := range src {
		src[i] = float32(i%997) * 0.01
	}
	b.SetBytes(int64(len(src) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Quantize(dst, src)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(src)), "ns/elem")
}

// BenchmarkDequantize measures the int32 -> float32 path.
func BenchmarkDequantize(b *testing.B) {
	q, err := quant.NewFixedPoint(1 << 20)
	if err != nil {
		b.Fatal(err)
	}
	src := make([]int32, 1<<16)
	dst := make([]float32, len(src))
	for i := range src {
		src[i] = int32(i)
	}
	b.SetBytes(int64(len(src) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Dequantize(dst, src)
	}
}

// BenchmarkFloat16Convert measures the half-precision codec used by
// the float16 pipeline (Figure 8).
func BenchmarkFloat16Convert(b *testing.B) {
	vals := make([]float32, 1<<14)
	for i := range vals {
		vals[i] = float32(i%2048)*0.25 - 128
	}
	b.SetBytes(int64(len(vals) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range vals {
			_ = quant.Float16FromFloat32(v).Float32()
		}
	}
}

// BenchmarkPacketMarshal measures the UDP wire codec.
func BenchmarkPacketMarshal(b *testing.B) {
	p := packet.NewUpdate(3, 0, 1, 42, 4096, make([]int32, 32))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := p.Marshal()
		if _, err := packet.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterAllReduce measures the in-process public API end to
// end: 4 workers, 64K elements.
func BenchmarkClusterAllReduce(b *testing.B) {
	const n, d = 4, 1 << 16
	c, err := NewCluster(n)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	updates := make([][]int32, n)
	for i := range updates {
		updates[i] = make([]int32, d)
	}
	b.SetBytes(int64(d * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < n; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.Worker(w).AllReduceInt32(updates[w]); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}

// BenchmarkUDPBulk is the benchmark harness's udp_bulk shape as a
// testing.B — 2 workers against one aggregator over loopback UDP, 1M
// int32 elements per step, default pool, batch and shards — so the
// UDP data path can be profiled with the standard flags:
//
//	go test -run '^$' -bench UDPBulk -benchtime 200x -cpuprofile cpu.out .
//
// DESIGN.md's "What a packet costs" table is read off such a profile.
func BenchmarkUDPBulk(b *testing.B) { benchUDP(b, 2, 0, 0, 1<<20, 0, 0) }

// BenchmarkUDPFloatStream is the benchmark harness's udp_float_stream
// shape as a testing.B: 2 workers, each streaming one step's 16 float32
// tensors (12 × 4,096, 3 × 65,536 and 524,288 elements) through a
// Session at scale 2¹⁶ against one aggregator over loopback UDP, all
// submitted and then all waited. It profiles the float path, quantize
// and dequantize included, the way BenchmarkUDPBulk profiles udp_bulk:
//
//	go test -run '^$' -bench UDPFloatStream -benchtime 100x -cpuprofile cpu.out .
func BenchmarkUDPFloatStream(b *testing.B) {
	const n = 2
	var sizes []int
	for i := 0; i < 12; i++ {
		sizes = append(sizes, 4096)
	}
	sizes = append(sizes, 65536, 65536, 65536, 524288)
	elems := 0
	for _, d := range sizes {
		elems += d
	}
	agg, err := ListenAggregator("127.0.0.1:0", AggregatorParams{Workers: n})
	if err != nil {
		b.Fatal(err)
	}
	defer agg.Close()
	sessions := make([]*Session, n)
	tensors := make([][][]float32, n)
	for w := range sessions {
		p, err := DialAggregator(agg.Addr(), PeerParams{ID: w, Workers: n, Scale: 1 << 16})
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		if sessions[w], err = NewSession(p, len(sizes)); err != nil {
			b.Fatal(err)
		}
		defer sessions[w].Close()
		for _, d := range sizes {
			t := make([]float32, d)
			for i := range t {
				t[i] = float32((i*7+w)%2001-1000) / 1000
			}
			tensors[w] = append(tensors[w], t)
		}
	}
	steps := make([]time.Duration, b.N)
	b.SetBytes(int64(elems * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := range sessions {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				futs := make([]*Future, len(sizes))
				for j, t := range tensors[w] {
					f, err := sessions[w].SubmitFloat32(t)
					if err != nil {
						b.Error(err)
						return
					}
					futs[j] = f
				}
				for _, f := range futs {
					if _, err := f.Wait(); err != nil {
						b.Error(err)
					}
				}
			}()
		}
		wg.Wait()
		steps[i] = time.Since(t0)
	}
	b.StopTimer()
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
	b.ReportMetric(float64(steps[len(steps)/2])/1e6, "p50-ms")
	b.ReportMetric(float64(elems)*float64(b.N)/b.Elapsed().Seconds(), "elem/s")
}

// BenchmarkUDPLossy is BenchmarkUDPBulk's twin at the harness's
// udp_lossy shape: 262,144 elements, 1 % of the datagrams dropped each
// way, RTO 5 ms. It reports which recovery repaired the losses. A CPU
// profile of it is mostly idle time — the workload waits for losses to
// be noticed, it does not compute — so read its wall clock first.
//
//	go test -run '^$' -bench UDPLossy -benchtime 300x -cpuprofile cpu.out .
func BenchmarkUDPLossy(b *testing.B) { benchUDP(b, 2, 0, 0, 256<<10, 0.01, 5*time.Millisecond) }

// BenchmarkUDPPool is Figure 2 on the UDP path: BenchmarkUDPBulk's
// shape at 32-element packets with the pool size set explicitly, 32 to
// 4096 slots, instead of tuned — the sweep TunePoolSize's budget was
// read from (EXPERIMENTS.md "Figure 2"). Beside MB/s it reports which
// recovery ran (all zero until the window overruns a socket buffer) and
// drops/op, the datagrams — whole coalesced trains, with segmentation
// offload — the kernel dropped at full receive buffers. The rule's other
// axes are sub-benchmarks too: 4 and 8 workers, and tensors of one
// 64-slot window (2,048 elements) and of 262,144 elements.
//
//	go test -run '^$' -bench 'UDPPool/w=2/d=1048576' -benchtime 100x .
func BenchmarkUDPPool(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		for _, d := range []int{1 << 20, 256 << 10, 2048} {
			for s := 32; s <= 4096; s *= 2 {
				b.Run(fmt.Sprintf("w=%d/d=%d/s=%d", n, d, s), func(b *testing.B) { benchUDP(b, n, packet.DefaultElems, s, d, 0, 0) })
			}
		}
	}
}

// BenchmarkUDPShape is Figure 7 on the UDP path: BenchmarkUDPBulk's and
// BenchmarkUDPLossy's shapes with the packet size set explicitly, 32 to
// 352 elements, each at its tuned pool — the sweep TuneShape's k was
// checked against (EXPERIMENTS.md "Figure 7") — and a 4-worker job at
// 32 elements and at the rule's k. It reports elements/s, the median
// step, the update datagrams the aggregator received and the
// retransmissions a step beside MB/s.
//
//	go test -run '^$' -bench 'UDPShape' -benchtime 40x .
func BenchmarkUDPShape(b *testing.B) {
	for _, sh := range []struct {
		name string
		d    int
		drop float64
		rto  time.Duration
	}{{"bulk", 1 << 20, 0, 0}, {"lossy", 256 << 10, 0.01, 5 * time.Millisecond}} {
		for _, k := range []int{32, 64, 128, 256, 312, 352} {
			b.Run(fmt.Sprintf("%s/w=2/k=%d", sh.name, k), func(b *testing.B) { benchUDP(b, 2, k, 0, sh.d, sh.drop, sh.rto) })
		}
	}
	tuned := transport.TuneShape(4)
	for _, k := range []int{packet.DefaultElems, tuned} {
		b.Run(fmt.Sprintf("bulk/w=4/k=%d", k), func(b *testing.B) { benchUDP(b, 4, k, 0, 1<<20, 0, 0) })
	}
}

// benchUDP steps an n-worker loopback job of d elements b.N times in
// packets of k elements over a pool of s slots (0: the tuned sizes),
// with every datagram dropped with probability drop in each direction.
func benchUDP(b *testing.B, n, k, s, d int, drop float64, rto time.Duration) {
	inject := func(seed int64) *FaultInjection {
		if drop == 0 {
			return nil
		}
		return &FaultInjection{Seed: seed, DropRate: drop}
	}
	agg, err := ListenAggregator("127.0.0.1:0", AggregatorParams{Workers: n, PoolSize: s, SlotElems: k, Inject: inject(1)})
	if err != nil {
		b.Fatal(err)
	}
	defer agg.Close()
	peers := make([]*Peer, n)
	updates := make([][]int32, n)
	for i := range peers {
		if peers[i], err = DialAggregator(agg.Addr(), PeerParams{ID: i, Workers: n, RTO: rto, Inject: inject(int64(2 + i))}); err != nil {
			b.Fatal(err)
		}
		defer peers[i].Close()
		updates[i] = make([]int32, d)
	}
	steps := make([]time.Duration, b.N)
	b.SetBytes(int64(d * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := range peers {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := peers[w].AllReduceInt32(updates[w]); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
		steps[i] = time.Since(t0)
	}
	b.StopTimer()
	var st core.WorkerStats
	ds := agg.inner.DebugState(false)
	drops := ds.RcvbufDrops
	for _, p := range peers {
		ws := p.inner.Stats()
		st.Retransmissions += ws.Retransmissions
		st.EarlyRetransmissions += ws.EarlyRetransmissions
		st.ProbeRetransmissions += ws.ProbeRetransmissions
		drops += p.inner.DebugState().RcvbufDrops
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
	b.ReportMetric(float64(steps[len(steps)/2])/1e6, "p50-ms")
	b.ReportMetric(float64(d)*float64(b.N)/b.Elapsed().Seconds(), "elem/s")
	n64 := float64(b.N)
	b.ReportMetric(float64(agg.Stats().Updates)/n64, "upd/op")
	b.ReportMetric(float64(ds.BeyondPool)/n64, "beyond/op")
	b.ReportMetric(float64(drops)/n64, "drops/op")
	b.ReportMetric(float64(st.EarlyRetransmissions)/n64, "lap/op")
	b.ReportMetric(float64(st.ProbeRetransmissions)/n64, "probe/op")
	b.ReportMetric(float64(st.Retransmissions-st.EarlyRetransmissions-st.ProbeRetransmissions)/n64, "timer/op")
}

// BenchmarkRackSimulation measures simulator wall-clock speed on the
// benchmark harness's sim_rack shape — a fresh lossless 8-worker rack
// aggregating 1M elements per iteration — and reports it the way the
// harness does: events/op, ns per simulated packet (rack.sim_pkts_per_s
// inverted) and bytes allocated per element (alloc_bytes_per_elem).
func BenchmarkRackSimulation(b *testing.B) {
	const elems = 1 << 20
	u := make([]int32, elems)
	b.ReportAllocs()
	var events, pkts uint64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := rack.NewRack(rack.Config{Workers: 8, LossRecovery: true, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.AllReduceShared(u); err != nil {
			b.Fatal(err)
		}
		events = r.Sim().Processed()
		pkts = r.Counters()["packets_sent"]
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(events), "events/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pkts), "ns/simpkt")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(b.N)/elems, "B/elem")
}
