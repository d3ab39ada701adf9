package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"switchml"
	"switchml/internal/allreduce"
	"switchml/internal/core"
	"switchml/internal/faults"
	"switchml/internal/quant"
	"switchml/internal/rack"
	"switchml/internal/transport"
)

// options are the settings of one pass over one workload.
type options struct {
	seed   int64
	trials int
	budget time.Duration // timed section of one trial
}

// inputs are one trial's generated tensors and the results they must
// produce. The program under test receives only these.
type inputs struct {
	ints   [][][]int32   // [worker][tensor]
	floats [][][]float32 // [worker][tensor]
	wantI  [][]int32     // [tensor] exact sums
	wantF  [][]float64   // [tensor] exact float sums
	order  []int         // submission order of a step's tensors
}

// seededInts returns n values small enough that eight of them sum
// without overflow.
func seededInts(rng *rand.Rand, n int) []int32 {
	v := make([]int32, n)
	for i := range v {
		v[i] = rng.Int31n(1<<21) - 1<<20
	}
	return v
}

// seededFloats returns n values in [-1, 1).
func seededFloats(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()*2 - 1
	}
	return v
}

func genInputs(w *workload, seed int64, trial int) *inputs {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(trial)*7919 + 1))
	in := &inputs{order: rng.Perm(len(w.sizes))}
	switch w.kind {
	case kindFloat:
		in.floats = make([][][]float32, udpWorkers)
		in.wantF = make([][]float64, len(w.sizes))
		for t, n := range w.sizes {
			in.wantF[t] = make([]float64, n)
		}
		for wk := range in.floats {
			in.floats[wk] = make([][]float32, len(w.sizes))
			for t, n := range w.sizes {
				v := seededFloats(rng, n)
				for i, x := range v {
					in.wantF[t][i] += float64(x)
				}
				in.floats[wk][t] = v
			}
		}
	case kindInt, kindSim:
		// The simulator aggregates one tensor shared by every worker.
		distinct := udpWorkers
		if w.kind == kindSim {
			distinct = 1
		}
		n := w.sizes[0]
		in.ints = make([][][]int32, distinct)
		in.wantI = [][]int32{make([]int32, n)}
		for wk := range in.ints {
			v := seededInts(rng, n)
			in.ints[wk] = [][]int32{v}
			mult := int32(w.workers() / distinct)
			for i, x := range v {
				in.wantI[0][i] += x * mult
			}
		}
	}
	return in
}

// floatTolerance is Theorem 1's bound for the fixed-point aggregate
// plus the float32 rounding of the dequantized value.
func floatTolerance() float64 {
	fx, _ := quant.NewFixedPoint(floatScale)
	return fx.ErrorBound(udpWorkers) + 1e-6
}

func closeFloat(got []float32, want []float64, tol float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i, g := range got {
		if math.Abs(float64(g)-want[i]) > tol {
			return false
		}
	}
	return true
}

// trialResult is what one trial (fresh sockets, fresh tensors) measured.
type trialResult struct {
	setup time.Duration // trial start → first timed step
	wall  time.Duration // timed section
	cpu   time.Duration // process CPU time (all threads) over the timed section
	steps []time.Duration
	ends  []time.Duration // when each step ended, from the start of the timed section
	skews []time.Duration // first vs last worker to finish each step

	allocBytes, mallocs uint64 // runtime.MemStats deltas over the timed section
	updates             uint64 // update packets the switch processed in the timed section
	attempted, failed   int    // AllReduce/Simulate calls, warm-up included

	layer layerCounts // traced pass only
}

// layerCounts are the per-layer counts one traced trial read from the
// program's public Stats()/DebugState()/Counters().
type layerCounts struct {
	listen, dial time.Duration
	sw           core.SwitchStats // timed-section delta
	workerRetx   uint64
	occP50       float64
	occP99       float64
	imbalance    float64
	corrupted    uint64
	sendErrors   uint64
	sendRetries  uint64

	// Simulator rows (per run; exact and seed-independent when lossless).
	simEvents  uint64
	simPackets uint64
	simRetx    uint64
	simPool    int
	simTAT     time.Duration
}

// tracedPeer is the traced pass's stand-in for switchml.Peer: the same
// calls in the same order over a transport.Client configured as
// DialAggregator configures it, with a span around each layer call.
type tracedPeer struct {
	c   *transport.Client
	fx  *quant.FixedPoint
	tr  *tracer
	tid int
	// parent is the span the harness opened for the call in flight.
	parent atomic.Int32
}

func (p *tracedPeer) AllReduceInt32(u []int32) ([]int32, error) {
	o := p.tr.start("peer.allreduce", p.parent.Load(), p.tid)
	defer p.tr.finish(o)
	return p.allreduce(u, o.id)
}

func (p *tracedPeer) allreduce(u []int32, parent int32) ([]int32, error) {
	o := p.tr.start("transport.allreduce", parent, p.tid)
	out, err := p.c.AllReduceInt32(u)
	p.tr.finish(o)
	return out, err
}

func (p *tracedPeer) AllReduceFloat32(u []float32) ([]float32, error) {
	o := p.tr.start("peer.allreduce", p.parent.Load(), p.tid)
	defer p.tr.finish(o)
	q := make([]int32, len(u))
	s := p.tr.start("quant.quantize", o.id, p.tid)
	sat := p.fx.Quantize(q, u)
	p.tr.finish(s)
	if sat > 0 {
		return nil, fmt.Errorf("%d elements saturated during quantization", sat)
	}
	sum, err := p.allreduce(q, o.id)
	if err != nil {
		return nil, err
	}
	out := make([]float32, len(u))
	s = p.tr.start("quant.dequantize", o.id, p.tid)
	p.fx.Dequantize(out, sum)
	p.tr.finish(s)
	return out, nil
}

func (p *tracedPeer) Close() error { return p.c.Close() }

// peer is what the harness needs from one worker endpoint:
// *switchml.Peer untraced, *tracedPeer traced.
type peer interface {
	switchml.Collective
	Close() error
}

// cluster is one trial's aggregator and workers.
type cluster struct {
	peers    []peer
	sessions []*switchml.Session // kindFloat only
	traced   []*tracedPeer       // traced pass only
	agg      *transport.Aggregator
	updates  func() uint64
	closeAgg func() error

	listen, dial time.Duration
}

func (c *cluster) close() {
	for _, s := range c.sessions {
		s.Close()
	}
	for _, p := range c.peers {
		p.Close()
	}
	if c.closeAgg != nil {
		c.closeAgg()
	}
}

// openCluster listens and dials on the host loopback. Untraced it goes
// through the public API; traced it builds the internal/transport
// objects exactly as ListenAggregator and DialAggregator do, which
// exposes their Stats()/DebugState() for the per-layer counts.
func openCluster(w *workload, o *options, trial int, tr *tracer) (*cluster, error) {
	var rto time.Duration
	var aggInj *switchml.FaultInjection
	peerInj := make([]*switchml.FaultInjection, udpWorkers)
	if w.drop > 0 {
		rto = 5 * time.Millisecond
		base := (o.seed*31 + int64(trial)) * 4
		aggInj = &switchml.FaultInjection{Seed: base + 1, DropRate: w.drop}
		for id := range peerInj {
			peerInj[id] = &switchml.FaultInjection{Seed: base + 2 + int64(id), DropRate: w.drop}
		}
	}
	scale := 0.0
	if w.kind == kindFloat {
		scale = floatScale
	}
	internal := func(f *switchml.FaultInjection) *faults.InjectorConfig {
		if f == nil {
			return nil
		}
		return &faults.InjectorConfig{Seed: f.Seed, DropRate: f.DropRate}
	}

	cl := &cluster{}
	var addr string
	sp := tr.start("listen", 0, tidHarness)
	t0 := time.Now()
	if tr == nil {
		agg, err := switchml.ListenAggregator("127.0.0.1:0", switchml.AggregatorParams{
			Workers: udpWorkers, Inject: aggInj,
		})
		if err != nil {
			return nil, err
		}
		addr, cl.closeAgg = agg.Addr(), agg.Close
		cl.updates = func() uint64 { return agg.Stats().Updates }
	} else {
		agg, err := transport.NewAggregator(transport.AggregatorConfig{
			Addr: "127.0.0.1:0",
			Switch: core.SwitchConfig{
				Workers: udpWorkers, PoolSize: poolSize, SlotElems: slotElems, LossRecovery: true,
			},
			Inject: internal(aggInj),
		})
		if err != nil {
			return nil, err
		}
		addr, cl.closeAgg, cl.agg = agg.Addr().String(), agg.Close, agg
		cl.updates = func() uint64 { return agg.Stats().Updates }
	}
	cl.listen = time.Since(t0)
	tr.finish(sp)

	sp = tr.start("dial", 0, tidHarness)
	t0 = time.Now()
	for id := 0; id < udpWorkers; id++ {
		var p peer
		var err error
		if tr == nil {
			p, err = switchml.DialAggregator(addr, switchml.PeerParams{
				ID: id, Workers: udpWorkers, Scale: scale, RTO: rto, Inject: peerInj[id],
			})
		} else {
			var c *transport.Client
			c, err = transport.NewClient(transport.ClientConfig{
				Aggregator: addr,
				Worker: core.WorkerConfig{
					ID: uint16(id), Workers: udpWorkers, PoolSize: poolSize, SlotElems: slotElems, LossRecovery: true,
				},
				RTO:    rto,
				Inject: internal(peerInj[id]),
			})
			if err == nil {
				fx, _ := quant.NewFixedPoint(floatScale)
				tp := &tracedPeer{c: c, fx: fx, tr: tr, tid: tidWorker + id}
				if w.kind == kindFloat {
					tp.tid = tidSession + id // the Session's goroutine makes the calls
				}
				cl.traced = append(cl.traced, tp)
				p = tp
			}
		}
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.peers = append(cl.peers, p)
		if w.kind == kindFloat {
			s, err := switchml.NewSession(p, sessionBuf)
			if err != nil {
				cl.close()
				return nil, err
			}
			cl.sessions = append(cl.sessions, s)
		}
	}
	cl.dial = time.Since(t0)
	tr.finish(sp)
	return cl, nil
}

// ack is one worker's report on one step.
type ack struct {
	fin           time.Time // when the worker held every result of the step
	calls, failed int
}

// workerStep runs worker wk's share of one step and verifies it.
func workerStep(w *workload, cl *cluster, in *inputs, tr *tracer, wk int, root int32, tol float64) ack {
	if w.kind == kindInt {
		if cl.traced != nil {
			cl.traced[wk].parent.Store(root)
		}
		res, err := cl.peers[wk].AllReduceInt32(in.ints[wk][0])
		a := ack{fin: time.Now(), calls: 1}
		if err != nil || !slices.Equal(res, in.wantI[0]) {
			a.failed = 1
		}
		return a
	}
	// One float32 step: all tensors submitted, then all waited.
	sp := tr.start("session.submit_wait", root, tidWorker+wk)
	if cl.traced != nil {
		cl.traced[wk].parent.Store(sp.id)
	}
	a := ack{calls: len(in.order)}
	futs := make([]*switchml.Future, 0, len(in.order))
	for _, t := range in.order {
		f, err := cl.sessions[wk].SubmitFloat32(in.floats[wk][t])
		if err != nil {
			a.failed++
			continue
		}
		futs = append(futs, f)
	}
	results := make([][]float32, len(futs))
	errs := make([]error, len(futs))
	for i, f := range futs {
		results[i], errs[i] = f.Wait()
	}
	a.fin = time.Now()
	tr.finish(sp)
	if a.failed > 0 {
		return a // a refused submission shifts the order; nothing left to compare
	}
	for i, t := range in.order {
		if errs[i] != nil || !closeFloat(results[i], in.wantF[t], tol) {
			a.failed++
		}
	}
	return a
}

// maxSteps sizes the per-trial sample buffers so that the timed section
// never grows them (udp_smallstep runs ~10k steps per second).
const maxSteps = 1 << 18

// runUDPTrial is one trial of a UDP workload: fresh tensors, a new
// aggregator and new peers (the kernel's REUSEPORT hash of the
// ephemeral ports decides which shard each worker lands on; fresh
// sockets per trial average that lottery instead of freezing it),
// warm-up steps, then closed-loop timed steps for the trial's budget.
func runUDPTrial(w *workload, o *options, trial int, tr *tracer) (trialResult, error) {
	res := trialResult{
		steps: make([]time.Duration, 0, maxSteps), ends: make([]time.Duration, 0, maxSteps), skews: make([]time.Duration, 0, maxSteps),
	}
	runtime.GC() // the previous trial's garbage is not this trial's set-up
	begin := time.Now()
	in := genInputs(w, o.seed, trial)
	cl, err := openCluster(w, o, trial, tr)
	if err != nil {
		return res, fmt.Errorf("%s trial %d: %w", w.name, trial, err)
	}
	defer cl.close()
	tol := floatTolerance()

	// One goroutine per worker, alive for the trial; the harness hands
	// each the step's root span and collects the acks.
	reqs := make([]chan int32, udpWorkers)
	acks := make(chan ack, udpWorkers)
	var wg sync.WaitGroup
	for wk := range reqs {
		reqs[wk] = make(chan int32)
		wk := wk
		wg.Add(1)
		go func() {
			defer wg.Done()
			for root := range reqs[wk] {
				acks <- workerStep(w, cl, in, tr, wk, root, tol)
			}
		}()
	}
	defer func() {
		for _, c := range reqs {
			close(c)
		}
		wg.Wait()
	}()

	step := func(n int, phase string) (dur, skew time.Duration) {
		var root open
		if tr != nil {
			root = tr.startRoot("step", fmt.Sprintf("%s/%d/%s%d", w.name, trial, phase, n), tidHarness)
		}
		t0 := time.Now()
		for _, c := range reqs {
			c <- root.id
		}
		var first, last time.Time
		for range reqs {
			a := <-acks
			res.attempted += a.calls
			res.failed += a.failed
			if first.IsZero() || a.fin.Before(first) {
				first = a.fin
			}
			if a.fin.After(last) {
				last = a.fin
			}
		}
		tr.finish(root)
		return last.Sub(t0), last.Sub(first)
	}

	sp := tr.start("warmup", 0, tidHarness)
	for i := 0; i < w.warmupSteps(); i++ {
		step(i, "warmup")
	}
	tr.finish(sp)
	res.setup = time.Since(begin)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	u0 := cl.updates()
	var sw0 core.SwitchStats
	var retx0 uint64
	if cl.agg != nil {
		sw0 = cl.agg.Stats()
		retx0 = workerRetransmissions(cl)
	}
	cpu0 := processCPU()
	start := time.Now()
	for len(res.steps) < maxSteps {
		d, skew := step(len(res.steps), "")
		res.wall = time.Since(start)
		res.steps = append(res.steps, d)
		res.ends = append(res.ends, res.wall)
		res.skews = append(res.skews, skew)
		if res.wall >= o.budget {
			break
		}
	}
	res.cpu = processCPU() - cpu0
	res.updates = cl.updates() - u0
	runtime.ReadMemStats(&m1)
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.mallocs = m1.Mallocs - m0.Mallocs
	// Keep the samples, not the buffers: what a trial retains must not
	// grow the heap (and so move the GC's pace) of the trials after it.
	res.steps, res.ends, res.skews = slices.Clone(res.steps), slices.Clone(res.ends), slices.Clone(res.skews)

	if cl.agg != nil {
		ds := cl.agg.DebugState(false)
		lc := &res.layer
		lc.listen, lc.dial = cl.listen, cl.dial
		lc.sw = subStats(cl.agg.Stats(), sw0)
		lc.workerRetx = workerRetransmissions(cl) - retx0
		lc.occP50, lc.occP99 = ds.BatchOccupancyP50, ds.BatchOccupancyP99
		lc.imbalance = imbalance(ds.ShardDatagrams)
		lc.corrupted = ds.Corrupted
		lc.sendErrors, lc.sendRetries = ds.SendErrors, ds.SendRetries
		for _, tp := range cl.traced {
			cs := tp.c.DebugState()
			lc.corrupted += cs.Corrupted
			lc.sendErrors += cs.SendErrors
			lc.sendRetries += cs.SendRetries
		}
	}
	return res, nil
}

func workerRetransmissions(cl *cluster) uint64 {
	var n uint64
	for _, tp := range cl.traced {
		n += tp.c.Stats().Retransmissions
	}
	return n
}

func subStats(a, b core.SwitchStats) core.SwitchStats {
	a.Updates -= b.Updates
	a.Completions -= b.Completions
	a.IgnoredDuplicates -= b.IgnoredDuplicates
	a.ResultRetransmissions -= b.ResultRetransmissions
	a.StaleUpdates -= b.StaleUpdates
	return a
}

// imbalance is max ÷ mean of the shards' drain counts: 1 when every
// shard carries the same load, the shard count when one carries it all.
func imbalance(shards []uint64) float64 {
	var sum, max uint64
	for _, n := range shards {
		sum += n
		if n > max {
			max = n
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(shards)) / float64(sum)
}

// simRun is one simulated AllReduce, through the public SimulateRack
// untraced and through rack.NewRack (configured as SimulateRack
// configures it) traced, where the event count is readable.
type simRun struct {
	aggregate []int32
	tat       time.Duration
	retx      uint64
	pool      int
	counters  map[string]uint64
	events    uint64
}

func simulate(seed int64, tensor []int32, tr *tracer, root int32) (simRun, error) {
	if tr == nil {
		r, err := switchml.SimulateRack(switchml.SimParams{Workers: simWorkers, LinkGbps: simGbps, Seed: seed}, tensor)
		if err != nil {
			return simRun{}, err
		}
		return simRun{aggregate: r.Aggregate, tat: r.TAT, retx: r.Retransmissions, pool: r.PoolSize, counters: r.Counters}, nil
	}
	sp := tr.start("sim.simulate", root, tidHarness)
	defer tr.finish(sp)
	r, err := rack.NewRack(rack.Config{
		Workers: simWorkers, LinkBitsPerSec: simGbps * 1e9, LossRecovery: true, Seed: seed,
	})
	if err != nil {
		return simRun{}, err
	}
	res, err := r.AllReduceShared(tensor)
	if err != nil {
		return simRun{}, err
	}
	return simRun{
		aggregate: r.Aggregate(0), tat: res.TAT.Duration(), retx: res.Retransmissions,
		pool: r.Config().PoolSize, counters: r.Counters(), events: r.Sim().Processed(),
	}, nil
}

// runSimTrial is one trial of sim_rack: a fresh tensor, one warm-up
// run, then timed runs for the trial's budget. A run is wrong if its
// vector is not the exact sum, if it retransmitted (the rack is
// lossless), if its simulated TAT differs from the trial's first run
// (the simulator is deterministic) or leaves [1, simFidelityLimit] ×
// the line-rate bound.
func runSimTrial(w *workload, o *options, trial int, tr *tracer) trialResult {
	res := trialResult{steps: make([]time.Duration, 0, 1024)}
	runtime.GC() // the previous trial's garbage is not this trial's set-up
	begin := time.Now()
	in := genInputs(w, o.seed, trial)
	tensor := in.ints[0][0]
	bound := allreduce.SwitchMLLineRateTAT(simGbps*1e9, slotElems, len(tensor))
	var tat time.Duration

	run := func(n int, phase string) time.Duration {
		var root open
		if tr != nil {
			root = tr.startRoot("step", fmt.Sprintf("%s/%d/%s%d", w.name, trial, phase, n), tidHarness)
		}
		t0 := time.Now()
		r, err := simulate(o.seed, tensor, tr, root.id)
		d := time.Since(t0)
		tr.finish(root)
		res.attempted++
		if err != nil {
			res.failed++
			return d
		}
		if tat == 0 {
			tat = r.tat
		}
		ratio := r.tat.Seconds() / bound
		if !slices.Equal(r.aggregate, in.wantI[0]) || r.retx != 0 || r.tat != tat || ratio < 1 || ratio > simFidelityLimit {
			res.failed++
		}
		lc := &res.layer
		lc.simEvents, lc.simPackets = r.events, r.counters["packets_sent"]
		lc.simRetx, lc.simPool, lc.simTAT = r.retx, r.pool, r.tat
		lc.sw.Updates += r.counters["switch_updates"]
		lc.sw.Completions += r.counters["switch_completions"]
		lc.sw.IgnoredDuplicates += r.counters["switch_ignored_duplicates"]
		lc.sw.ResultRetransmissions += r.counters["switch_shadow_reads"]
		lc.sw.StaleUpdates += r.counters["switch_stale_updates"]
		lc.workerRetx += r.counters["worker_retransmissions"]
		return d
	}

	sp := tr.start("warmup", 0, tidHarness)
	run(0, "warmup")
	tr.finish(sp)
	res.setup = time.Since(begin)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res.layer = layerCounts{} // counts cover the timed runs only
	start := time.Now()
	for {
		res.steps = append(res.steps, run(len(res.steps), ""))
		res.wall = time.Since(start)
		res.ends = append(res.ends, res.wall)
		if res.wall >= o.budget {
			break
		}
	}
	res.updates = res.layer.sw.Updates
	runtime.ReadMemStats(&m1)
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.mallocs = m1.Mallocs - m0.Mallocs
	return res
}

// pass is one run of a workload: every trial, traced or not.
type pass struct {
	w      *workload
	trials []trialResult
}

func runPass(w *workload, o *options, tr *tracer) (*pass, error) {
	p := &pass{w: w}
	for trial := 0; trial < o.trials; trial++ {
		if w.kind == kindSim {
			p.trials = append(p.trials, runSimTrial(w, o, trial, tr))
			continue
		}
		r, err := runUDPTrial(w, o, trial, tr)
		if err != nil {
			return nil, err
		}
		p.trials = append(p.trials, r)
	}
	return p, nil
}

func (p *pass) attempted() (attempted, failed int) {
	for _, t := range p.trials {
		attempted += t.attempted
		failed += t.failed
	}
	return
}
