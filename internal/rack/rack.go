// Package rack runs the SwitchML protocol over the netsim substrate:
// a single-rack topology of n worker hosts attached to one
// programmable switch, the paper's deployment model (§3.2).
//
// The rack models everything the paper's testbed contributes to
// timing: link bandwidth and propagation, switch pipeline latency,
// per-packet worker CPU cost spread across cores (the DPDK
// run-to-completion loops of Appendix B, with slots sharded across
// cores as Flow Director does), retransmission timers, and packet
// loss.
package rack

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"switchml/internal/allreduce"
	"switchml/internal/core"
	"switchml/internal/faults"
	"switchml/internal/netsim"
	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// ErrSwitchDown is the typed, retryable verdict for an aggregation
// abandoned because the switch stopped answering and fallback was
// declined (Config.NoFallback): the inputs were fine, the fabric was
// not. Callers may retry the collective once the switch recovers;
// per-generation seen bitmaps make the retry exactly-once.
var ErrSwitchDown = errors.New("rack: switch unavailable")

// Config describes a rack experiment.
type Config struct {
	// Workers is n.
	Workers int
	// PoolSize is s; zero selects the paper's tuning rule: the next
	// power of two of ceil(BDP/b) (§3.6).
	PoolSize int
	// SlotElems is k; zero selects packet.DefaultElems (32).
	SlotElems int
	// LinkBitsPerSec is the access link bandwidth (both directions);
	// zero selects 10 Gbps.
	LinkBitsPerSec float64
	// Propagation is the one-way link propagation delay; zero selects
	// 1 µs (intra-rack cable plus port).
	Propagation netsim.Time
	// LossRate is the per-link, per-packet drop probability.
	LossRate float64
	// BurstLoss, when non-nil, replaces the Bernoulli process of
	// LossRate with a Gilbert–Elliott burst loss chain; every link
	// gets its own chain state, so bursts on different links are
	// independent.
	BurstLoss *netsim.GEConfig
	// DupRate is the per-link probability that a delivered packet
	// arrives twice.
	DupRate float64
	// CorruptRate is the per-link probability that a packet is mangled
	// in flight; the receiver's checksum discards it, so above the link
	// layer it behaves as a (separately counted) drop.
	CorruptRate float64
	// PerPacketCost is the worker CPU time to process one packet
	// (receive, copy, convert, send); zero selects 110 ns, which puts
	// one core just above 10 Gbps line rate as in the paper (§4: "one
	// CPU core is sufficient to do reduction at line rate on a
	// 10 Gbps network").
	PerPacketCost netsim.Time
	// Cores is the number of worker cores; zero selects 4, the
	// paper's configuration (§5.1).
	Cores int
	// SwitchLatency is the pipeline ingress-to-egress latency; zero
	// selects 400 ns.
	SwitchLatency netsim.Time
	// RTO is the retransmission timeout; zero selects 1 ms (§5.5).
	// With AdaptiveRTO it is the initial and minimum value.
	RTO netsim.Time
	// AdaptiveRTO enables Jacobson/Karn timeout estimation from
	// observed per-chunk RTTs (RTO = SRTT + 4·RTTVAR, clamped to
	// [RTO, 64·RTO]), the adaptation §6 calls for: "one should take
	// care to adapt the retransmission timeout according to
	// variations in end-to-end RTT."
	AdaptiveRTO bool
	// LossRecovery selects Algorithm 3 (default true via NewRack).
	LossRecovery bool
	// Seed drives the deterministic loss process.
	Seed int64
	// Faults optionally scripts deterministic fault injection — worker
	// crashes and restarts, switch restarts wiping register state, link
	// blackout windows, loss-rate changes — anchored to absolute
	// virtual time or to aggregation steps (§5.6's failure cases).
	Faults *faults.Scenario
	// Liveness configures the failure detector and recovery
	// controller. It defaults on (with default thresholds) whenever
	// Faults contains crash or restart actions; set it explicitly to
	// tune thresholds or to run detection without scripted faults.
	Liveness *LivenessConfig
	// Health configures the switch health monitor and degradation
	// controller (SWITCH → DEGRADED → SWITCH). It defaults on whenever
	// Faults contains switch kill/revive actions, unless NoFallback is
	// set; set it explicitly to tune thresholds.
	Health *HealthConfig
	// StartDegraded starts the job on the host all-reduce fabric
	// instead of the switch — the -degraded-mode baseline. It implies
	// Health; pair it with Health.Probation < 0 to pin the job there.
	StartDegraded bool
	// NoFallback opts out of degraded mode even when switch kill
	// actions are scripted: a dead switch then surfaces as a typed
	// ErrSwitchDown from AllReduce instead of a fabric handoff.
	NoFallback bool
	// Tracer observes every protocol event in the rack, stamped with
	// virtual time: link transmit/receive/drop (netsim), slot
	// aggregation and shadow reads (switch), and retransmissions,
	// timeouts and tensor boundaries (worker hosts). Figure 6 builds
	// its packets-per-10 ms timeline from these events.
	Tracer telemetry.Tracer
	// Metrics optionally collects every component's counters — switch,
	// workers, and a rack_rtt_ns round-trip histogram — in one
	// registry for snapshots and text dumps.
	Metrics *telemetry.Registry
	// SampleRTT enables per-packet RTT sampling on worker 0
	// (Figure 2's right axis).
	SampleRTT bool
	// SampleEvery, when positive, ticks a telemetry.Sampler on virtual
	// time at this period for as long as a step has live unfinished
	// workers, turning the run's counters into time series (rates,
	// gauges, interval quantiles) retrievable via Rack.Series. A
	// Metrics registry is created automatically if none is supplied.
	SampleEvery netsim.Time
	// WorkerLinkBitsPerSec overrides the link rate of individual
	// workers (nil entries or a short slice fall back to
	// LinkBitsPerSec). Used by the straggler experiment: §6 observes
	// that the self-clocking mechanism slows the whole system to the
	// rate of the slowest worker.
	WorkerLinkBitsPerSec []float64
	// StandbySwitches is the number of warm-standby aggregation
	// programs behind the primary (rungs 1..StandbySwitches of the
	// failover ladder). They live behind the same crossbar — a
	// neighbouring ToR or a spare pipeline — and stay idle until the
	// health monitor re-homes the job onto one after the primary goes
	// silent; the host mesh is used only when every rung is down.
	// Requires Health (enabled automatically when Faults kill
	// switches).
	StandbySwitches int
	// StandbyLatency is the extra one-way latency to reach a standby
	// rung (the detour through the backup switch); zero selects
	// 200 ns. It is charged on the response path both ways, so a job
	// homed on a standby sees the primary RTT plus twice this value.
	StandbyLatency netsim.Time
	// Quorum enables straggler mitigation: a slot completes once this
	// many distinct workers have contributed instead of the full
	// membership (see core.SwitchConfig.Quorum). Zero keeps full
	// participation.
	Quorum int
	// LatePolicy selects the fate of a straggler's update arriving
	// after its slot completed at quorum: dropped-and-counted
	// (core.LateDrop) or folded into the next step (core.LateReconcile).
	LatePolicy core.LatePolicy
	// Detached lists workers that exist in the topology but start
	// outside the job membership; a scripted faults.JoinWorker action
	// admits them at the next step boundary (elastic join).
	Detached []int
}

func (c *Config) fillDefaults() {
	if c.SlotElems == 0 {
		c.SlotElems = packet.DefaultElems
	}
	if c.LinkBitsPerSec == 0 {
		c.LinkBitsPerSec = 10e9
	}
	if c.Propagation == 0 {
		c.Propagation = netsim.Microsecond
	}
	if c.PerPacketCost == 0 {
		c.PerPacketCost = 110 * netsim.Nanosecond
	}
	if c.Cores == 0 {
		c.Cores = 4
	}
	if c.SwitchLatency == 0 {
		c.SwitchLatency = 400 * netsim.Nanosecond
	}
	if c.RTO == 0 {
		c.RTO = netsim.Millisecond
	}
	if c.PoolSize == 0 {
		c.PoolSize = TunePoolSize(c.LinkBitsPerSec, c.wireBytes(), c.rttEstimate())
	}
	if c.Liveness == nil && c.scripts(faults.CrashWorker, faults.RestartWorker,
		faults.RestartSwitch, faults.JoinWorker, faults.LeaveWorker) {
		c.Liveness = &LivenessConfig{}
	}
	if c.Liveness != nil {
		lv := *c.Liveness
		lv.fillDefaults(c.RTO)
		c.Liveness = &lv
	}
	if c.StandbySwitches > 0 && c.StandbyLatency == 0 {
		c.StandbyLatency = 200 * netsim.Nanosecond
	}
	// NoFallback declines the host mesh, but a standby ladder is still
	// a switch path: the health monitor runs it and raises the typed
	// error only once every rung is silent.
	wantHealth := !c.NoFallback || c.StandbySwitches > 0
	if c.Health == nil && wantHealth && (c.StartDegraded || c.scripts(faults.KillSwitch,
		faults.ReviveSwitch, faults.KillStandby, faults.ReviveStandby)) {
		c.Health = &HealthConfig{}
	}
	if c.Health != nil && wantHealth {
		hc := *c.Health
		hc.fillDefaults(c.RTO)
		c.Health = &hc
	} else {
		c.Health = nil
	}
}

// scripts reports whether the fault script holds an action of any of
// the kinds.
func (c *Config) scripts(kinds ...faults.ActionKind) bool {
	return c.Faults != nil && slices.ContainsFunc(c.Faults.Actions, func(a faults.Action) bool {
		return slices.Contains(kinds, a.Kind)
	})
}

// wireBytes is the full wire size of one update packet.
func (c *Config) wireBytes() int {
	return packet.HeaderBytes + packet.ElemBytes*c.SlotElems
}

// rttEstimate approximates the end-to-end delay used by the pool
// tuning rule: propagation both ways, switch latency, host
// processing, per-packet serialization each way, plus the DPDK
// batching delay — the workers send and receive packets "batched in
// groups of 32 to reduce per-packet transmission overhead" (§4), so
// a packet waits on the order of 1.5 batch serializations end to
// end. With the paper's parameters this reproduces its measured
// pools: s=128 at 10 Gbps and s=512 at 100 Gbps (§3.6).
func (c *Config) rttEstimate() netsim.Time {
	ser := netsim.Time(float64(c.wireBytes()*8) / c.LinkBitsPerSec * 1e9)
	const batch = 32
	return 2*c.Propagation + c.SwitchLatency + c.PerPacketCost + 2*ser + 3*batch*ser
}

// TunePoolSize implements §3.6: s is the next power of two of
// ceil(BDP/b), where the delay is the end-to-end RTT including host
// processing.
func TunePoolSize(bitsPerSec float64, pktBytes int, rtt netsim.Time) int {
	bdpBytes := bitsPerSec / 8 * float64(rtt) / 1e9
	slots := int(bdpBytes/float64(pktBytes)) + 1
	s := 1
	for s < slots {
		s *= 2
	}
	return s
}

// Result summarizes one tensor aggregation on the rack.
type Result struct {
	// Start is when the workers began sending.
	Start netsim.Time
	// Done[i] is when worker i finished receiving its aggregate.
	Done []netsim.Time
	// TAT is the tensor aggregation time of the slowest worker, the
	// paper's headline metric (§5.1).
	TAT netsim.Time
	// RTTs are sampled per-packet round-trip times on worker 0, when
	// Config.SampleRTT is set.
	RTTs []netsim.Time
	// Retransmissions is the total across workers.
	Retransmissions uint64
	// Failed lists the workers that did not survive the step: crashed
	// by the fault script or declared failed by the controller. Their
	// Done entries are zero and they are excluded from TAT.
	Failed []int
	// Left lists the workers that have gracefully departed the job so
	// far (elastic leave) — retired cleanly, not failed.
	Left []int
	// Detached lists the workers outside the membership this step
	// (never joined, or departed): not failed, not participating.
	Detached []int
}

// Rack is a simulated SwitchML deployment.
type Rack struct {
	cfg    Config
	sim    *netsim.Sim
	sw     *switchNode
	hosts  []*WorkerHost
	uplink []*netsim.Link
	// ctrl is the failure detector / recovery controller, nil unless
	// Config.Liveness is set.
	ctrl *controller
	// health is the switch health monitor / degradation controller,
	// nil unless Config.Health is set.
	health *healthMonitor
	// epoch is the current job generation; the controller bumps it on
	// every reconfiguration so stale packets are rejected by the
	// switch's JobID admission check.
	epoch uint16
	// step counts AllReduce calls, the anchor for step-relative fault
	// actions.
	step int
	// rejoin marks that a restarted worker is waiting to be re-admitted
	// at the next step boundary.
	rejoin bool
	// streamOff is the global stream offset consumed by completed
	// steps; an elastic joiner's worker cursor starts here so its
	// offsets agree with the incumbents'.
	streamOff uint64
	// pendingJoin/pendingLeave mark hosts whose graceful membership
	// change commits at the next step boundary; membershipDirty arms
	// the commit.
	pendingJoin, pendingLeave []bool
	membershipDirty           bool
	// left records gracefully departed workers, in departure order.
	left []int
	// faultErr records an unrecoverable error raised inside the
	// simulation loop (e.g. a resume frontier no worker can honor).
	faultErr error
	// sampler turns the registry into virtual-time series when
	// Config.SampleEvery is set; sampling guards the tick chain and
	// lastSample keeps timestamps strictly increasing across steps.
	sampler    *telemetry.Sampler
	sampling   bool
	lastSample int64
}

// NewRack builds the topology. Loss recovery defaults to on; callers
// running the Algorithm 1 ablation must set cfg.LossRecovery
// explicitly and keep cfg.LossRate zero.
func NewRack(cfg Config) (*Rack, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("rack: worker count must be positive, got %d", cfg.Workers)
	}
	if !cfg.LossRecovery && (cfg.LossRate > 0 || cfg.BurstLoss != nil || cfg.DupRate > 0 ||
		cfg.CorruptRate > 0 || cfg.Faults != nil) {
		return nil, fmt.Errorf("rack: loss injection requires loss recovery (Algorithm 3)")
	}
	if cfg.BurstLoss != nil {
		if _, err := netsim.NewGilbertElliott(*cfg.BurstLoss); err != nil {
			return nil, err
		}
	}
	if cfg.StandbySwitches < 0 {
		return nil, fmt.Errorf("rack: standby switch count must be non-negative, got %d", cfg.StandbySwitches)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(cfg.Workers); err != nil {
			return nil, err
		}
		for i, a := range cfg.Faults.Actions {
			if (a.Kind == faults.KillStandby || a.Kind == faults.ReviveStandby) &&
				a.Worker > cfg.StandbySwitches {
				return nil, fmt.Errorf("rack: action %d (%v) targets standby rank %d of %d",
					i, a.Kind, a.Worker, cfg.StandbySwitches)
			}
		}
	}
	cfg.fillDefaults()
	if cfg.SampleEvery > 0 && cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	for _, w := range cfg.Detached {
		if w < 0 || w >= cfg.Workers {
			return nil, fmt.Errorf("rack: detached worker %d out of range [0,%d)", w, cfg.Workers)
		}
	}
	if len(cfg.Detached) >= cfg.Workers {
		return nil, fmt.Errorf("rack: all %d workers detached; the job needs at least one member", cfg.Workers)
	}
	sim := netsim.NewSim(cfg.Seed)
	sim.SetTracer(cfg.Tracer)
	sw, err := newSwitchNode(sim, cfg)
	if err != nil {
		return nil, err
	}
	r := &Rack{
		cfg: cfg, sim: sim, sw: sw,
		pendingJoin:  make([]bool, cfg.Workers),
		pendingLeave: make([]bool, cfg.Workers),
	}
	for i := 0; i < cfg.Workers; i++ {
		h, err := NewWorkerHost(sim, cfg, uint16(i))
		if err != nil {
			return nil, err
		}
		rate := cfg.LinkBitsPerSec
		if i < len(cfg.WorkerLinkBitsPerSec) && cfg.WorkerLinkBitsPerSec[i] > 0 {
			rate = cfg.WorkerLinkBitsPerSec[i]
		}
		up := netsim.NewLink(sim, cfg.linkConfig(fmt.Sprintf("w%d->sw", i), rate), sw)
		down := netsim.NewLink(sim, cfg.linkConfig(fmt.Sprintf("sw->w%d", i), rate), h)
		up.SetRecycler(updateRecycler{})
		down.SetRecycler(sw)
		h.uplink = up
		h.release = sw.release
		h.onStall = func(w uint16) {
			r.fail(fmt.Errorf("rack: worker %d gave up after %d straight timeouts on one chunk: %w", w, stallLimit, ErrSwitchDown))
		}
		sw.downlinks = append(sw.downlinks, down)
		r.hosts = append(r.hosts, h)
		r.uplink = append(r.uplink, up)
	}
	if len(cfg.Detached) > 0 {
		for _, w := range cfg.Detached {
			r.hosts[w].detached = true
		}
		// The job's first membership: installed at generation 0, with
		// nothing to fence.
		if err := sw.sw.Reconfigure(r.members(live), r.epoch); err != nil {
			return nil, err
		}
	}
	if cfg.Liveness != nil {
		r.ctrl = newController(r, *cfg.Liveness)
		sw.seen = func(w int) { r.ctrl.tracker.Touch(w, int64(sim.Now())) }
	}
	if cfg.Health != nil {
		r.health = newHealthMonitor(r, *cfg.Health)
		if cfg.StartDegraded {
			r.health.setMode(modeDegraded)
		}
	}
	if cfg.SampleEvery > 0 {
		r.sampler = telemetry.NewSampler(cfg.Metrics, telemetry.SamplerConfig{})
		r.sampler.AddProbe("rack_pool_occupancy", func() float64 {
			return r.homeSwitch().PoolState(false).Occupancy
		})
		r.lastSample = -1
	}
	if cfg.Faults != nil {
		for _, a := range cfg.Faults.Absolute() {
			sim.At(a.At, func() { r.apply(a) })
		}
	}
	return r, nil
}

// linkConfig assembles one access link's configuration. Each call
// builds a fresh burst-loss chain when burst loss is on: the chain is
// stateful and must be exclusive to its link.
func (c *Config) linkConfig(name string, rate float64) netsim.LinkConfig {
	lc := netsim.LinkConfig{
		Name:        name,
		BitsPerSec:  rate,
		Propagation: c.Propagation,
		LossRate:    c.LossRate,
		DupRate:     c.DupRate,
		CorruptRate: c.CorruptRate,
	}
	if c.BurstLoss != nil {
		// Validated by NewRack; construction cannot fail here.
		ge, err := netsim.NewGilbertElliott(*c.BurstLoss)
		if err == nil {
			lc.Loss = ge
			lc.LossRate = 0
		}
	}
	return lc
}

// Config returns the rack's effective configuration (defaults
// filled).
func (r *Rack) Config() Config { return r.cfg }

// Sim exposes the underlying simulation, e.g. for custom experiment
// scheduling.
func (r *Rack) Sim() *netsim.Sim { return r.sim }

// Switch exposes the primary switch state machine for statistics.
func (r *Rack) Switch() *core.Switch { return r.sw.sw }

// Standby exposes warm-standby rung i (1-based) for statistics.
func (r *Rack) Standby(i int) *core.Switch { return r.sw.standbys[i-1] }

// HomeRank reports the failover-ladder rung currently serving the
// job: 0 is the primary switch, higher ranks are warm standbys. While
// degraded to the host mesh it reports the last switch rung the job
// was homed on.
func (r *Rack) HomeRank() int { return r.sw.home }

// homeSwitch returns the aggregation program currently serving the
// job — the primary, or the standby rung the health monitor re-homed
// to. Every membership reconfiguration must target it: fencing a
// generation into a rung the job does not live on would leave the
// serving pool admitting stale traffic.
func (r *Rack) homeSwitch() *core.Switch { return r.sw.prog(r.sw.home) }

// Hosts returns per-worker protocol statistics.
func (r *Rack) WorkerStats(i int) core.WorkerStats { return r.hosts[i].worker.Stats() }

// AllReduceShared aggregates one tensor whose contents are identical
// on every worker (sharing the backing array to keep memory flat in
// large experiments) and runs the simulation to completion.
func (r *Rack) AllReduceShared(u []int32) (Result, error) {
	us := make([][]int32, r.cfg.Workers)
	for i := range us {
		us[i] = u
	}
	return r.AllReduce(us)
}

// AllReduce aggregates one tensor (updates[i] is worker i's
// contribution) and runs the simulation until every worker holds the
// aggregate. Workers start synchronously at the current virtual
// time, as after a barrier.
func (r *Rack) AllReduce(updates [][]int32) (Result, error) {
	if len(updates) != r.cfg.Workers {
		return Result{}, fmt.Errorf("rack: got %d updates for %d workers", len(updates), r.cfg.Workers)
	}
	r.step++
	if r.rejoin {
		r.restartJob()
	}
	// Graceful membership changes commit at the step boundary: no
	// tensor is in flight, so the generation bump and pool wipe can
	// never tear an aggregate.
	r.commitMembership()
	if r.health != nil {
		// Step boundaries are the natural barrier for returning to the
		// switch: no tensor is in flight.
		r.health.maybeFailback()
	}
	if r.cfg.Faults != nil {
		now := r.sim.Now()
		for _, a := range r.cfg.Faults.ForStep(r.step) {
			r.sim.At(now+a.At, func() { r.apply(a) })
		}
	}
	res := Result{
		Start: r.sim.Now(),
		Done:  make([]netsim.Time, r.cfg.Workers),
	}
	started := make([]bool, r.cfg.Workers)
	hosted := r.Degraded()
	for i, h := range r.hosts {
		if r.skip(i) {
			continue
		}
		started[i] = true
		done := func(t netsim.Time) { res.Done[i] = t }
		if hosted {
			h.startHosted(updates[i], done)
			continue
		}
		h.Start(updates[i], done)
		if r.ctrl != nil {
			r.ctrl.tracker.Touch(i, int64(r.sim.Now()))
		}
	}
	switch {
	case hosted:
		r.health.stepHosted(updates)
	case r.health != nil:
		r.health.watch()
	}
	if r.ctrl != nil {
		r.ctrl.begin()
	}
	r.startSampling()
	r.sim.Run()
	if r.faultErr != nil {
		return Result{}, r.faultErr
	}
	unfinished := 0
	tensorLen := 0
	for i, h := range r.hosts {
		if h.detached {
			// Outside the membership by choice (never joined, or
			// gracefully departed): not a failure.
			res.Detached = append(res.Detached, i)
			continue
		}
		if !started[i] || h.crashed || r.dead(i) {
			res.Failed = append(res.Failed, i)
			continue
		}
		if !h.finished {
			unfinished++
			continue
		}
		tensorLen = len(updates[i])
		if d := res.Done[i] - res.Start; d > res.TAT {
			res.TAT = d
		}
		res.Retransmissions += h.worker.Stats().Retransmissions
		if r.cfg.SampleRTT && i == 0 {
			res.RTTs = h.rtts
			h.rtts = nil
		}
	}
	res.Left = append([]int(nil), r.left...)
	if unfinished > 0 {
		if r.sw.down {
			return Result{}, fmt.Errorf("rack: simulation drained with %d workers unfinished: %w", unfinished, ErrSwitchDown)
		}
		return Result{}, fmt.Errorf("rack: simulation drained with %d workers unfinished", unfinished)
	}
	// The stream advanced by one tensor on every member; an elastic
	// joiner admitted at the next boundary starts its cursor here.
	r.streamOff += uint64(tensorLen)
	return res, nil
}

// dead reports whether the controller has declared worker i failed.
func (r *Rack) dead(i int) bool {
	return r.ctrl != nil && r.ctrl.tracker.Dead(i)
}

// skip reports whether worker i takes no part in the current step:
// crashed, declared failed, or outside the membership (detached).
func (r *Rack) skip(i int) bool {
	return r.hosts[i].crashed || r.hosts[i].detached || r.dead(i)
}

// Left returns the workers that have gracefully departed so far, in
// departure order.
func (r *Rack) Left() []int { return append([]int(nil), r.left...) }

// Member reports whether worker i is currently inside the job
// membership (not detached, not crashed, not declared failed).
func (r *Rack) Member(i int) bool {
	return i >= 0 && i < len(r.hosts) && !r.skip(i)
}

// Aggregate returns worker i's aggregation output buffer.
func (r *Rack) Aggregate(i int) []int32 { return r.hosts[i].worker.Aggregate() }

// Counters assembles a protocol-counter snapshot across every
// component of the rack: link traffic, worker protocol counters, and
// switch counters. Bench runners attach it to experiment results so
// trajectories carry protocol behaviour alongside timing.
func (r *Rack) Counters() map[string]uint64 {
	m := make(map[string]uint64)
	for _, l := range r.linksOf(-1) {
		st := l.Stats()
		m["packets_sent"] += st.Sent
		m["packets_delivered"] += st.Delivered
		m["packets_dropped"] += st.Dropped
		m["wire_bytes"] += st.Bytes
	}
	for _, h := range r.hosts {
		st := h.worker.Stats()
		m["worker_sent"] += st.Sent
		m["worker_retransmissions"] += st.Retransmissions
		m["worker_results"] += st.Results
		m["worker_stale_results"] += st.StaleResults
	}
	st := r.sw.sw.Stats()
	m["switch_updates"] = st.Updates
	m["switch_completions"] = st.Completions
	m["switch_ignored_duplicates"] = st.IgnoredDuplicates
	m["switch_shadow_reads"] = st.ResultRetransmissions
	m["switch_stale_updates"] = st.StaleUpdates
	if h := r.health; h != nil {
		m["health_degrades"] = h.degrades
		m["health_failbacks"] = h.failbacks
		m["health_probes"] = h.probes
		m["health_probe_acks"] = h.probeAcks
		m["host_aggregated_elems"] = h.hostElems
		m["failover_rehomes"] = h.rehomes
	}
	for _, sb := range r.sw.standbys {
		st := sb.Stats()
		m["standby_updates"] += st.Updates
		m["standby_completions"] += st.Completions
	}
	return m
}

// Packet ownership in the rack. Every packet on the data path is
// pooled, and exactly one party owns it at any time:
//
//   - An update is born in core.Worker (packet.GetPacket) and owned by
//     its host until uplink.Send, then by the link, then — on delivery
//     — by the switch, which consumes it inside Deliver and returns it
//     with packet.PutPacket. A host that cannot send (it crashed while
//     the packet waited for its core) returns it itself.
//   - A result is a frame from the switch's free list. The switch
//     counts one reference per downlink it sends the frame on; each
//     delivery hands one reference to a host, which reads the packet
//     (never writes it) when its core gets to it and then gives the
//     reference back through release — at once if the host is crashed.
//     The frame returns to the free list with its last reference.
//   - A link that loses a packet gives it back through its Recycler
//     (Dropped); a link that duplicates one asks the Recycler for the
//     second delivery's packet (Duplicate): a pooled copy of an update,
//     one more reference on a frame.
//
// Control packets (probes and their acks) are plain allocations: a
// probe is consumed like an update, an ack is left to the collector.
// internal/hier drives WorkerHost over links with no Recycler and with
// plain packets; there nothing is pooled on the receive side and every
// release is a no-op.

// frame is a switch-originated result packet in flight to one or more
// hosts.
type frame struct {
	pkt packet.Packet
	// refs counts the deliveries (or drops) still owed.
	refs int
}

// WireSize implements netsim.Message.
func (f *frame) WireSize() int { return f.pkt.WireSize() }

// updateRecycler keeps the books for pooled packets on an uplink.
type updateRecycler struct{}

// Dropped returns a lost update (or probe) to the packet pool.
func (updateRecycler) Dropped(msg netsim.Message) {
	if p, ok := msg.(*packet.Packet); ok {
		packet.PutPacket(p)
	}
}

// Duplicate gives the second delivery its own pooled copy: the switch
// returns every packet it is delivered.
func (updateRecycler) Duplicate(msg netsim.Message) netsim.Message {
	p, ok := msg.(*packet.Packet)
	if !ok {
		return msg
	}
	q := packet.GetPacket()
	vec := append(q.Vector, p.Vector...)
	*q = *p
	q.Vector = vec
	return q
}

// egress is one response waiting out the switch's pipeline latency.
type egress struct {
	f         *frame
	multicast bool
}

// switchNode adapts core.Switch to netsim. It hosts the whole
// aggregation ladder behind one crossbar: the primary program (rung 0)
// plus Config.StandbySwitches warm standbys, any of which can be
// killed and revived independently. Update traffic is served by the
// rung the health monitor currently homes the job on; stale packets
// fenced out by the generation bump are rejected by the rung's JobID
// admission check.
type switchNode struct {
	sim       *netsim.Sim
	cfg       Config
	sw        *core.Switch
	downlinks []*netsim.Link
	// pipeline holds responses between ingress and egress. The latency
	// is constant per home rung, so responses leave in arrival order.
	pipeline *netsim.Queue[egress]
	// out is the frame the next response is built into; frames is the
	// free list it is refilled from.
	out    *frame
	frames []*frame
	// standbys are the warm-standby aggregation programs, rungs
	// 1..len(standbys) of the failover ladder; sbDown marks the killed
	// ones (faults.KillStandby).
	standbys []*core.Switch
	sbDown   []bool
	// home is the rung currently serving update traffic; the health
	// monitor moves it. While degraded to the mesh it is the last rung
	// the job lived on.
	home int
	// seen, when set, observes the worker id of every arriving packet;
	// the failure detector feeds its liveness tracker with it.
	seen func(worker int)
	// down marks a failed primary aggregation program
	// (faults.KillSwitch): update packets are blackholed and probes go
	// unanswered, but the crossbar keeps forwarding host-to-host
	// traffic.
	down bool
	// peerDst, when set by the health monitor, maps a fallback ring
	// rank to its host's downlink for crossbar forwarding.
	peerDst func(rank int) *netsim.Link
}

func newSwitchNode(sim *netsim.Sim, cfg Config) (*switchNode, error) {
	scfg := core.SwitchConfig{
		Workers:      cfg.Workers,
		PoolSize:     cfg.PoolSize,
		SlotElems:    cfg.SlotElems,
		LossRecovery: cfg.LossRecovery,
		Quorum:       cfg.Quorum,
		LatePolicy:   cfg.LatePolicy,
		Metrics:      cfg.Metrics,
		Tracer:       cfg.Tracer,
		Now:          func() int64 { return int64(sim.Now()) },
	}
	sw, err := core.NewSwitch(scfg)
	if err != nil {
		return nil, err
	}
	n := &switchNode{sim: sim, cfg: cfg, sw: sw}
	n.pipeline = netsim.NewQueue(sim, n.emit)
	for i := 0; i < cfg.StandbySwitches; i++ {
		// Standbys share the registry-backed counters with the primary
		// via name, which would double-count; they report through
		// Rack.Counters' standby_* keys instead.
		sbcfg := scfg
		sbcfg.Metrics = nil
		sb, err := core.NewSwitch(sbcfg)
		if err != nil {
			return nil, err
		}
		n.standbys = append(n.standbys, sb)
	}
	n.sbDown = make([]bool, cfg.StandbySwitches)
	return n, nil
}

// prog returns the ladder rung's aggregation program (0 = primary).
func (s *switchNode) prog(rank int) *core.Switch {
	if rank == 0 {
		return s.sw
	}
	return s.standbys[rank-1]
}

// progDown reports whether a rung's aggregation program is killed.
func (s *switchNode) progDown(rank int) bool {
	if rank == 0 {
		return s.down
	}
	return s.sbDown[rank-1]
}

// rungs is the ladder height: the primary plus every standby.
func (s *switchNode) rungs() int { return 1 + len(s.standbys) }

// newFrame takes a frame off the free list.
func (s *switchNode) newFrame() *frame {
	if n := len(s.frames); n > 0 {
		f := s.frames[n-1]
		s.frames = s.frames[:n-1]
		return f
	}
	//switchml:allow hotpath -- free-list miss: the list grows to the peak number of results in flight and is then reused
	return &frame{pkt: packet.Packet{Vector: make([]int32, 0, s.cfg.SlotElems)}}
}

// release gives back one reference to a frame; the last one returns
// it to the free list.
//
//switchml:hotpath
func (s *switchNode) release(f *frame) {
	if f.refs--; f.refs == 0 {
		//switchml:allow hotpath -- free-list growth is bounded by the peak number of results in flight
		s.frames = append(s.frames, f)
	}
}

// Dropped implements netsim.Recycler for the downlinks.
func (s *switchNode) Dropped(msg netsim.Message) {
	if f, ok := msg.(*frame); ok {
		s.release(f)
	}
}

// Duplicate implements netsim.Recycler for the downlinks: the second
// delivery shares the read-only frame under one more reference.
func (s *switchNode) Duplicate(msg netsim.Message) netsim.Message {
	if f, ok := msg.(*frame); ok {
		f.refs++
	}
	return msg
}

// Deliver processes an update at line rate and emits responses after
// the pipeline latency. The traffic manager duplicates multicast
// results onto every port (Appendix B). Host-to-host fallback bursts
// are forwarded by the crossbar even while the aggregation program is
// down — the failure mode the degradation controller exploits.
//
//switchml:hotpath
func (s *switchNode) Deliver(msg netsim.Message) {
	if pm, ok := msg.(allreduce.PeerMsg); ok {
		s.forwardPeer(pm)
		return
	}
	p := msg.(*packet.Packet)
	if s.seen != nil {
		s.seen(int(p.WorkerID))
	}
	if p.Kind == packet.KindProbe {
		s.answerProbe(p)
		packet.PutPacket(p)
		return
	}
	home := s.home
	if s.progDown(home) {
		packet.PutPacket(p)
		return
	}
	if s.out == nil {
		s.out = s.newFrame()
	}
	resp := s.prog(home).HandleInto(p, &s.out.pkt)
	packet.PutPacket(p)
	if resp.Pkt == nil {
		return
	}
	delay := s.cfg.SwitchLatency
	if home != 0 {
		// The detour through the standby rung: extra hops on the way
		// in and on the way back out.
		delay += 2 * s.cfg.StandbyLatency
	}
	s.pipeline.Push(s.sim.Now()+delay, egress{f: s.out, multicast: resp.Multicast})
	s.out = nil
}

// forwardPeer passes a host-to-host fallback ring burst through the
// crossbar.
//
//switchml:allow hotpath -- degraded-mode forwarding of host-ring bursts, not the aggregation data path: one closure per burst through the general At API
func (s *switchNode) forwardPeer(pm allreduce.PeerMsg) {
	if s.peerDst == nil {
		return
	}
	dl := s.peerDst(pm.PeerDst())
	if dl == nil {
		return
	}
	s.sim.After(s.cfg.SwitchLatency, func() { dl.Send(pm) })
}

// answerProbe echoes a health probe. Probes target the primary: they
// are the fail-up ladder's evidence that rung 0 is worth returning to.
//
//switchml:allow hotpath -- health-probe answer: control plane, a few packets per probe period, allocated and scheduled through the general At API
func (s *switchNode) answerProbe(p *packet.Packet) {
	if s.down {
		return // a dead aggregation program answers nothing
	}
	ack := packet.NewControl(packet.KindProbeAck, p.WorkerID, p.JobID, 0, nil)
	ack.Idx = p.Idx
	s.sim.After(s.cfg.SwitchLatency, func() { s.downlinks[ack.WorkerID].Send(ack) })
}

// emit puts a response on the wire once it has crossed the pipeline;
// it is the pipeline queue's callback.
//
//switchml:hotpath
func (s *switchNode) emit(e egress) {
	if !e.multicast {
		e.f.refs = 1
		s.downlinks[e.f.pkt.WorkerID].Send(e.f)
		return
	}
	e.f.refs = len(s.downlinks)
	for _, dl := range s.downlinks {
		dl.Send(e.f)
	}
}

// WorkerHost adapts core.Worker to netsim: it owns the uplink, the
// loss-recovery machine and its alarm, and the multi-core processing
// model.
type WorkerHost struct {
	sim    *netsim.Sim
	cfg    Config
	worker *core.Worker
	// pump is the worker's loss recovery, Algorithm 4's timeout alone.
	// alarm wakes the host for the soonest timeout, under the tie-break
	// its packet drew as it went out (tie, per slot): timeouts due in one
	// nanosecond fire in the order their packets left, on every host.
	// due holds the expired slots, for the alarm to act on one a firing.
	pump   *core.Pump
	alarm  netsim.Alarm
	tie    []uint64
	due    []uint32
	uplink *netsim.Link
	// coreFree[c] is when virtual core c next becomes idle. Slots are
	// sharded to cores by idx % Cores, mirroring Flow Director
	// steering with disjoint slot sets per core (Appendix B).
	coreFree []netsim.Time
	// cores[c] is virtual core c's run queue: the packets it has been
	// charged for, each due when its processing completes. coreFree is
	// monotone, so a core's work completes in the order it was queued.
	cores []*netsim.Queue[work]
	// actor names the host in trace events.
	actor string
	rtts  []netsim.Time
	// rttHist receives every clean RTT sample when Config.Metrics is
	// set, shared by all hosts in the rack.
	rttHist *telemetry.Histogram
	onDone  func(netsim.Time)
	// wcfg is kept so a restart can rebuild a fresh protocol state
	// machine (the crashed process lost its memory).
	wcfg core.WorkerConfig
	// crashed silences the host entirely: no sends, receives or timer
	// callbacks, as a process crash or machine failure would.
	crashed bool
	// detached marks a host outside the job membership: healthy but
	// not participating (waiting to join, or gracefully departed).
	detached bool
	// draining marks a host that announced a graceful leave and is
	// finishing its current step before departing at the boundary.
	draining bool
	// finished marks that the current tensor's aggregate is complete on
	// this host; a recovery resume can clear it again.
	finished bool
	// stall counts consecutive timeouts per slot with no progress; with
	// NoFallback, a slot that exceeds stallLimit abandons the step and
	// raises the typed switch-unavailable error instead of
	// retransmitting forever into a dead switch.
	stall []uint8
	// observe/probeAck/peerRecv are the health monitor's taps on the
	// receive path: switch-path life, probe answers and fallback ring
	// bursts. Nil when health monitoring is off.
	observe  func()
	probeAck func(*packet.Packet)
	peerRecv func(allreduce.PeerMsg)
	// onStall reports a NoFallback stall to the rack.
	onStall func(worker uint16)
	// release gives back the host's reference to a result frame once
	// it has been read; nil when results are not pooled (internal/hier).
	release func(*frame)
}

// work is one packet's worth of processing queued on a host core.
type work struct {
	op workOp
	// idx is the slot, for opRetransmit.
	idx uint32
	// p is the update to transmit (opTransmit) or the result to absorb
	// (opResult); f is the pooled frame p lives in, if any.
	p *packet.Packet
	f *frame
}

type workOp uint8

const (
	// opTransmit sends a freshly built update (initial window, resume).
	opTransmit workOp = iota
	// opResult absorbs a result delivered by the switch.
	opResult
	// opRetransmit rebuilds and re-sends a timed-out slot's update.
	opRetransmit
)

// stallLimit is the consecutive-timeout budget per slot under
// NoFallback. Reaching it with exponential backoff means the switch
// answered nothing for over a hundred RTOs on one chunk: loss cannot
// plausibly explain it, only a dead switch can.
const stallLimit = 8

func NewWorkerHost(sim *netsim.Sim, cfg Config, id uint16) (*WorkerHost, error) {
	cfg.fillDefaults()
	wcfg := core.WorkerConfig{
		ID:           id,
		Workers:      cfg.Workers,
		PoolSize:     cfg.PoolSize,
		SlotElems:    cfg.SlotElems,
		LossRecovery: cfg.LossRecovery,
		Metrics:      cfg.Metrics,
	}
	w, err := core.NewWorker(wcfg)
	if err != nil {
		return nil, err
	}
	h := &WorkerHost{
		sim:      sim,
		cfg:      cfg,
		worker:   w,
		pump:     newPump(w, cfg),
		due:      make([]uint32, 0, cfg.PoolSize),
		tie:      make([]uint64, cfg.PoolSize),
		wcfg:     wcfg,
		coreFree: make([]netsim.Time, cfg.Cores),
		cores:    make([]*netsim.Queue[work], cfg.Cores),
		actor:    fmt.Sprintf("w%d", id),
		stall:    make([]uint8, cfg.PoolSize),
	}
	h.alarm = sim.NewAlarm(h.expire)
	for c := range h.cores {
		h.cores[c] = netsim.NewQueue(sim, h.run)
	}
	if cfg.Metrics != nil {
		h.rttHist = cfg.Metrics.Histogram("rack_rtt_ns", telemetry.LatencyBuckets)
	}
	return h, nil
}

// newPump returns w's loss recovery, with the ladder off.
func newPump(w *core.Worker, cfg Config) *core.Pump {
	return core.NewPump(w, int64(cfg.RTO), cfg.AdaptiveRTO, false)
}

// trace emits a host-level event for slot idx (-1 when not
// slot-specific), stamped with the current virtual time.
func (h *WorkerHost) trace(t telemetry.EventType, idx int32, off int64) {
	if h.cfg.Tracer == nil {
		return
	}
	e := telemetry.Ev(t, int64(h.sim.Now()))
	e.Actor = h.actor
	e.Worker = int32(h.wcfg.ID)
	e.Slot = idx
	e.Off = off
	h.cfg.Tracer.Emit(e)
}

// open begins a tensor of n elements whose completion onDone reports;
// complete is its other end.
func (h *WorkerHost) open(n int, onDone func(netsim.Time)) {
	h.onDone = onDone
	h.finished = false
	if h.cfg.Tracer != nil {
		e := telemetry.Ev(telemetry.EvTensorStart, int64(h.sim.Now()))
		e.Actor = h.actor
		e.Worker = int32(h.wcfg.ID)
		e.Size = int32(4 * n)
		h.cfg.Tracer.Emit(e)
	}
	if n == 0 {
		// An empty tensor completes at once, but from inside the event
		// loop like every other completion.
		t := h.sim.Now()
		h.sim.At(t, func() { h.complete(t) })
	}
}

// core returns the virtual core owning a slot.
func (h *WorkerHost) coreOf(idx uint32) int { return int(idx) % h.cfg.Cores }

// charge occupies slot idx's core for one packet's processing and
// queues w to run when it completes.
func (h *WorkerHost) charge(idx uint32, w work) {
	c := h.coreOf(idx)
	start := h.coreFree[c]
	if now := h.sim.Now(); start < now {
		start = now
	}
	done := start + h.cfg.PerPacketCost
	h.coreFree[c] = done
	h.cores[c].Push(done, w)
}

// run is the core queues' callback: the core has finished processing
// the packet behind w.
//
//switchml:hotpath
func (h *WorkerHost) run(w work) {
	switch w.op {
	case opTransmit:
		h.transmit(w.p, false)
		h.arm()
	case opResult:
		h.absorb(w.p)
		if w.f != nil {
			h.release(w.f)
		}
	case opRetransmit:
		// Build the retransmission at transmit time, not at timer-fire
		// time: the slot's core may still hold an unprocessed result
		// that advances the slot before the CPU frees up, and a stale
		// snapshot would then reach the wire *after* the next-phase
		// update, violating the FIFO ordering the protocol relies on.
		if rt := h.worker.Retransmit(w.idx); rt != nil {
			h.transmit(rt, true)
			h.arm()
		}
	}
}

// SetUplink attaches the host's transmit link; it must be called
// before Start.
func (h *WorkerHost) SetUplink(l *netsim.Link) { h.uplink = l }

// Worker exposes the protocol state machine for statistics and
// result access.
func (h *WorkerHost) Worker() *core.Worker { return h.worker }

// Start begins aggregating u; onDone fires when the aggregate is
// complete on this worker.
func (h *WorkerHost) Start(u []int32, onDone func(netsim.Time)) {
	h.open(len(u), onDone)
	h.launch(h.worker.Start(u))
}

// launch queues a window the Worker has just decided on the cores,
// stamping each packet now and again when its core transmits it, so
// none is read as overdue by its slot's previous stamp meanwhile.
func (h *WorkerHost) launch(pkts []*packet.Packet) {
	now := int64(h.sim.Now())
	for _, p := range pkts {
		h.pump.Sent(p.Idx, now)
		h.charge(p.Idx, work{op: opTransmit, p: p})
	}
}

// complete marks the tensor's aggregate complete on this host at t and
// reports it to the step.
func (h *WorkerHost) complete(t netsim.Time) {
	h.finished = true
	h.trace(telemetry.EvTensorDone, -1, -1)
	if h.onDone != nil {
		h.onDone(t)
	}
}

// transmit stamps an update and puts it on the uplink, which takes the
// packet over; a crashed host returns it to the pool instead. The
// caller re-arms the alarm.
//
//switchml:hotpath
func (h *WorkerHost) transmit(p *packet.Packet, retransmit bool) {
	if h.crashed {
		packet.PutPacket(p)
		return
	}
	if retransmit {
		h.trace(telemetry.EvRetransmit, int32(p.Idx), int64(p.Off))
	}
	h.pump.Sent(p.Idx, int64(h.sim.Now()))
	h.uplink.Send(p)
	h.tie[p.Idx] = h.sim.Draw()
}

// arm sets the alarm for the next expired slot, at once, or else the
// pump's soonest timeout, and stops it with nothing in flight. A
// crashed host arms nothing.
//
//switchml:hotpath
func (h *WorkerHost) arm() {
	if h.crashed {
		return
	}
	if len(h.due) > 0 {
		h.alarm.Set(h.sim.Now(), h.tie[h.due[0]])
		return
	}
	at, idx := h.pump.NextTimeout()
	if at == math.MaxInt64 {
		h.alarm.Stop()
		return
	}
	h.alarm.Set(max(netsim.Time(at), h.sim.Now()), h.tie[idx])
}

// poll queues the slots whose timeouts the pump finds expired, and
// publishes the round trip it sampled from a clean result just
// absorbed. The alarm calls it with nothing queued, and a result where
// the round trip is read.
//
//switchml:hotpath
func (h *WorkerHost) poll() {
	h.due = h.pump.Due(int64(h.sim.Now()), h.due)
	if rtt := netsim.Time(h.pump.Sample()); rtt != 0 {
		if h.rttHist != nil {
			h.rttHist.Observe(float64(rtt))
		}
		if h.cfg.SampleRTT && h.wcfg.ID == 0 {
			//switchml:allow hotpath -- opt-in RTT sampling (Figure 2) collects every sample by design
			h.rtts = append(h.rtts, rtt)
		}
	}
}

// expire is the alarm: it charges the next expired slot's core with
// its retransmission (Algorithm 4 lines 20-23). With NoFallback, a slot
// that times out stallLimit times in a row abandons the step.
//
//switchml:hotpath
func (h *WorkerHost) expire() {
	if len(h.due) == 0 {
		h.poll()
	}
	idx := h.due[0]
	h.due = h.due[:copy(h.due, h.due[1:])]
	h.trace(telemetry.EvTimeoutFired, int32(idx), -1)
	if h.cfg.NoFallback {
		if h.stall[idx]++; h.stall[idx] >= stallLimit {
			// Fallback was declined; abandon the step so the
			// simulation drains and the caller gets the typed error.
			h.cancelTimers()
			if h.onStall != nil {
				h.onStall(h.wcfg.ID)
			}
			return
		}
	}
	h.charge(idx, work{op: opRetransmit, idx: idx})
	h.arm()
}

// startHosted begins aggregating u in degraded mode: the tensor opens
// in the protocol state machine (preserving stream offsets for a later
// failback) but no packets go out — the health monitor's ring computes
// the sum and installs it via InstallHostAggregate. An empty tensor
// completes immediately, as on the switch path.
func (h *WorkerHost) startHosted(u []int32, onDone func(netsim.Time)) {
	h.open(len(u), onDone)
	h.worker.StartHosted(u)
}

// cancelTimers stops the retransmission alarm and clears the stall
// counts: the host's one reset, for a switch path being abandoned
// (degrade, stall give-up, crash) or rebuilt (resume, restart).
func (h *WorkerHost) cancelTimers() {
	h.alarm.Stop()
	h.due = h.due[:0]
	clear(h.stall)
}

// Deliver receives a result packet from the switch, a probe answer, or
// a fallback ring burst forwarded by the crossbar. A result in a
// pooled frame arrives with one reference, which the host holds until
// its core has read the packet.
//
//switchml:hotpath
func (h *WorkerHost) Deliver(msg netsim.Message) {
	var p *packet.Packet
	var f *frame
	switch m := msg.(type) {
	case *frame:
		p, f = &m.pkt, m
	case *packet.Packet:
		p = m
	case allreduce.PeerMsg:
		if !h.crashed && h.peerRecv != nil {
			h.peerRecv(m)
		}
		return
	}
	if h.crashed {
		if f != nil {
			h.release(f)
		}
		return
	}
	if p.Kind == packet.KindProbeAck {
		if h.probeAck != nil {
			h.probeAck(p)
		}
		return
	}
	if h.observe != nil {
		h.observe()
	}
	h.charge(p.Idx, work{op: opResult, p: p, f: f})
}

// absorb feeds a result to the protocol state machine once the slot's
// core has processed it, and sends the follow-up it unlocks.
func (h *WorkerHost) absorb(p *packet.Packet) {
	if h.crashed {
		return
	}
	idx := p.Idx
	next, finished := h.pump.HandleResult(p, int64(h.sim.Now()))
	if next != nil || finished || !h.worker.Pending(idx) {
		// The result moved the slot on: its stall budget starts over.
		h.stall[idx] = 0
	}
	if next != nil {
		// Self-clocked follow-up (Algorithm 4 line 17); the CPU
		// charge for the receive covers the run-to-completion
		// send.
		h.transmit(next, false)
	}
	if h.cfg.AdaptiveRTO || h.rttHist != nil || (h.cfg.SampleRTT && h.wcfg.ID == 0) {
		// Due folds the result's round trip into the estimate and
		// samples; a timeout it would find is the alarm's either way.
		h.poll()
	}
	h.arm()
	if finished {
		h.complete(h.sim.Now())
	}
}
