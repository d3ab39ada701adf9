// Fault injection and failure recovery for the simulated rack: the
// scripted actions of internal/faults are applied to hosts, links and
// the switch at their trigger times, and a failure controller —
// playing the role of the machine-learning framework's coordinator in
// §5.6 — detects silent workers, shrinks the membership under a new
// job generation, and resumes every survivor from the global progress
// frontier.
package rack

import (
	"switchml/internal/core"
	"switchml/internal/faults"
	"switchml/internal/netsim"
	"switchml/internal/telemetry"
)

// LivenessConfig tunes the failure detector (§5.6: worker failures
// "are detected via timeouts").
type LivenessConfig struct {
	// SilenceAfter is how long a worker may stay silent — while at
	// least one peer keeps making progress — before the controller
	// declares it failed; zero selects 16×RTO. Values below the
	// maximum retransmission backoff (64×RTO) trade detection speed
	// against the risk of retiring a merely unlucky worker.
	SilenceAfter netsim.Time
	// CheckEvery is the detector's sweep period; zero selects
	// SilenceAfter/4. Detection latency is at most
	// SilenceAfter + CheckEvery past the last packet of the failed
	// worker.
	CheckEvery netsim.Time
}

func (c *LivenessConfig) fillDefaults(rto netsim.Time) {
	if c.SilenceAfter == 0 {
		c.SilenceAfter = 16 * rto
	}
	if c.CheckEvery == 0 {
		c.CheckEvery = c.SilenceAfter / 4
	}
}

// controller is the failure detector and recovery coordinator.
type controller struct {
	r       *Rack
	cfg     LivenessConfig
	tracker *faults.Tracker
	// sweeping guards against arming a second sweep chain.
	sweeping bool
}

func newController(r *Rack, cfg LivenessConfig) *controller {
	return &controller{
		r:       r,
		cfg:     cfg,
		tracker: faults.NewTracker(r.cfg.Workers, int64(cfg.SilenceAfter)),
	}
}

// begin arms the periodic sweep at the start of a step; the chain
// stops re-arming once every live worker is done, so the simulation
// can drain.
func (c *controller) begin() {
	if c.sweeping {
		return
	}
	c.sweeping = true
	c.arm()
}

func (c *controller) arm() { c.r.sim.After(c.cfg.CheckEvery, c.sweep) }

// sweep is one detector pass: workers silent past the threshold while
// a peer made progress are declared failed, and any verdict triggers
// recovery.
func (c *controller) sweep() {
	r := c.r
	if r.allLiveDone() || r.faultErr != nil {
		c.sweeping = false
		return
	}
	verdict := false
	for _, w := range c.tracker.Suspects(int64(r.sim.Now())) {
		if c.tracker.AliveCount() <= 1 {
			break // never retire the last worker
		}
		c.tracker.MarkDead(w)
		r.traceCtrl(telemetry.EvFailureDetected, "controller", int32(w), -1, -1)
		verdict = true
	}
	if verdict {
		c.recover()
	}
	c.arm()
}

// recover is the §5.6 recovery sequence: retire failed workers from
// the switch membership under a new job generation (wiping the pool,
// so no slot can ever mix contributions across generations), then
// restart every survivor from the global progress frontier — the
// minimum over survivors of their first missing chunk. Every chunk at
// or past the frontier is re-aggregated by everyone, so all survivors
// walk identical slot schedules again and converge to
// bitwise-identical aggregates.
func (c *controller) recover() {
	r := c.r
	if !r.install(r.sw.home, undeclared) {
		return
	}
	r.traceCtrl(telemetry.EvReconfigure, "controller", -1, -1, int64(r.epoch))
	at := atFrontier
	if r.allLiveDone() {
		// Nothing in flight: just install the new generation and reset
		// the pool versions to match the wiped switch.
		at = atBoundary
	}
	r.release(at, nil)
}

// A fence is install then release: the rack's one generation change.
// Its member rule says whom the new generation's pool waits for, its
// release point where the members resume; DESIGN.md "The simulator's
// fences" tabulates both for every fence.
type (
	memberRule   uint8
	releasePoint uint8
)

const (
	// undeclared keeps a crashed host in the membership until the
	// failure detector declares it: recovery fences exactly the
	// verdicts the detector has reached, and the next sweep finds a
	// crash it has not.
	undeclared memberRule = iota
	// live admits only hosts that can answer now: not crashed, not
	// detached, not declared failed.
	live
)

const (
	atFrontier   releasePoint = iota // a tensor is in flight: re-open it at r.frontier()
	atBoundary                       // nothing in flight: keep the cursors, reset the pool versions
	atCheckpoint                     // the job restarts: fresh protocol state machines
)

// members is the membership vector a fence installs.
func (r *Rack) members(rule memberRule) []bool {
	active := make([]bool, r.cfg.Workers)
	for i, h := range r.hosts {
		active[i] = !h.detached && !r.dead(i) && (rule == undeclared || !h.crashed)
	}
	return active
}

// install bumps the job generation and fences the membership into the
// pool of rung (the home switch, a standby or the primary), wiping it,
// so nothing aggregated under an older generation can mix with what
// follows. A refusal is recorded as the run's fault and reported as
// false.
func (r *Rack) install(rung int, rule memberRule) bool {
	r.epoch++
	if err := r.sw.prog(rung).Reconfigure(r.members(rule), r.epoch); err != nil {
		r.fail(err)
		return false
	}
	return true
}

// release resumes every live member under the current generation.
// Hosts marked in joined (an elastic commit's joiners) start their
// cursors at the stream offset the incumbents reached instead.
func (r *Rack) release(at releasePoint, joined []bool) {
	var frontier uint64
	if at == atFrontier {
		frontier = r.frontier()
	}
	for i, h := range r.hosts {
		switch {
		case r.skip(i):
		case joined != nil && joined[i]:
			h.worker.JoinAt(r.epoch, r.streamOff)
		case at == atFrontier:
			r.fail(h.Resume(r.epoch, frontier))
		case at == atBoundary:
			h.worker.Resume(r.epoch, h.worker.ChunkCount())
		default:
			h.resetWorker()
			h.worker.SetJobID(r.epoch)
		}
	}
}

// frontier is the global recovery boundary: the minimum progress
// frontier over live members. Every chunk below it is complete on
// every member.
func (r *Rack) frontier() uint64 {
	frontier := ^uint64(0)
	for i, h := range r.hosts {
		if !r.skip(i) {
			frontier = min(frontier, h.worker.FrontierOff())
		}
	}
	return frontier
}

// disarm stops every live member's retransmission timers: the switch
// path is being abandoned.
func (r *Rack) disarm() {
	for i, h := range r.hosts {
		if !r.skip(i) {
			h.cancelTimers()
		}
	}
}

// fail records an unrecoverable error raised inside the event loop;
// AllReduce returns the first one. A nil error is ignored.
func (r *Rack) fail(err error) {
	if r.faultErr == nil {
		r.faultErr = err
	}
}

// allLiveDone reports whether every worker still in the job holds its
// aggregate.
func (r *Rack) allLiveDone() bool {
	for i, h := range r.hosts {
		if !r.skip(i) && !h.finished {
			return false
		}
	}
	return true
}

// Epoch returns the current job generation.
func (r *Rack) Epoch() uint16 { return r.epoch }

// traceCtrl emits a controller-, health- or switch-scope event. Slot
// carries a probe's sequence number or a ladder rung.
func (r *Rack) traceCtrl(t telemetry.EventType, actor string, worker, slot int32, off int64) {
	if r.cfg.Tracer == nil {
		return
	}
	e := telemetry.Ev(t, int64(r.sim.Now()))
	e.Actor, e.Worker, e.Slot, e.Off = actor, worker, slot, off
	r.cfg.Tracer.Emit(e)
}

// RestartSwitch models a switch reboot mid-job: all register state
// (slots, bitmaps, counters) is wiped, §5.6's switch-failure case.
// The controller notices after a sweep period and re-runs recovery —
// the same generation bump and frontier resume as for a worker
// failure, with the membership unchanged. Slot results computed
// before the wipe were complete and correct; the generation bump
// ensures nothing aggregated after it can mix with contributions from
// before.
func (r *Rack) RestartSwitch() {
	r.sw.sw.Reset()
	r.traceCtrl(telemetry.EvSwitchRestart, "switch", -1, -1, -1)
	if r.ctrl == nil {
		return
	}
	r.sim.After(r.ctrl.cfg.CheckEvery, func() {
		if !r.allLiveDone() {
			r.ctrl.recover()
		}
	})
}

// restartJob re-admits restarted workers at a step boundary: the
// paper's recovery restarts the job from the last checkpoint, so
// every host gets a fresh protocol state machine (stream offsets
// restart at zero), the switch membership is rebuilt under a new
// generation, and old failure verdicts are forgotten.
func (r *Rack) restartJob() {
	r.rejoin = false
	// The whole job restarts from the checkpoint: the stream restarts
	// at offset zero, so any later elastic joiner's cursor must too.
	r.streamOff = 0
	for i, h := range r.hosts {
		if r.ctrl != nil && !h.crashed && !h.detached {
			r.ctrl.tracker.MarkAlive(i, int64(r.sim.Now()))
		}
	}
	if !r.install(r.sw.home, live) {
		return
	}
	r.release(atCheckpoint, nil)
	r.traceCtrl(telemetry.EvReconfigure, "controller", -1, -1, int64(r.epoch))
}

// apply executes one scripted fault action at its trigger time.
func (r *Rack) apply(a faults.Action) {
	switch a.Kind {
	case faults.CrashWorker:
		r.hosts[a.Worker].Crash()
	case faults.RestartWorker:
		h := r.hosts[a.Worker]
		if h.crashed {
			h.Restart()
			r.rejoin = true
		}
	case faults.JoinWorker:
		r.requestJoin(a.Worker)
	case faults.LeaveWorker:
		r.requestLeave(a.Worker)
	case faults.RestartSwitch:
		r.RestartSwitch()
	case faults.KillSwitch:
		// The aggregation program dies: updates are blackholed, probes
		// go unanswered, the crossbar keeps forwarding. Detection is
		// the health monitor's job (or, with NoFallback, the hosts'
		// stall give-up).
		r.sw.down = true
	case faults.ReviveSwitch:
		if r.sw.down {
			r.sw.down = false
			// The reinstalled program starts with wiped register state.
			r.sw.sw.Reset()
			r.traceCtrl(telemetry.EvSwitchRestart, "switch", -1, -1, -1)
		}
	case faults.KillStandby:
		// Action.Worker carries the standby rank (1-based); range
		// checked by NewRack against Config.StandbySwitches.
		r.sw.sbDown[a.Worker-1] = true
	case faults.ReviveStandby:
		if r.sw.sbDown[a.Worker-1] {
			r.sw.sbDown[a.Worker-1] = false
			// The reinstalled program starts with wiped register state;
			// the next adoption fences it under a fresh generation.
			r.sw.standbys[a.Worker-1].Reset()
			r.traceCtrl(telemetry.EvSwitchRestart, "standby", int32(a.Worker), -1, -1)
		}
	case faults.LinkDown:
		for _, l := range r.linksOf(a.Worker) {
			l.SetDown(true)
		}
	case faults.LinkUp:
		for _, l := range r.linksOf(a.Worker) {
			l.SetDown(false)
		}
	case faults.SetLossRate:
		for _, l := range r.linksOf(a.Worker) {
			l.SetLossRate(a.Rate)
		}
	case faults.SetBurstLoss:
		for _, l := range r.linksOf(a.Worker) {
			// Validated by Scenario.Validate; each link needs its own
			// chain instance.
			ge, err := netsim.NewGilbertElliott(a.Burst)
			if err != nil {
				r.fail(err)
				return
			}
			l.SetLossModel(ge)
		}
	}
}

// requestJoin queues a graceful join: the detached worker is admitted
// at the next step boundary by commitMembership. Requests for hosts
// already inside the membership, or crashed, are ignored — a join is
// an invitation, not an invariant.
func (r *Rack) requestJoin(w int) {
	h := r.hosts[w]
	if !h.detached || h.crashed {
		return
	}
	r.pendingJoin[w] = true
	r.membershipDirty = true
}

// requestLeave begins a graceful leave: the worker keeps contributing
// until the step boundary (draining its in-flight window — under the
// globally synchronous step model, the rest of the current tensor),
// then commitMembership retires it. The liveness tracker is told
// immediately, so the coming silence is never mistaken for a crash.
func (r *Rack) requestLeave(w int) {
	h := r.hosts[w]
	if h.detached || h.crashed || h.draining || r.dead(w) {
		return
	}
	// Never drain the last member: a job needs at least one worker.
	members := 0
	for i := range r.hosts {
		if !r.skip(i) && !r.hosts[i].draining {
			members++
		}
	}
	if members <= 1 {
		return
	}
	h.draining = true
	r.pendingLeave[w] = true
	r.membershipDirty = true
	if r.ctrl != nil {
		r.ctrl.tracker.MarkDraining(w)
	}
	r.traceCtrl(telemetry.EvDrainStart, "controller", int32(w), -1, -1)
}

// commitMembership applies queued graceful joins and leaves at a step
// boundary: one generation bump, one pool wipe, and a membership
// reconfiguration covering every queued change — the elastic
// counterpart of the §5.6 recovery fence, taken where nothing is in
// flight so no aggregate can be torn. Joiners' stream cursors start
// at the global frontier; incumbents re-seat the new generation with
// reset pool versions, matching the wiped switch.
func (r *Rack) commitMembership() {
	if !r.membershipDirty {
		return
	}
	r.membershipDirty = false
	now := int64(r.sim.Now())
	// Changes are traced under the generation install fences below.
	gen := int64(r.epoch + 1)
	joined := make([]bool, r.cfg.Workers)
	for i, h := range r.hosts {
		if r.pendingJoin[i] && !h.crashed {
			h.detached = false
			joined[i] = true
			if r.ctrl != nil {
				r.ctrl.tracker.MarkAlive(i, now)
			}
			r.traceCtrl(telemetry.EvWorkerJoin, "controller", int32(i), -1, gen)
		}
		if r.pendingLeave[i] {
			h.detached = true
			h.draining = false
			if r.ctrl != nil {
				r.ctrl.tracker.MarkDeparted(i)
			}
			r.left = append(r.left, i)
			r.traceCtrl(telemetry.EvWorkerLeave, "controller", int32(i), -1, gen)
		}
		r.pendingJoin[i], r.pendingLeave[i] = false, false
	}
	if !r.install(r.sw.home, live) {
		return
	}
	// Nothing is in flight at a step boundary, so no frontier is
	// needed: incumbents keep their cursors.
	r.release(atBoundary, joined)
	r.traceCtrl(telemetry.EvReconfigure, "controller", -1, -1, int64(r.epoch))
}

// linksOf returns the access links touched by a link-scoped action:
// both directions of worker w's links, or every link when w is -1.
func (r *Rack) linksOf(w int) []*netsim.Link {
	if w < 0 {
		links := append([]*netsim.Link(nil), r.uplink...)
		return append(links, r.sw.downlinks...)
	}
	return []*netsim.Link{r.uplink[w], r.sw.downlinks[w]}
}

// Crash kills the host: pending timers die with it and it neither
// sends nor receives until Restart.
func (h *WorkerHost) Crash() {
	if h.crashed {
		return
	}
	h.crashed = true
	h.trace(telemetry.EvWorkerCrash, -1, -1)
	h.cancelTimers()
}

// Crashed reports whether the host is currently down.
func (h *WorkerHost) Crashed() bool { return h.crashed }

// Restart revives a crashed host with a fresh protocol state machine
// — the process memory is gone. It rejoins the job at the next step
// boundary, when the rack restarts the job under a new generation.
func (h *WorkerHost) Restart() {
	if !h.crashed {
		return
	}
	h.crashed = false
	h.trace(telemetry.EvWorkerRestart, -1, -1)
	h.resetWorker()
}

// resetWorker rebuilds the protocol state machine and clears all host
// timing state.
func (h *WorkerHost) resetWorker() {
	w, err := core.NewWorker(h.wcfg)
	if err != nil {
		// The identical configuration was validated at construction.
		panic(err)
	}
	h.worker = w
	h.pump = newPump(w, h.cfg)
	clear(h.coreFree)
	h.cancelTimers()
	h.finished = false
}

// Resume restarts the host's tensor from the global recovery frontier
// under a new job generation: pending timers, backoff and stall counts
// are cleared (a re-opened window is a new chunk for every slot, so a
// NoFallback stall budget starts over), the protocol state machine
// re-opens the tensor at the frontier (see core.Worker.Resume for why
// every survivor uses the same frontier), and the new initial window
// goes out. A host whose tensor was already complete is re-opened and
// its completion callback fires a second time.
func (h *WorkerHost) Resume(jobID uint16, off uint64) error {
	if h.crashed {
		return nil
	}
	h.cancelTimers()
	pkts, err := h.worker.ResumeAt(jobID, off)
	if err != nil {
		return err
	}
	h.trace(telemetry.EvResume, -1, int64(off))
	if len(pkts) > 0 {
		h.finished = false
	}
	h.launch(pkts)
	return nil
}
