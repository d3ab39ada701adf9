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
		r.traceCtrl(telemetry.EvFailureDetected, "controller", int32(w), -1)
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
	r.epoch++
	active := make([]bool, r.cfg.Workers)
	for i := range active {
		active[i] = !c.tracker.Dead(i) && !r.hosts[i].detached
	}
	if err := r.homeSwitch().Reconfigure(active, r.epoch); err != nil {
		if r.faultErr == nil {
			r.faultErr = err
		}
		return
	}
	r.traceCtrl(telemetry.EvReconfigure, "controller", -1, int64(r.epoch))

	resume := false
	frontier := ^uint64(0)
	for i, h := range r.hosts {
		if h.crashed || h.detached || c.tracker.Dead(i) {
			continue
		}
		if !h.finished {
			resume = true
		}
		if f := h.worker.FrontierOff(); f < frontier {
			frontier = f
		}
	}
	for i, h := range r.hosts {
		if h.crashed || h.detached || c.tracker.Dead(i) {
			continue
		}
		if !resume {
			// Nothing in flight: just install the new generation and
			// reset the pool versions to match the wiped switch.
			h.worker.Resume(r.epoch, h.worker.ChunkCount())
			continue
		}
		if err := h.Resume(r.epoch, frontier); err != nil && r.faultErr == nil {
			r.faultErr = err
		}
	}
}

// allLiveDone reports whether every worker still in the job holds its
// aggregate.
func (r *Rack) allLiveDone() bool {
	for i, h := range r.hosts {
		if r.skip(i) {
			continue
		}
		if !h.finished {
			return false
		}
	}
	return true
}

// Epoch returns the current job generation.
func (r *Rack) Epoch() uint16 { return r.epoch }

// traceCtrl emits a controller- or switch-scope event.
func (r *Rack) traceCtrl(t telemetry.EventType, actor string, worker int32, off int64) {
	if r.cfg.Tracer == nil {
		return
	}
	e := telemetry.Ev(t, int64(r.sim.Now()))
	e.Actor = actor
	e.Worker = worker
	e.Off = off
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
	r.traceCtrl(telemetry.EvSwitchRestart, "switch", -1, -1)
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
	r.epoch++
	// The whole job restarts from the checkpoint: the stream restarts
	// at offset zero, so any later elastic joiner's cursor must too.
	r.streamOff = 0
	active := make([]bool, r.cfg.Workers)
	for i, h := range r.hosts {
		active[i] = !h.crashed && !h.detached
		if h.crashed || h.detached {
			continue
		}
		h.resetWorker()
		h.worker.SetJobID(r.epoch)
		if r.ctrl != nil {
			r.ctrl.tracker.MarkAlive(i, int64(r.sim.Now()))
		}
	}
	if err := r.homeSwitch().Reconfigure(active, r.epoch); err != nil && r.faultErr == nil {
		r.faultErr = err
	}
	r.traceCtrl(telemetry.EvReconfigure, "controller", -1, int64(r.epoch))
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
			r.traceCtrl(telemetry.EvSwitchRestart, "switch", -1, -1)
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
			r.traceCtrl(telemetry.EvSwitchRestart, "standby", int32(a.Worker), -1)
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
				if r.faultErr == nil {
					r.faultErr = err
				}
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
	r.traceCtrl(telemetry.EvDrainStart, "controller", int32(w), -1)
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
	r.epoch++
	now := int64(r.sim.Now())
	active := make([]bool, r.cfg.Workers)
	joined := make([]bool, r.cfg.Workers)
	for i, h := range r.hosts {
		if r.pendingJoin[i] && !h.crashed {
			h.detached = false
			joined[i] = true
			h.worker.JoinAt(r.epoch, r.streamOff)
			if r.ctrl != nil {
				r.ctrl.tracker.MarkAlive(i, now)
			}
			r.traceCtrl(telemetry.EvWorkerJoin, "controller", int32(i), int64(r.epoch))
		}
		if r.pendingLeave[i] {
			h.detached = true
			h.draining = false
			if r.ctrl != nil {
				r.ctrl.tracker.MarkDeparted(i)
			}
			r.left = append(r.left, i)
			r.traceCtrl(telemetry.EvWorkerLeave, "controller", int32(i), int64(r.epoch))
		}
		r.pendingJoin[i], r.pendingLeave[i] = false, false
		active[i] = !h.crashed && !h.detached && !r.dead(i)
	}
	if err := r.homeSwitch().Reconfigure(active, r.epoch); err != nil {
		if r.faultErr == nil {
			r.faultErr = err
		}
		return
	}
	for i, h := range r.hosts {
		if !active[i] || joined[i] {
			continue
		}
		// Incumbents: install the new generation and reset per-slot
		// pool versions to match the freshly wiped switch. Nothing is
		// in flight at a step boundary, so no frontier is needed.
		h.worker.Resume(r.epoch, h.worker.ChunkCount())
	}
	r.traceCtrl(telemetry.EvReconfigure, "controller", -1, int64(r.epoch))
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
	for i := range h.timers {
		h.timers[i].Stop()
	}
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
	for i := range h.coreFree {
		h.coreFree[i] = 0
	}
	for i := range h.timers {
		h.timers[i].Stop()
		h.backoff[i] = 0
		h.retxed[i] = false
		h.sentAt[i] = 0
		h.stall[i] = 0
	}
	h.srtt, h.rttvar = 0, 0
	h.finished = false
}

// Resume restarts the host's tensor from the global recovery frontier
// under a new job generation: pending timers and backoff state are
// cleared, the protocol state machine re-opens the tensor at the
// frontier (see core.Worker.Resume for why every survivor uses the
// same frontier), and the new initial window goes out. A host whose
// tensor was already complete is re-opened and its completion
// callback fires a second time.
func (h *WorkerHost) Resume(jobID uint16, off uint64) error {
	if h.crashed {
		return nil
	}
	for i := range h.timers {
		h.timers[i].Stop()
		h.backoff[i] = 0
		h.retxed[i] = false
	}
	pkts, err := h.worker.ResumeAt(jobID, off)
	if err != nil {
		return err
	}
	h.trace(telemetry.EvResume, -1, int64(off))
	if len(pkts) == 0 {
		return nil
	}
	h.finished = false
	for _, p := range pkts {
		h.charge(p.Idx, work{op: opTransmit, p: p})
	}
	return nil
}
