// Switch health monitoring and the degradation controller: the rack's
// self-healing path. Where internal/rack/faults.go watches *workers*
// (the per-worker liveness Tracker of §5.6), this file watches the
// *switch*: when the aggregation pipeline goes silent with traffic
// outstanding, the job degrades to host ring all-reduce over the same
// links — the crossbar keeps forwarding even when the aggregation
// program is dead — and fails back to the switch path once a probation
// window of probe rounds succeeds. Both transitions happen at a
// chunk-frontier barrier so no tensor is ever half-aggregated by two
// fabrics.
package rack

import (
	"fmt"

	"switchml/internal/allreduce"
	"switchml/internal/faults"
	"switchml/internal/netsim"
	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// HealthConfig tunes the switch health monitor and degradation
// controller. It is distinct from LivenessConfig: liveness suspects
// individual silent workers; health suspects the switch itself when
// *no* aggregation results flow while updates are outstanding.
type HealthConfig struct {
	// SuspectAfter is how long the switch path may stay silent — no
	// results delivered anywhere, with at least one tensor in flight —
	// before the job degrades to host all-reduce; zero selects 8×RTO.
	// It doubles as the hysteresis floor: a switch that answers even
	// occasionally never trips it.
	SuspectAfter netsim.Time
	// ProbeEvery is the probe period while degraded; zero selects
	// SuspectAfter/4.
	ProbeEvery netsim.Time
	// Probation is the number of consecutive answered probes required
	// before failing back to the switch; zero selects 3, negative
	// pins the job in degraded mode forever (the pure host-all-reduce
	// baseline of -degraded-mode).
	Probation int
	// BurstBytes segments the degraded-mode ring transfers; zero
	// selects 64 KiB.
	BurstBytes int
}

func (c *HealthConfig) fillDefaults(rto netsim.Time) {
	if c.SuspectAfter == 0 {
		c.SuspectAfter = 8 * rto
	}
	if c.ProbeEvery == 0 {
		c.ProbeEvery = c.SuspectAfter / 4
	}
	if c.Probation == 0 {
		c.Probation = 3
	}
	if c.BurstBytes == 0 {
		c.BurstBytes = 64 * 1024
	}
}

// Job fabric modes of the three-state machine
// SWITCH → DEGRADED(host all-reduce) → SWITCH.
const (
	modeSwitch = iota
	modeDegraded
)

// healthMonitor drives the state machine. It lives entirely inside the
// rack's single event loop: no locks, no wall clock, no private
// randomness — fallback runs replay bit-identically from a seed.
//
// With Config.StandbySwitches the two-state machine grows into the
// three-tier defense ladder: on silence the job first re-homes onto a
// warm-standby rung (full switch rate, a fenced generation bump and a
// frontier resume — the simulator's deterministic twin of the UDP
// transport's KindAdoptJob handshake), walking the remaining rungs on
// repeated silence, and only when every rung is dark does it fall to
// the host mesh (or, with NoFallback, raise ErrSwitchDown). While
// homed below rung 0 it probes the primary and climbs back after the
// probation window, at a step boundary.
type healthMonitor struct {
	r   *Rack
	cfg HealthConfig

	mode int
	// trying is the remaining descent queue of rungs to attempt after
	// a silence verdict; nil when no descent is in progress. Any
	// delivered result cancels the descent — the current rung answered.
	trying []int
	// meshOK gates the final rung-exhausted step: host mesh fallback,
	// or (NoFallback with standbys) the typed ErrSwitchDown.
	meshOK bool
	// lastActivity is the last virtual time the switch path showed
	// life: a result delivered to any host, or the start of a step.
	lastActivity netsim.Time
	// watching guards the suspicion sweep chain.
	watching bool

	// probing guards the probe chain; window is the probation window
	// the chain's rounds feed.
	probing bool
	window  faults.Probation

	// ring is the in-progress degraded-mode collective; ringRanks maps
	// its ranks to worker ids, ringBufs holds each rank's private
	// suffix copy, ringOff the handoff frontier as a stream offset.
	ring      *allreduce.Collective
	ringRanks []int
	ringBufs  [][]int32
	ringOff   uint64

	degrades, failbacks, probes, probeAcks, hostElems, rehomes uint64

	// gMode mirrors the state machine into the registry
	// (0 = SWITCH, 1 = DEGRADED) so sampled series and snapshots carry
	// the fabric mode; gHome mirrors the ladder rung. Nil without
	// Config.Metrics.
	gMode, gHome *telemetry.Gauge
}

func newHealthMonitor(r *Rack, cfg HealthConfig) *healthMonitor {
	m := &healthMonitor{r: r, cfg: cfg, meshOK: !r.cfg.NoFallback}
	if r.cfg.Metrics != nil {
		m.gMode = r.cfg.Metrics.Gauge("rack_health_mode")
		m.gHome = r.cfg.Metrics.Gauge("rack_home_rank")
	}
	for _, h := range r.hosts {
		h.observe = m.touch
		h.probeAck = m.onProbeAck
		h.peerRecv = m.onPeer
	}
	r.sw.peerDst = m.peerLink
	return m
}

// setMode moves the state machine and mirrors the new mode into the
// registry gauge.
func (m *healthMonitor) setMode(mode int) {
	m.mode = mode
	if m.gMode != nil {
		m.gMode.Set(int64(mode))
	}
}

// touch records switch-path life; every result delivery feeds it. A
// result also settles any ladder descent in progress: the rung the job
// just re-homed to is answering.
func (m *healthMonitor) touch() {
	m.lastActivity = m.r.sim.Now()
	m.trying = nil
}

// watch (re-)arms the suspicion sweep at the start of a switch-mode
// step. The chain stops once every live worker is done, so the
// simulation can drain. A job homed on a standby also (re-)arms the
// fail-up probe chain, so the primary gets at least one probe per
// step and the probation streak can grow.
func (m *healthMonitor) watch() {
	m.lastActivity = m.r.sim.Now()
	if m.r.sw.home != 0 {
		m.startProbing()
	}
	if m.watching {
		return
	}
	m.watching = true
	m.armWatch()
}

func (m *healthMonitor) armWatch() { m.r.sim.After(m.cfg.SuspectAfter/4, m.sweep) }

func (m *healthMonitor) sweep() {
	r := m.r
	if m.mode != modeSwitch || r.allLiveDone() || r.faultErr != nil {
		m.watching = false
		return
	}
	if r.sim.Now()-m.lastActivity >= m.cfg.SuspectAfter {
		r.traceCtrl(telemetry.EvSwitchSuspect, "health", -1, -1, -1)
		m.descend()
		return
	}
	m.armWatch()
}

// descend takes one step down the defense ladder after a silence
// verdict. The first verdict of a descent builds the attempt queue —
// every rung except the one that just went silent, in rank order,
// mirroring the UDP client's ladder walk — and each verdict re-homes
// the job onto the next candidate; any result delivery cancels the
// descent (touch). Only with the queue exhausted does the job leave
// the switch tier: host mesh when allowed, the typed ErrSwitchDown
// otherwise.
func (m *healthMonitor) descend() {
	r := m.r
	if m.trying == nil {
		for rung := 0; rung < r.sw.rungs(); rung++ {
			if rung != r.sw.home {
				m.trying = append(m.trying, rung)
			}
		}
	}
	if len(m.trying) == 0 {
		m.trying = nil
		m.watching = false
		if m.meshOK {
			m.degrade()
			return
		}
		r.fail(fmt.Errorf("rack: every aggregator rung silent (%d rungs): %w",
			r.sw.rungs(), ErrSwitchDown))
		// Disarm the hosts so the event loop drains and AllReduce can
		// surface the verdict.
		r.disarm()
		return
	}
	next := m.trying[0]
	m.trying = m.trying[1:]
	m.rehome(next)
	m.lastActivity = r.sim.Now()
	m.armWatch()
}

// rehome moves the job onto another switch rung mid-step: the §5.6
// recovery fence aimed at a different pool. The membership is fenced
// into the rung under a bumped generation (wiping its slot pool), and
// every live worker resumes from the global chunk frontier — the
// deterministic twin of the UDP transport's adopt handshake, where the
// standby's roll call reconstructs the same membership from
// KindAdoptJob votes.
func (m *healthMonitor) rehome(rank int) {
	r := m.r
	if !r.install(rank, live) {
		return
	}
	m.setHome(rank)
	m.rehomes++
	frontier := int64(r.frontier())
	r.traceCtrl(telemetry.EvRehome, "health", -1, int32(rank), frontier)
	r.traceCtrl(telemetry.EvAdopt, "health", -1, int32(rank), frontier)
	r.release(atFrontier, nil)
	if rank != 0 {
		// Start courting the primary for the climb back up.
		m.window.Restart()
		m.startProbing()
	}
}

// setHome moves the job onto a ladder rung and mirrors it into the
// registry gauge.
func (m *healthMonitor) setHome(rank int) {
	m.r.sw.home = rank
	if m.gHome != nil {
		m.gHome.Set(int64(rank))
	}
}

// degrade is the SWITCH → DEGRADED transition, mid-step: the barrier
// handoff. The frontier F is the minimum progress frontier over live
// workers; every chunk below F is complete on every worker (via the
// switch), and the host ring re-aggregates [F, end) wholesale from the
// raw updates — chunks above F that some workers already hold are
// overwritten with bit-identical values (int32 addition is order-
// invariant), so no chunk is ever torn between the two fabrics.
func (m *healthMonitor) degrade() {
	r := m.r
	m.setMode(modeDegraded)
	m.degrades++
	frontier := r.frontier()
	r.disarm()
	r.traceCtrl(telemetry.EvDegrade, "health", -1, -1, int64(frontier))
	m.startRing(frontier)
}

// stepHosted runs one whole aggregation step on the host fabric, the
// steady state while degraded, once every member has opened its tensor
// (startHosted).
func (m *healthMonitor) stepHosted(updates [][]int32) {
	r := m.r
	for i, h := range r.hosts {
		if !r.skip(i) && len(updates[i]) != 0 {
			m.startRing(h.worker.TensorBase())
			return
		}
	}
	// Every tensor is empty: startHosted completed them immediately.
}

// startRing builds and launches the host ring all-reduce over the
// tensor suffix [frontier, end) of every live worker, inside the
// rack's own event loop so bandwidth, propagation and crossbar latency
// are charged by the same links the switch path uses.
func (m *healthMonitor) startRing(frontier uint64) {
	r := m.r
	m.ringRanks = m.ringRanks[:0]
	for i := range r.hosts {
		if r.skip(i) {
			continue
		}
		m.ringRanks = append(m.ringRanks, i)
	}
	m.ringOff = frontier
	bufs := make([][]int32, 0, len(m.ringRanks))
	for _, w := range m.ringRanks {
		wk := r.hosts[w].worker
		u := wk.Update()
		local := int(frontier - wk.TensorBase())
		// Private copies: AllReduceShared aliases one backing array
		// across workers, and the ring mutates its buffers in place.
		buf := make([]int32, len(u)-local)
		copy(buf, u[local:])
		bufs = append(bufs, buf)
	}
	m.ringBufs = bufs
	ring, err := allreduce.NewCollective(
		allreduce.Config{Workers: len(bufs), BurstBytes: m.cfg.BurstBytes},
		bufs, allreduce.Ring, m.sendPeer, r.sim.Now, m.ringDone,
	)
	if err != nil {
		r.fail(err)
		return
	}
	m.ring = ring
	ring.Start()
	m.startProbing()
}

// sendPeer routes a ring burst from its rank's uplink; the crossbar
// forwards it to the destination's downlink. Sending also counts as
// liveness for the worker — the per-worker Tracker must not mistake
// fallback mode for mass worker death.
func (m *healthMonitor) sendPeer(pm allreduce.PeerMsg) {
	r := m.r
	w := m.ringRanks[pm.PeerSrc()]
	if r.ctrl != nil {
		r.ctrl.tracker.Touch(w, int64(r.sim.Now()))
	}
	r.uplink[w].Send(pm)
}

// peerLink maps a ring rank to its host's downlink, for the crossbar.
func (m *healthMonitor) peerLink(rank int) *netsim.Link {
	if rank < 0 || rank >= len(m.ringRanks) {
		return nil
	}
	return m.r.sw.downlinks[m.ringRanks[rank]]
}

// onPeer feeds an inbound ring burst to the collective.
func (m *healthMonitor) onPeer(pm allreduce.PeerMsg) {
	if m.ring != nil {
		m.ring.Deliver(pm)
	}
}

// ringDone installs the host-computed aggregate into every live
// worker at the handoff frontier and completes their tensors.
func (m *healthMonitor) ringDone() {
	r := m.r
	now := r.sim.Now()
	if len(m.ringBufs) > 0 {
		m.hostElems += uint64(len(m.ringBufs[0]))
	}
	for rk, w := range m.ringRanks {
		h := r.hosts[w]
		if err := h.worker.InstallHostAggregate(m.ringOff, m.ringBufs[rk]); err != nil {
			r.fail(err)
			continue
		}
		if !h.finished {
			h.complete(now)
		}
	}
	m.ring = nil
	m.ringBufs = nil
}

// startProbing sends an immediate probe and arms the periodic chain.
func (m *healthMonitor) startProbing() {
	m.sendProbe()
	if !m.probing {
		m.probing = true
		m.armProbe()
	}
}

func (m *healthMonitor) armProbe() { m.r.sim.After(m.cfg.ProbeEvery, m.probeTick) }

func (m *healthMonitor) probeTick() {
	// The chain runs while the job is off the primary: degraded to the
	// mesh, or homed on a standby rung. An unrecoverable verdict
	// (NoFallback with every rung dark) must stop it too, or the
	// self-arming chain would keep the event loop from draining.
	if !m.offPrimary() || m.r.allLiveDone() || m.r.faultErr != nil {
		m.probing = false
		return
	}
	// A previous probe still unanswered means the switch is still dark:
	// the probation window restarts.
	m.window.Close()
	m.sendProbe()
	m.armProbe()
}

// sendProbe emits one health probe from the lowest-id live worker.
func (m *healthMonitor) sendProbe() {
	r := m.r
	w := -1
	for i := range r.hosts {
		if !r.skip(i) {
			w = i
			break
		}
	}
	if w < 0 {
		return
	}
	seq := m.window.Open()
	m.probes++
	p := packet.NewControl(packet.KindProbe, uint16(w), r.epoch, 0, nil)
	p.Idx = seq
	r.traceCtrl(telemetry.EvProbe, "health", int32(w), int32(seq), -1)
	r.uplink[w].Send(p)
}

// onProbeAck credits the probation window when the outstanding probe
// is answered.
func (m *healthMonitor) onProbeAck(p *packet.Packet) {
	if !m.offPrimary() || !m.window.Ack(p.Idx) {
		return
	}
	m.probeAcks++
	m.r.traceCtrl(telemetry.EvProbeAck, "health", int32(p.WorkerID), int32(p.Idx), -1)
}

// maybeFailback is the climb back to the primary, taken at a step
// boundary (the natural chunk-frontier barrier: no tensor is in
// flight) once the probation window is full — from the host mesh
// (DEGRADED → SWITCH) or from a warm-standby rung (fail-up). The job
// generation bumps and the primary's pool is wiped under the current
// membership, so nothing aggregated before the outage can mix with
// traffic after it; every worker installs the generation with reset
// pool versions, mirroring a §5.6 resume with an empty in-flight set.
func (m *healthMonitor) maybeFailback() {
	r := m.r
	if m.cfg.Probation < 0 || m.window.Streak() < m.cfg.Probation || !m.offPrimary() {
		return
	}
	fromMesh := m.mode == modeDegraded
	if !r.install(0, live) {
		return
	}
	// Between steps the event loop has drained: no timer is armed, and
	// each slot's last answer (or the degrade) cleared its backoff and
	// stall counts, so the members' host state needs no reset.
	r.release(atBoundary, nil)
	m.setMode(modeSwitch)
	m.setHome(0)
	m.trying = nil
	m.window.Restart()
	m.failbacks++
	if !fromMesh {
		r.traceCtrl(telemetry.EvRehome, "health", -1, 0, int64(r.epoch))
	}
	r.traceCtrl(telemetry.EvFailback, "health", -1, -1, int64(r.epoch))
}

// offPrimary reports whether the job lives off the primary switch:
// degraded to the mesh, or homed on a standby rung. Only then does the
// probation window run.
func (m *healthMonitor) offPrimary() bool {
	return m.mode == modeDegraded || m.r.sw.home != 0
}

// Degraded reports whether the job is currently on the host fabric.
func (r *Rack) Degraded() bool {
	return r.health != nil && r.health.mode == modeDegraded
}
