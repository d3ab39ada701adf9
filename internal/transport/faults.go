package transport

import (
	"net/netip"
	"sync/atomic"
	"time"

	"switchml/internal/faults"
	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// LivenessConfig enables the aggregator's failure detector: workers
// silent past the threshold — while at least one peer keeps making
// progress — are declared failed, their session state is evicted, and
// the survivors are walked through the reconfigure/report/resume
// handshake under a new job generation (§5.6).
type LivenessConfig struct {
	// SilenceAfter is the silence threshold; zero selects 2 s. It must
	// comfortably exceed the clients' maximum retransmission backoff
	// (64×RTO) to avoid retiring a merely unlucky worker.
	SilenceAfter time.Duration
	// CheckEvery is the detector sweep period; zero selects
	// SilenceAfter/4. Undelivered control packets are rebroadcast at
	// this period until every survivor has reported.
	CheckEvery time.Duration
}

func (c *LivenessConfig) fillDefaults() {
	if c.SilenceAfter == 0 {
		c.SilenceAfter = 2 * time.Second
	}
	if c.CheckEvery == 0 {
		c.CheckEvery = c.SilenceAfter / 4
	}
}

// liveness is the aggregator's recovery state. The tracker is
// internally atomic, and resumeReady/frontier are read lock-free by
// the shard goroutines' stale-generation fast path; everything else
// is guarded by the aggregator mutex.
type liveness struct {
	cfg     LivenessConfig
	tracker *faults.Tracker
	// recovering means a reconfiguration is in flight: KindReconfig is
	// (re)broadcast until every live worker has reported its frontier.
	recovering bool
	// resumeReady means the global frontier is final and KindResume
	// has been issued; stale-generation traffic triggers re-sends.
	resumeReady atomic.Bool
	// frontier is the minimum reported stream offset. Only meaningful
	// once resumeReady is set; written under the aggregator mutex.
	frontier atomic.Uint64
	// reported marks workers whose KindReport arrived this generation.
	reported []bool

	// Elastic membership (elastic.go). fence is the open join fence,
	// nil when none; leavePend/leaveOff record announced drains and
	// their boundaries. All three are guarded by the aggregator mutex.
	fence     *memberFence
	leavePend []bool
	leaveOff  []uint64
	// leaveArmed gates the per-update maxOff bookkeeping so the hot
	// path pays one atomic load when no drain is pending; maxOff is
	// each worker's highest seen update offset, the evidence a drain
	// commit waits on.
	leaveArmed atomic.Bool
	maxOff     []atomic.Uint64
}

// bumpMaxOff raises worker w's proven-progress watermark.
func (lv *liveness) bumpMaxOff(w int, off uint64) {
	for {
		cur := lv.maxOff[w].Load()
		if off <= cur || lv.maxOff[w].CompareAndSwap(cur, off) {
			return
		}
	}
}

// sweepLoop is the detector goroutine.
func (a *Aggregator) sweepLoop() {
	defer a.wg.Done()
	t := time.NewTicker(a.lv.cfg.CheckEvery)
	defer t.Stop()
	for {
		select {
		case <-a.closed:
			return
		case <-t.C:
			a.sweep(time.Now().UnixNano())
		}
	}
}

// sweep is one detector pass: declare silent workers failed, evict
// their session state, and start (or keep pushing) recovery.
func (a *Aggregator) sweep(now int64) {
	if a.down.Load() {
		return // a dead aggregation program detects nothing
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	verdict := false
	for _, w := range a.lv.tracker.Suspects(now) {
		if a.lv.tracker.AliveCount() <= 1 {
			break // never retire the last worker
		}
		a.lv.tracker.MarkDead(w)
		a.peers[w].Store(nil) // evict the dead worker's session state
		a.traceCtrl(telemetry.EvFailureDetected, int32(w), -1)
		verdict = true
	}
	if verdict {
		a.startRecoveryLocked()
		return
	}
	if a.lv.recovering {
		// Control datagrams are as losable as any other; rebroadcast
		// to the workers that have not reported yet.
		a.sendReconfigLocked()
	}
	a.elasticSweepLocked()
}

// startRecoveryLocked bumps the job generation, installs the shrunken
// membership (draining the pool, so no slot can mix generations), and
// opens the report quorum.
func (a *Aggregator) startRecoveryLocked() {
	a.epoch.Store(uint32(a.epochNow() + 1))
	active := make([]bool, len(a.peers))
	for i := range active {
		active[i] = !a.lv.tracker.Dead(i)
	}
	if err := a.sw.Reconfigure(active, a.epochNow()); err != nil {
		// Unreachable: the sweep never retires the last worker.
		return
	}
	a.traceCtrl(telemetry.EvReconfigure, -1, int64(a.epochNow()))
	// Crash recovery cannot wait for a membership fence: abort it (the
	// joiner retransmits its solicitation and gets a fresh fence once
	// the survivors have resumed).
	a.lv.fence = nil
	a.lv.recovering = true
	a.lv.resumeReady.Store(false)
	a.lv.frontier.Store(^uint64(0))
	for i := range a.lv.reported {
		a.lv.reported[i] = false
	}
	a.sendReconfigLocked()
}

// survivorsLocked returns the live membership as a packet vector.
//
//switchml:allow hotpath -- recovery control plane: the update path calls it only to answer an evicted worker
func (a *Aggregator) survivorsLocked() []int32 {
	var vec []int32
	for w := range a.peers {
		if !a.lv.tracker.Dead(w) {
			vec = append(vec, int32(w))
		}
	}
	return vec
}

// sendReconfigLocked (re)sends the reconfigure directive to live
// workers that have not reported their frontier yet. The directive
// differs between recipients only in its worker-id field, so it is
// marshalled once and the id patched per peer.
func (a *Aggregator) sendReconfigLocked() {
	vec := a.survivorsLocked()
	var wire []byte
	for w := range a.peers {
		if a.lv.tracker.Dead(w) || a.lv.reported[w] {
			continue
		}
		ap := a.peers[w].Load()
		if ap == nil {
			continue
		}
		if wire == nil {
			wire = packet.NewControl(packet.KindReconfig, uint16(w), a.epochNow(), 0, vec).Marshal()
		} else if err := packet.PatchWorkerID(wire, uint16(w)); err != nil {
			continue
		}
		a.writeCtrl(wire, *ap)
	}
}

// handleReport folds one worker's frontier into the quorum; when the
// last live worker reports, the resume directive goes out with the
// global minimum. A report arriving after that (its resume was lost)
// just gets the directive repeated.
func (a *Aggregator) handleReport(p *packet.Packet, src netip.AddrPort) {
	if a.lv == nil {
		return
	}
	if p.Ver == 1 {
		// A membership-fence boundary confirmation, not a recovery
		// frontier report (elastic.go).
		a.handleFenceReport(p, src)
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	w := int(p.WorkerID)
	if p.JobID != a.epochNow() || a.lv.tracker.Dead(w) {
		return
	}
	a.lv.tracker.Touch(w, time.Now().UnixNano())
	a.setPeer(p.WorkerID, src)
	if p.Off < a.lv.frontier.Load() {
		a.lv.frontier.Store(p.Off)
	}
	a.lv.reported[w] = true
	if a.lv.resumeReady.Load() {
		out := packet.NewControl(packet.KindResume, p.WorkerID, a.epochNow(), a.lv.frontier.Load(), nil).Marshal()
		a.writeCtrl(out, src)
		return
	}
	for i := range a.peers {
		if a.lv.tracker.Dead(i) || a.lv.tracker.LastSeen(i) < 0 {
			continue // never joined; it cannot report
		}
		if a.peers[i].Load() == nil || !a.lv.reported[i] {
			return // quorum incomplete; the sweeper keeps rebroadcasting
		}
	}
	a.lv.recovering = false
	a.lv.resumeReady.Store(true)
	a.traceCtrl(telemetry.EvResume, -1, int64(a.lv.frontier.Load()))
	var wire []byte
	for i := range a.peers {
		if a.lv.tracker.Dead(i) {
			continue
		}
		ap := a.peers[i].Load()
		if ap == nil {
			continue
		}
		if wire == nil {
			wire = packet.NewControl(packet.KindResume, uint16(i), a.epochNow(), a.lv.frontier.Load(), nil).Marshal()
		} else if err := packet.PatchWorkerID(wire, uint16(i)); err != nil {
			continue
		}
		a.writeCtrl(wire, *ap)
	}
}

// touch records liveness from a heartbeat (or other control traffic)
// and keeps the sender's address fresh. Lock-free: the tracker and
// the address table are atomic.
func (a *Aggregator) touch(p *packet.Packet, src netip.AddrPort) {
	if a.lv == nil {
		return
	}
	if a.lv.tracker.Dead(int(p.WorkerID)) {
		return
	}
	a.lv.tracker.Touch(int(p.WorkerID), a.coarse.Load())
	a.setPeer(p.WorkerID, src)
}

// Alive reports whether worker w is still part of the job. Without a
// liveness detector every configured worker counts as alive.
func (a *Aggregator) Alive(w int) bool {
	if w < 0 || w >= len(a.peers) {
		return false
	}
	if a.lv == nil {
		return true
	}
	return !a.lv.tracker.Dead(w)
}

// Epoch returns the current job generation.
func (a *Aggregator) Epoch() uint16 { return a.epochNow() }

// traceCtrl emits a controller-scope event stamped with wall-clock
// time.
func (a *Aggregator) traceCtrl(t telemetry.EventType, worker int32, off int64) {
	if a.cfg.Tracer == nil {
		return
	}
	e := telemetry.Ev(t, telemetry.WallClock())
	e.Actor = "aggregator"
	e.Worker = worker
	e.Off = off
	a.cfg.Tracer.Emit(e)
}
