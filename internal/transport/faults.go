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

// liveness is the aggregator's failure detector and drain bookkeeping.
// The tracker is internally atomic; leavePend/leaveOff are guarded by
// the aggregator mutex. The eviction and join roll calls it makes
// possible live on the Aggregator, beside the adoption's (rollcall.go).
type liveness struct {
	cfg     LivenessConfig
	tracker *faults.Tracker
	// leavePend/leaveOff record announced drains and their boundaries
	// (elastic.go).
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
			a.sweep(a.clock().UnixNano())
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
		a.job.peers[w].Store(nil) // evict the dead worker's session state
		a.traceCtrl(telemetry.EvFailureDetected, int32(w), -1)
		verdict = true
	}
	if verdict {
		a.startRecoveryLocked()
		return
	}
	if a.evict != nil {
		// Control datagrams are as losable as any other; rebroadcast
		// to the survivors that have not reported yet.
		a.directLocked(a.evict)
	}
	a.elasticSweepLocked()
}

// startRecoveryLocked installs the shrunken membership under the next
// generation (draining the pool, so no slot can mix generations) and
// opens the eviction roll call: every survivor the detector has heard
// from reports its frontier, and all resume at the minimum.
func (a *Aggregator) startRecoveryLocked() {
	gen := a.job.gen() + 1
	if a.installLocked(a.membersLocked(-1), gen) != nil {
		return // unreachable: the sweep never retires the last worker
	}
	// Crash recovery cannot wait for a membership fence: abort it (the
	// joiner retransmits its solicitation and gets a fresh fence once
	// the survivors have resumed).
	a.join = nil
	a.evict = newRollCall(gen, len(a.job.peers), a.lv.tracker, false, -1)
	a.directLocked(a.evict)
}

// handleReport takes a vote in a fence. A Ver=0 KindReport is a
// survivor's frontier in the eviction roll call, released at the
// minimum; a Ver=1 one is an incumbent's boundary, or the joiner's
// readiness, in the join fence (elastic.go), released at the boundary —
// the maximum, the joiner's offset not counting. A vote whose fence has
// committed already means the voter missed the release: it is repeated.
func (a *Aggregator) handleReport(sh *aggShard, src netip.AddrPort) {
	if a.lv == nil {
		return
	}
	p := &sh.hdr
	w := int(p.WorkerID)
	a.mu.Lock()
	defer a.mu.Unlock()
	rc := a.evict
	if p.Ver == 1 {
		rc = a.join
	}
	if rc == nil || p.JobID != rc.gen || (w != rc.joiner && a.lv.tracker.Dead(w)) {
		if p.JobID == a.job.gen() && !a.lv.tracker.Dead(w) {
			a.rerelease(sh, src)
		}
		return
	}
	a.lv.tracker.Touch(w, a.coarse.Load())
	a.job.setPeer(p.WorkerID, src)
	if p.Ver == 1 && w != rc.joiner {
		// A confirm at the boundary proves everything before it is
		// complete — it counts toward any pending drain commit, or a
		// holder that stopped sending updates could stall a leave.
		a.lv.bumpMaxOff(w, p.Off)
	}
	switch {
	case !rc.vote(w, p.Off):
		// The sweeper keeps rebroadcasting the directive.
	case rc == a.evict:
		a.evict = nil
		a.releaseLocked(rc, rc.lo)
	default:
		a.commitJoinLocked(rc)
	}
}

// touch records liveness from a heartbeat (or other control traffic)
// and keeps the sender's address fresh. Lock-free: the tracker and
// the address table are atomic.
func (a *Aggregator) touch(p *packet.Header, src netip.AddrPort) {
	if a.lv == nil {
		return
	}
	if a.lv.tracker.Dead(int(p.WorkerID)) {
		return
	}
	a.lv.tracker.Touch(int(p.WorkerID), a.coarse.Load())
	a.job.setPeer(p.WorkerID, src)
}

// Alive reports whether worker w is still part of the job. Without a
// liveness detector every configured worker counts as alive.
func (a *Aggregator) Alive(w int) bool {
	if w < 0 || w >= len(a.job.peers) {
		return false
	}
	if a.lv == nil {
		return true
	}
	return !a.lv.tracker.Dead(w)
}

// Epoch returns the current job generation.
func (a *Aggregator) Epoch() uint16 { return a.job.gen() }

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
