package transport

import (
	"net/netip"

	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// Elastic membership: the aggregator-side half of graceful join and
// leave (the client half lives in elastic_client.go). Both changes
// commit only at a tensor boundary, so no slot ever mixes
// contributions from two memberships:
//
// Join runs a membership fence, a roll call (rollcall.go) that admits
// one joiner. The joiner solicits admission with KindJoin; the
// aggregator proposes the next generation by broadcasting a
// KindReconfig with Ver=1 (the elastic marker — Ver=0 is the §5.6
// eviction fence) carrying the future membership. Incumbents finish
// their in-flight tensor, then hold at the boundary and vote with a
// Ver=1 KindReport carrying the boundary offset; collective tensors
// give every worker the same stream schedule, so the confirmed offsets
// agree. While incumbents hold, the joiner may fetch model state from
// one of them over the fallback mesh (KindStateReq/KindStateData).
// Once the joiner and every live incumbent have confirmed, the fence
// commits: the pool is wiped under the proposed generation with the
// joiner in the membership, and KindResume(gen, boundary) releases
// everyone. A §5.6 recovery starting mid-fence aborts the fence (crash
// recovery cannot wait); the joiner simply retries.
//
// Leave needs no hold. The leaver announces KindLeave carrying its
// drain boundary — the stream offset where its participation ends
// (the end of its last tensor) — and is marked draining, which
// excuses its coming silence from the failure detector. Survivors
// roll into the next tensor and stall (the pool still counts the
// leaver), which is the commit signal: once every other live worker
// has demonstrably passed the boundary (an update or fence confirm at
// or beyond it proves everything before it is complete), the leaver
// is retired as departed — not dead — and the §5.6 eviction roll call
// restarts the survivors from their frontier under the shrunken
// membership.

// handleJoin processes a joiner's admission solicitation. Joins are
// serialized: one fence at a time, never during §5.6 recovery, never
// while a leave is draining, never before a member is reachable (it
// would hold for no incumbent and admit the joiner alone at offset 0);
// the joiner retransmits KindJoin at its RTO, so a refusal is retried.
func (a *Aggregator) handleJoin(sh *aggShard, src netip.AddrPort) {
	if a.lv == nil {
		return // membership is static without a failure detector
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	lv := a.lv
	w := int(sh.hdr.WorkerID)
	a.job.setPeer(sh.hdr.WorkerID, src)
	if !lv.tracker.Dead(w) && lv.tracker.LastSeen(w) >= 0 && (a.join == nil || a.join.joiner != w) {
		// Already a member: the commit's release was lost.
		a.rerelease(sh, src)
		return
	}
	if a.evict != nil || lv.leaveArmed.Load() {
		return // recovery and drains first; the joiner retries
	}
	if a.join == nil {
		if !a.memberReachableLocked(w) {
			return
		}
		a.join = newRollCall(a.job.gen()+1, len(a.job.peers), lv.tracker, false, w)
	} else if a.join.joiner != w {
		return
	}
	a.directLocked(a.join) // a fresh fence, or the joiner pushing it again
}

// memberReachableLocked reports whether a live member other than w has
// been heard from and its address learned (a shard touches the tracker
// first), so a directive reaches it now, not at the next sweep.
func (a *Aggregator) memberReachableLocked(w int) bool {
	for i := range a.job.peers {
		if i != w && !a.lv.tracker.Dead(i) && a.lv.tracker.LastSeen(i) >= 0 && a.job.peers[i].Load() != nil {
			return true
		}
	}
	return false
}

// handleLeave processes a drain announcement. The announcement is
// always honored (refusing would turn an announced exit into a
// false-positive crash) except when the leaver is the last live
// worker; the ack is the announcement echoed back, which the client
// retransmits until it sees.
func (a *Aggregator) handleLeave(sh *aggShard, src netip.AddrPort) {
	if a.lv == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	lv := a.lv
	p := &sh.hdr
	w := int(p.WorkerID)
	switch {
	case lv.tracker.Dead(w) || lv.tracker.Draining(w):
		// Retired or already draining: just ack again.
	case lv.tracker.AliveCount() <= 1:
		return // never drain the last member: no ack, the drain fails
	default:
		lv.tracker.MarkDraining(w)
		lv.leavePend[w] = true
		lv.leaveOff[w] = p.Off
		lv.leaveArmed.Store(true)
		a.traceCtrl(telemetry.EvDrainStart, int32(w), int64(p.Off))
	}
	a.job.setPeer(p.WorkerID, src)
	sh.ctrl = packet.NewControl(packet.KindLeave, p.WorkerID, a.job.gen(), p.Off, nil).AppendMarshal(sh.ctrl[:0])
	a.reply(sh, sh.ctrl, src)
}

// commitJoinLocked installs the proposed membership — the pool wiped
// under the fence's generation with the joiner admitted — and releases
// everyone at the common boundary.
func (a *Aggregator) commitJoinLocked(rc *rollCall) {
	a.join = nil
	a.traceCtrl(telemetry.EvWorkerJoin, int32(rc.joiner), int64(rc.gen))
	if a.installLocked(a.membersLocked(rc.joiner), rc.gen) != nil {
		return
	}
	a.lv.tracker.MarkAlive(rc.joiner, a.coarse.Load())
	a.releaseLocked(rc, rc.hi)
}

// elasticSweepLocked is the sweeper's membership pass: rebroadcast an
// open fence's directive (control datagrams are as losable as any
// other) and commit any drain whose boundary every other live worker
// has passed. The drain commit runs even while a join fence is open —
// a draining leaver will never confirm a fence, so the leave must win
// — and reuses the §5.6 recovery handshake, which aborts the fence as
// a side effect; the joiner retries after the survivors resume.
func (a *Aggregator) elasticSweepLocked() {
	lv := a.lv
	if a.join != nil {
		a.directLocked(a.join)
	}
	if !lv.leaveArmed.Load() || a.evict != nil {
		return
	}
	committed := false
	for w := range lv.leavePend {
		if !lv.leavePend[w] || !a.drainCommittableLocked(w) {
			continue
		}
		lv.leavePend[w] = false
		lv.tracker.MarkDeparted(w)
		a.traceCtrl(telemetry.EvWorkerLeave, int32(w), int64(lv.leaveOff[w]))
		committed = true
	}
	if !committed {
		return
	}
	pending := false
	for _, p := range lv.leavePend {
		pending = pending || p
	}
	if !pending {
		lv.leaveArmed.Store(false)
	}
	a.startRecoveryLocked()
}

// drainCommittableLocked reports whether leaver w can be retired: at
// least one other live, non-draining worker remains, and every such
// worker has proven progress at or beyond the drain boundary. A
// worker sends an update at offset B only after every prior tensor
// completed for it, so passing the boundary certifies it no longer
// needs the leaver's help with anything the leaver contributed to.
func (a *Aggregator) drainCommittableLocked(w int) bool {
	lv := a.lv
	rest := 0
	for i := range a.job.peers {
		if i == w || lv.tracker.Dead(i) || lv.tracker.Draining(i) || lv.tracker.LastSeen(i) < 0 {
			continue
		}
		if lv.maxOff[i].Load() < lv.leaveOff[w] {
			return false
		}
		rest++
	}
	return rest > 0
}

// Departed reports whether worker w left gracefully — distinct from
// Alive turning false by eviction, so monitoring can tell a clean
// exit from a crash.
func (a *Aggregator) Departed(w int) bool {
	if a.lv == nil {
		return false
	}
	return a.lv.tracker.Departed(w)
}

// Draining reports whether worker w has announced a graceful leave
// and is finishing its in-flight window.
func (a *Aggregator) Draining(w int) bool {
	if a.lv == nil {
		return false
	}
	return a.lv.tracker.Draining(w)
}
