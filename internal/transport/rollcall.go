package transport

import (
	"net/netip"

	"switchml/internal/faults"
	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// The roll call is §5.6's recovery shape, written once. Every change
// the aggregator's control plane makes to a running job — the eviction
// fence (faults.go), the join fence (elastic.go) and a warm-standby
// adoption (failover.go) — installs a generation, collects each
// member's stream offset, and releases everyone at one offset under
// that generation. The three differ only as data: who must answer,
// whether the install comes before the collection (eviction) or at the
// commit (join, adoption), and whether the release takes the minimum
// offset — where every member can provably resume — or the maximum,
// the boundary every incumbent holds at.

// rollCall is one open roll call. It does no I/O and reads no clock:
// the aggregator feeds it votes under its control mutex and acts on
// completion.
type rollCall struct {
	// gen is the proposed generation the votes answer.
	gen uint16
	// joiner is the worker being admitted, or -1. It must answer, but it
	// has no stream position yet, so its offset is not folded.
	joiner int
	// awaited marks the workers whose vote is still missing; left counts
	// them. voted marks every worker counted, required or not.
	awaited, voted []bool
	left           int
	// lo and hi are the minimum and maximum of the counted offsets.
	lo, hi uint64
}

// newRollCall opens a roll call for generation gen over n workers. Every
// worker must answer except those tr excuses: the retired, and — unless
// the caller is cold, serving a job it has heard nothing of — those it
// has never heard from. A nil tr excuses no one, and the joiner (or -1)
// must answer regardless.
func newRollCall(gen uint16, n int, tr *faults.Tracker, cold bool, joiner int) *rollCall {
	rc := &rollCall{gen: gen, joiner: joiner, awaited: make([]bool, n), voted: make([]bool, n), lo: ^uint64(0)}
	for w := range rc.awaited {
		excused := tr != nil && (tr.Dead(w) || !cold && tr.LastSeen(w) < 0)
		if w == joiner || !excused {
			rc.awaited[w] = true
			rc.left++
		}
	}
	return rc
}

// vote counts worker w's answer carrying offset off — once, however
// often w repeats it — and reports whether the roll call is complete:
// every worker that must answer has.
func (rc *rollCall) vote(w int, off uint64) bool {
	if !rc.voted[w] {
		rc.voted[w] = true
		if rc.awaited[w] {
			rc.awaited[w] = false
			rc.left--
		}
		if w != rc.joiner {
			rc.lo, rc.hi = min(rc.lo, off), max(rc.hi, off)
		}
	}
	return rc.left == 0
}

// awaits reports whether worker w's vote is still missing.
func (rc *rollCall) awaits(w int) bool { return rc.awaited[w] }

// counted reports whether worker w has voted.
func (rc *rollCall) counted(w int) bool { return rc.voted[w] }

// supersededBy reports whether a proposal of generation gen replaces rc:
// there is no open roll call, or gen is strictly newer.
func (rc *rollCall) supersededBy(gen uint16) bool { return rc == nil || int16(gen-rc.gen) > 0 }

// release is what the last committed roll call decided: every member
// resumes under gen from stream offset off.
type release struct {
	gen uint16
	off uint64
}

// resume is the KindResume announcing r to worker w.
func (r *release) resume(w uint16) *packet.Packet {
	return packet.NewControl(packet.KindResume, w, r.gen, r.off, nil)
}

// installLocked makes gen the job's generation over members (nil keeps
// the membership): the pool is wiped, so no slot can mix generations,
// and the last release is retired with the generation it named.
func (a *Aggregator) installLocked(members []int32, gen uint16) error {
	var active []bool
	if members != nil {
		active = make([]bool, len(a.job.peers))
		for _, w := range members {
			active[w] = true
		}
	}
	if err := a.job.sw.Reconfigure(active, gen); err != nil {
		return err
	}
	a.rel.Store(nil)
	a.job.epoch.Store(uint32(gen))
	a.traceCtrl(telemetry.EvReconfigure, -1, int64(gen))
	return nil
}

// releaseLocked commits rc at offset off: the release becomes the one
// the repair paths repeat, and goes to every worker rc counted.
func (a *Aggregator) releaseLocked(rc *rollCall, off uint64) {
	r := &release{gen: rc.gen, off: off}
	a.rel.Store(r)
	a.traceCtrl(telemetry.EvResume, -1, int64(off))
	a.broadcastLocked(r.resume(0), rc.counted)
}

// rerelease answers a worker that missed the last release — it still
// speaks for the generation before, or repeats its vote — with the
// release again, and answers nothing while none stands.
func (a *Aggregator) rerelease(sh *aggShard, src netip.AddrPort) {
	if r := a.rel.Load(); r != nil {
		sh.ctrl = r.resume(sh.hdr.WorkerID).AppendMarshal(sh.ctrl[:0])
		a.reply(sh, sh.ctrl, src)
	}
}

// directLocked (re)sends rc's directive to every worker it still awaits:
// KindReconfig proposing rc's generation and membership, Ver=1 when it
// admits a joiner.
func (a *Aggregator) directLocked(rc *rollCall) {
	p := packet.NewControl(packet.KindReconfig, 0, rc.gen, 0, a.membersLocked(rc.joiner))
	if rc.joiner >= 0 {
		p.Ver = 1
	}
	a.broadcastLocked(p, rc.awaits)
}

// broadcastLocked sends the control packet p to every worker to admits
// whose address is known. Recipients differ only in the worker-id
// field, so p is marshalled once, into the control buffer, and the id
// patched per peer.
func (a *Aggregator) broadcastLocked(p *packet.Packet, to func(w int) bool) {
	a.cbuf = p.AppendMarshal(a.cbuf[:0])
	for w := range a.job.peers {
		ap := a.job.peers[w].Load()
		if ap == nil || !to(w) || packet.PatchWorkerID(a.cbuf, uint16(w)) != nil {
			continue
		}
		a.writeCtrl(a.cbuf, *ap)
	}
}

// membersLocked is the membership a directive proposes, as a packet
// vector: every worker not retired, and the joiner being admitted (or
// -1).
//
//switchml:allow hotpath -- recovery control plane: the update path calls it only to answer an evicted worker
func (a *Aggregator) membersLocked(joiner int) []int32 {
	var vec []int32
	for w := range a.job.peers {
		if w == joiner || !a.lv.tracker.Dead(w) {
			vec = append(vec, int32(w))
		}
	}
	return vec
}
