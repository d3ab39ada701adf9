package core

import (
	"math"

	"switchml/internal/packet"
)

// Pump is a worker's loss-recovery machine: the send stamps, the
// per-slot timeout backoff, the round-trip estimators and the rules
// that decide which in-flight packets to send again. Like the Worker
// it stands beside it performs no I/O and reads no clock: the host
// reports every transmission (Sent) and every result (Result) with its
// own reading of time, in nanoseconds from any origin it likes — a
// burst clock over UDP, virtual time in a test — asks Due what to
// retransmit after each burst of results and on each wake-up, and
// sleeps until Deadline.
//
// Due climbs an evidence ladder, strongest evidence first:
//
//   - lap: Worker.Lapped — a clean packet sent a whole window of
//     sends later has been answered. Clock-free.
//   - overtake: a clean packet sent a whole probe timeout (PTO) later
//     has been answered. The same rule in time rather than in sends,
//     for when sends are too sparse to lap anything: the drained tail
//     of a tensor, where the few slots that lost more packets finish
//     alone. It compares two send stamps, never a stamp against now,
//     so a host that was descheduled with results queued behind it
//     reads no loss into its own delay.
//   - tail probe: the newest pending packet, which nothing in flight
//     was sent after, is a PTO old, in a window that has begun to
//     drain. Silence is the only evidence there can be for it, so this
//     is the one rule that reads now, and its deadline the one a
//     lossless run arms ahead of the timeout — for the last window of
//     each tensor only. Silence that outlasts the probe moves it on, a
//     PTO at a time, to the packets probed less often: the newest may
//     be waiting for a peer whose own newest is waiting for us.
//   - timeout: Algorithm 4's timer, the RTO doubled per consecutive
//     expiry (64x at most), floored by the configured value.
//
// "Clean" is Karn's rule: a packet that was never retransmitted, so
// its result answers that one send. An overtake or a tail probe is not
// a timeout and leaves the timeout's backoff alone; it doubles the PTO
// of the chunk it re-sends, and once that reaches the RTO the chunk is
// the timer's. A silent switch therefore costs a chunk at most
// log2(RTO/PTO) probes before the timeout's own backoff sequence takes
// over, unchanged. With no round-trip sample there is no PTO and no
// probe.
type Pump struct {
	w        *Worker
	rto      int64
	adaptive bool
	ladder   bool
	// window is the Worker window generation the slots belong to; the
	// Worker bumps its own whenever it discards what is in flight
	// (Resume, JoinAt, InstallHostAggregate), which resets the slots.
	window uint64
	slots  []pumpSlot
	// ackedAt is the latest send stamp a clean result has answered, the
	// time-domain twin of Worker.acked. openedAt is when the switch
	// first answered the tensor in progress, and probedAt when the tail
	// was last probed, slot probedIdx, until that slot is answered (then
	// 0): the tail probe counts a packet's age from the latest of these
	// and its send. How long the switch waited for the slowest worker to
	// start says nothing about loss, and one probe a PTO is all that
	// silence is evidence for, however many other slots a slow peer
	// completes meanwhile.
	ackedAt, openedAt, probedAt int64
	probedIdx                   uint32
	// sample is the smallest clean round trip of the burst in progress
	// (0: none yet). One burst's results share one reading of now and
	// every stamp errs early, so the smallest is the least wrong; Due
	// folds it into the estimators, one sample per burst, and keeps it
	// in folded for the host to publish.
	sample, folded int64
	// srtt/rttvar are the Jacobson estimator (RFC 6298 gains) that
	// AdaptiveRTO turns into the timeout; srtt == 0 means no sample.
	srtt, rttvar int64
	// mean is the estimator behind the PTO: the average of the first
	// meanSpan samples, an exponential average with that span after,
	// each sample counted for at most meanClamp times the average. A
	// slot's result waits for the slowest worker, so one clean sample
	// can span a peer's whole timeout; Jacobson's gains follow such a
	// sample far enough to push the PTO past the RTO for the rest of a
	// tensor, this one moves by a twentieth. seen counts samples up to
	// meanSpan.
	mean, seen int64
}

// pumpSlot is the recovery state of one slot's in-flight chunk.
type pumpSlot struct {
	sentAt int64
	// backoff counts consecutive timeouts, probes the overtake and tail
	// probe retransmissions of the chunk in flight; a result that moves
	// the slot on clears both.
	backoff, probes uint8
}

const (
	// maxBackoff caps the timeout at 64x its base, preventing
	// retransmission storms when the configured RTO sits below the
	// path RTT without ever idling a slot for minutes.
	maxBackoff = 6
	// ptoRTTs is the PTO in mean round trips: how far results may be
	// reordered in time before the overtake rule calls it loss, and how
	// long a silence the tail probe waits out. On the loopback rig the
	// mean burst-clock round trip is 75-150 us against inter-burst gaps
	// of 70 us (p99 under 250 us). Three of them sit above both, and
	// inside the few hundred microseconds a drained tail's last slots
	// keep running for, so that their sends can still overtake a loss:
	// at four the last 8,192 elements of a lossy tensor took half as
	// long again; at two, results held back by a peer's own recovery
	// were overtaken and duplicated noticeably more often.
	ptoRTTs = 3
	// meanSpan and meanClamp shape the PTO's estimator (Pump.mean).
	meanSpan  = 64
	meanClamp = 4
	// never is the deadline of a machine with nothing in flight.
	never = math.MaxInt64
)

// NewPump returns the recovery machine for w. rto is the base timeout
// in the host's nanoseconds; with adaptive set it is the floor of
// SRTT + 4*RTTVAR (and 64*rto the ceiling) instead of the operating
// point. ladder climbs the whole evidence ladder; without it Due
// returns timed-out slots only, Lapped is never asked and PTO is 0.
func NewPump(w *Worker, rto int64, adaptive, ladder bool) *Pump {
	return &Pump{w: w, rto: rto, adaptive: adaptive, ladder: ladder, window: w.window, slots: make([]pumpSlot, len(w.pend))}
}

// sync forgets per-slot state that belonged to a window the Worker has
// since discarded. The estimators describe the path, not the window,
// and stay.
func (p *Pump) sync() {
	if p.window == p.w.window {
		return
	}
	p.window = p.w.window
	for i := range p.slots {
		p.slots[i] = pumpSlot{}
	}
	p.sample = 0
}

// Sent stamps slot idx's in-flight packet — first transmission or
// retransmission — as sent at now. The host calls it for every update
// it transmits, before it next calls Result, and a host that transmits
// later than the Worker decides (a simulated one, behind its cores'
// backlogs) at the decision too. The walks read the pending packets in
// stamp order, the Worker queues them in decision order: Sent moves a
// packet stamped out of that order to the newest end.
//
//switchml:hotpath
func (p *Pump) Sent(idx uint32, now int64) {
	p.sync()
	if int(idx) >= len(p.slots) {
		return
	}
	p.slots[idx].sentAt = now
	if w := p.w; w.newest != int32(idx) && w.pend[idx].active {
		w.unlink(int32(idx))
		w.enqueue(int32(idx))
	}
}

// Result is Worker.HandleResult with the bookkeeping a result implies:
// a clean one is a round-trip sample and overtake evidence, and any
// result that moves its slot on (or shows it idle) ends that slot's
// loss streak. A result the Worker ignores changes nothing.
//
// The result arrives as it does off the wire: header h, as
// packet.ParseHeader decoded it, and payload, its elements where they
// lie in the datagram. The Worker makes every check HandleResult makes
// on the header and the payload's length first; only a result that
// passes them all is decoded, straight into the aggregate, so an
// ignored one writes nothing. The aggregate is the buffer the host lent
// for the tensor (Worker.Lend) — the slice its caller gets back, so the
// decode is the result's only pass on this side of the wire — or the
// Worker's own. The follow-up is the Worker's Send, nil when there is
// none, for the host to encode from the tensor before it next calls
// the Worker.
//
//switchml:hotpath
func (p *Pump) Result(h *packet.Header, payload []byte, now int64) (next *Send, done bool) {
	dst, next, done := p.result(h.Kind, h.JobID, h.Idx, h.Off, h.Ver, len(payload)/packet.ElemBytes, now)
	packet.DecodeElems(dst, payload)
	return next, done
}

// HandleResult is Result for a host that holds the result as a decoded
// packet, as Worker.HandleResult is beside it: the elements are copied
// into the aggregate, and the follow-up comes back as a pooled packet.
//
//switchml:hotpath
func (p *Pump) HandleResult(r *packet.Packet, now int64) (next *packet.Packet, done bool) {
	dst, s, done := p.result(r.Kind, r.JobID, r.Idx, r.Off, r.Ver, len(r.Vector), now)
	copy(dst, r.Vector)
	return s.Packet(), done
}

// result is what Result and HandleResult share: the Worker's checks on
// the result, the slot's retirement, the pump's books. It returns the
// span of the aggregate the caller writes the elements to, nil if none.
//
//switchml:hotpath
func (p *Pump) result(kind packet.Kind, job uint16, idx uint32, off uint64, ver uint8, n int, now int64) (dst []int32, next *Send, done bool) {
	p.sync()
	w := p.w
	// Karn's rule: a packet that was retransmitted, or that Due has
	// told the host to retransmit (backoff, probes), answers ambiguously.
	clean := w.Pending(idx) && !w.pend[idx].retx && p.slots[idx].backoff == 0 && p.slots[idx].probes == 0
	first := w.remaining == len(w.u)
	dst, ok := w.admit(kind, job, idx, off, ver, n)
	if ok {
		// Retire the slot first: its counters are atomic adds, which
		// would otherwise wait for the elements' stores to the aggregate
		// to drain. complete reads nothing of the span admit returned.
		next, done = w.complete(idx)
	}
	if int(idx) >= len(p.slots) || (!ok && w.Pending(idx)) {
		return dst, next, done
	}
	s := &p.slots[idx]
	if clean {
		if rtt := now - s.sentAt; rtt > 0 && (p.sample == 0 || rtt < p.sample) {
			p.sample = rtt
		}
		if s.sentAt > p.ackedAt {
			p.ackedAt = s.sentAt
		}
	}
	s.backoff, s.probes = 0, 0
	if first {
		p.openedAt = now
	}
	if idx == p.probedIdx {
		p.probedAt = 0 // the probe is answered: the next tail owes nothing to its silence
	}
	return dst, next, done
}

// fold feeds the burst's sample, if it produced one, to the
// estimators.
func (p *Pump) fold() {
	s := p.sample
	p.sample, p.folded = 0, s
	if s == 0 {
		return
	}
	if p.srtt == 0 {
		p.srtt, p.rttvar = s, s/2
	} else {
		diff := p.srtt - s
		if diff < 0 {
			diff = -diff
		}
		p.rttvar += (diff - p.rttvar) / 4
		p.srtt += (s - p.srtt) / 8
	}
	if !p.ladder {
		return // the mean serves the PTO only
	}
	if p.seen < meanSpan {
		p.seen++
	}
	if p.seen > 1 && s > meanClamp*p.mean {
		s = meanClamp * p.mean
	}
	p.mean += (s - p.mean) / p.seen
}

// Sample returns the round-trip sample the last Due folded into the
// estimators, 0 if its burst had no clean result.
func (p *Pump) Sample() int64 { return p.folded }

// SRTT returns the smoothed round-trip estimate, 0 before the first
// sample.
func (p *Pump) SRTT() int64 { return p.srtt }

// RTO returns the base timeout, before any slot's backoff: the
// configured value, or with adaptive set SRTT + 4*RTTVAR clamped to
// [rto, 64*rto].
func (p *Pump) RTO() int64 {
	if !p.adaptive || p.srtt == 0 {
		return p.rto
	}
	base := p.srtt + 4*p.rttvar
	if base < p.rto {
		return p.rto
	}
	if max := p.rto << maxBackoff; base > max {
		return max
	}
	return base
}

// PTO returns the base probe timeout, before any chunk's doubling:
// ptoRTTs mean round trips, never above the RTO — where it means no
// probing, as does 0, its value until a clean result has been seen.
func (p *Pump) PTO() int64 {
	if !p.ladder {
		return 0
	}
	pto, rto := ptoRTTs*p.mean, p.RTO()
	if pto > rto {
		return rto
	}
	return pto
}

// Timeout returns slot idx's effective timeout: the base RTO with the
// slot's backoff applied.
func (p *Pump) Timeout(idx uint32) int64 { return p.RTO() << p.slots[idx].backoff }

// tail returns the slot the tail probe watches — of the pending packets
// probed least often, the one sent last — or -1 while there is none to
// watch: the ladder is off, nothing is pending but what has timed out
// (which is the timer's from then on, on the timer's own backoff), or
// the window has not begun to drain. Until some slot has been answered
// and found no chunk left to send, every result still triggers a send
// that can overtake or lap whatever is lost, so no packet is the tail;
// and a switch that has answered nothing of the tensor more likely waits
// for a worker that has not started it than lost a whole window. Both
// are the timeout's to decide.
//
// The walk runs from the newest packet back and ends at the first one
// never probed: a probe renumbers its packet as the newest, so the
// probed ones are the few it passes on the way.
func (p *Pump) tail() int {
	w := p.w
	if !p.ladder || w.remaining == len(w.u) || w.inflight == len(w.pend) {
		return -1
	}
	n := -1
	for i := w.newest; i >= 0; i = w.pend[i].prev {
		w.examined++
		s := &p.slots[i]
		if s.backoff != 0 {
			continue
		}
		if n < 0 || s.probes < p.slots[n].probes {
			n = int(i)
		}
		if s.probes == 0 {
			break
		}
	}
	return n
}

// tailSince returns the time the tail probe counts the age of slot s's
// packet from: its send, or since then the tensor's first result or a
// tail probe that is still unanswered.
func (p *Pump) tailSince(s *pumpSlot) int64 {
	since := s.sentAt
	if p.openedAt > since {
		since = p.openedAt
	}
	if p.probedAt > since {
		since = p.probedAt
	}
	return since
}

// Due appends to dst the slots whose in-flight packet should be sent
// again as of now and returns it; the host calls Worker.Retransmit and
// Sent for each. Call it after every burst of results — lap and
// overtake ride the ack clock — and whenever Deadline passes. It
// allocates only if dst must grow beyond PoolSize entries.
//
// Due stamps each slot it returns as sent at now, so a host that
// transmits later (see Sent) is not told again meanwhile.
//
// Every rule asks which pending packets are old enough, in sends or in
// time, and the pending packets are queued in the order they were
// stamped (see Sent), on a clock that does not run backwards: Due
// walks from the oldest and stops at the first packet too young for
// the timeout and for overtaking, which in a lossless run is the
// first. Its cost follows what is overdue, not the pool size.
//
//switchml:hotpath
func (p *Pump) Due(now int64, dst []uint32) []uint32 {
	p.sync()
	p.fold()
	w, n := p.w, len(dst)
	rto, pto, tail := p.RTO(), int64(0), -1
	if p.ladder {
		dst = w.Lapped(dst)
		pto, tail = p.PTO(), p.tail()
	}
	for i := w.oldest; i >= 0; i = w.pend[i].next {
		w.examined++
		pd, s := &w.pend[i], &p.slots[i]
		if now-s.sentAt < rto && (pto == 0 || p.ackedAt-s.sentAt < pto) {
			break // nor is anything sent after it
		}
		if pd.lapped {
			continue // reported just above
		}
		switch {
		case now-s.sentAt >= rto<<s.backoff:
			if s.backoff < maxBackoff {
				s.backoff++
			}
		case pto != 0 && p.ackedAt-s.sentAt >= pto<<s.probes:
			// Overtaken: a clean packet sent this chunk's probe timeout
			// later has been answered. The probe timeout doubles per
			// probe with no bound of its own — once it meets the RTO the
			// timeout above expires first.
			s.probes++
			pd.probed = true
		default:
			continue
		}
		if int(i) == tail {
			tail = -1 // reported; not to be probed as well
		}
		dst = append(dst, uint32(i)) //switchml:allow hotpath -- append into the caller's reused buffer; at most PoolSize entries
	}
	// The tail probe's packet is the newest or near it, past where the
	// walk stopped.
	if tail >= 0 && pto != 0 && !w.pend[tail].lapped {
		if s := &p.slots[tail]; now-p.tailSince(s) >= pto<<s.probes {
			p.probedAt, p.probedIdx = now, uint32(tail)
			s.probes++
			w.pend[tail].probed = true
			dst = append(dst, uint32(tail)) //switchml:allow hotpath -- as above, one more
		}
	}
	for _, idx := range dst[n:] {
		p.Sent(idx, now)
	}
	return dst
}

// NextTimeout returns the soonest timeout in flight, math.MaxInt64 if
// none, and its slot (the first stamped of several due together): the
// oldest packet's that has not backed off, or a backed-off one's ahead.
//
//switchml:hotpath
func (p *Pump) NextTimeout() (at int64, idx uint32) {
	p.sync()
	w := p.w
	at = never
	rto := p.RTO()
	for i := w.oldest; i >= 0; i = w.pend[i].next {
		w.examined++
		s := &p.slots[i]
		if t := s.sentAt + rto<<s.backoff; t < at {
			at, idx = t, uint32(i)
		}
		if s.backoff == 0 {
			break
		}
	}
	return at, idx
}

// TimedOut reports whether slot idx, as just returned by Due, was
// returned because its timeout expired rather than on lap, overtake or
// tail-probe evidence.
func (p *Pump) TimedOut(idx uint32) bool {
	pd := &p.w.pend[idx]
	return pd.active && !pd.lapped && !pd.probed
}

// Deadline returns the earliest time at which Due can return a slot
// without a further result arriving: the soonest timeout, or the tail
// probe. Nothing else is worth waking for — lap and overtake fire on
// results. It returns math.MaxInt64 with nothing in flight.
//
//switchml:hotpath
func (p *Pump) Deadline() int64 {
	d, _ := p.NextTimeout()
	if tail := p.tail(); tail >= 0 {
		s := &p.slots[tail]
		if t := p.tailSince(s) + p.PTO()<<s.probes; p.PTO() != 0 && t < d {
			d = t
		}
	}
	return d
}
