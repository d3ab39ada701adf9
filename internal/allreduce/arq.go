package allreduce

import (
	"fmt"

	"switchml/internal/packet"
)

// ARQWindow is the ARQ's go-back-N window in segments, ARQReplay how
// many segments from the ack point a replay re-sends (capped to keep a
// long outage from bursting), and lingerAcks how many times a rank whose
// part of a round is done re-sends its final ack while no notice comes.
const ARQWindow, ARQReplay, lingerAcks = 32, 16, 3

// ARQ is one rank's loss recovery for one round of a Ring schedule over
// a lossy datagram network, without I/O. The host feeds it the clock (in
// any int64 unit, the rto's) and the ring datagrams it receives, decoded,
// wakes it by Deadline, and sends the datagrams it hands to out, stamped
// with the host's worker id.
//
// A ring datagram carries the round in JobID and the sender's rank in
// WorkerID. A segment is a KindFallbackData: Idx its send sequence
// number, Off the element offset of its Vector in the buffer. An ack is
// a KindFallbackAck: Idx the receive segments applied, Off the segment
// that drew it; Ver 1 marks it the end-of-round notice instead.
//
// The send side is go-back-N over the schedule's sequence numbers. Up
// to ARQWindow segments past the ack point are in flight, each sent once
// Ready. An ack past the ack point slides the window and restarts the
// replay timer. An RTO after the last send or progress, up to ARQReplay
// segments from the ack point are re-sent. An ack of the ack point drawn
// by data past it is a duplicate, and the second one goes back N: the
// window is re-sent from the ack point, once per ack point. An ack drawn
// by a segment the successor already had says nothing is lost.
//
// The receive side applies only the segment next in order, each once,
// and answers every segment with the cumulative ack, a duplicate
// included, for as long as the host keeps the machine. Only the round's
// segments from the predecessor and acks from the successor are taken.
//
// The end of the round: a rank whose every sent segment is acked says
// so to its successor (the notice), in answer to each ack. A rank's part
// is done once every segment it sent is acked and every one it receives
// is applied; it then re-sends its final ack to its predecessor at every
// replay timeout, so that a lost last ack is repaired even when the
// predecessor is too slow to replay before the rank returns. The round
// is over for the rank once the predecessor's notice comes, or after
// lingerAcks re-sends.
type ARQ struct {
	s          *Schedule
	round      uint16
	rto        int64
	succ, pred int
	out        func(to int, p packet.Packet)
	// acked counts the send segments the successor has acked, next is
	// the next to send, sent how many were ever sent, dups the duplicate
	// acks of the ack point, and reacks the final ack's re-sends — all
	// of them spent once the predecessor's notice comes.
	acked, next, sent, dups, reacks int
	// due is when the replay goes out.
	due int64
}

// NewARQ starts round of the Ring schedule s, which must have segments
// to send and receive, at now with replay timeout rto; out sends
// datagram p to rank to.
func NewARQ(round uint16, s *Schedule, rto, now int64, out func(to int, p packet.Packet)) *ARQ {
	a := &ARQ{s: s, round: round, rto: rto, out: out, due: now}
	_, a.succ, _, _ = s.send.segment(0, s.seg)
	_, a.pred, _, _ = s.recv.segment(0, s.seg)
	return a
}

// Send sends every segment due at now, in order: the window's refill or,
// at the replay timer, the replay and a done rank's final ack. It
// returns how many of the segments went out before.
func (a *ARQ) Send(now int64) (resent int) {
	for ; a.next < a.s.Sends() && a.next-a.acked < ARQWindow && a.s.Ready(a.next); a.next++ {
		if a.next < a.sent {
			resent++
		}
		a.send(a.next)
		a.due = now + a.rto
	}
	a.sent = max(a.sent, a.next)
	if now >= a.due {
		for q := a.acked; q < min(a.next, a.acked+ARQReplay); q++ {
			a.send(q)
			resent++
		}
		if a.idle() && a.reacks < lingerAcks {
			a.reacks++
			a.reply(a.pred, a.s.Recvs(), 0, 0)
		}
		a.due = now + a.rto
	}
	return resent
}

func (a *ARQ) send(seq int) {
	_, to, lo, hi := a.s.send.segment(seq, a.s.seg)
	a.out(to, packet.Packet{Kind: packet.KindFallbackData, JobID: a.round, Idx: uint32(seq), Off: uint64(lo), Vector: a.s.buf[lo:hi]})
}

// reply sends rank to an ack: cum segments applied, drawn by trigger,
// or with ver 1 the end-of-round notice.
func (a *ARQ) reply(to, cum, trigger int, ver uint8) {
	a.out(to, packet.Packet{Kind: packet.KindFallbackAck, JobID: a.round, Idx: uint32(cum), Off: uint64(trigger), Ver: ver})
}

// Deadline returns when Send next has something to do.
func (a *ARQ) Deadline() int64 { return a.due }

// Finished reports whether the rank's part of the round is over.
func (a *ARQ) Finished() bool { return a.idle() && a.reacks >= lingerAcks }

// idle reports whether every segment sent is acked and every one
// received applied: all that is left is to answer the predecessor.
func (a *ARQ) idle() bool { return a.acked == a.s.Sends() && a.s.Done() }

// In takes ring datagram p at now and answers it. A datagram of another
// round, or for a nil ARQ, is dropped. In reports false for one from a
// rank off the link, or a segment whose offset or length is not its
// span's, which it drops too, for the host to count.
func (a *ARQ) In(now int64, p *packet.Packet) bool {
	if a == nil || p.JobID != a.round {
		return true
	}
	from, seq := int(p.WorkerID), int(p.Idx)
	if p.Kind == packet.KindFallbackData {
		if seq < 0 || seq >= a.s.Recvs() {
			return false
		}
		_, peer, lo, _ := a.s.recv.segment(seq, a.s.seg)
		if peer != from || seq == a.s.Applied() && p.Off != uint64(lo) {
			return false
		}
		if seq == a.s.Applied() && a.s.Apply(seq, p.Vector) != nil {
			return false // not of its span's length
		}
		a.reply(from, a.s.Applied(), seq, 0)
		return true
	}
	switch cum := min(seq, a.s.Sends()); {
	case p.Ver == 1 && from == a.pred:
		a.reacks = lingerAcks
		return true
	case p.Ver == 1 || from != a.succ:
		return false
	case cum > a.acked:
		a.acked, a.dups, a.next, a.due = cum, 0, max(a.next, cum), now+a.rto
	case seq == a.acked && a.acked < a.next && p.Off > uint64(seq):
		if a.dups++; a.dups == 2 {
			a.next = a.acked
		}
	}
	if a.acked == a.s.Sends() {
		a.reply(from, 0, 0, 1)
	}
	return true
}

// String reports the round's progress.
func (a *ARQ) String() string {
	return fmt.Sprintf("%d/%d sent-acked, %d/%d received", a.acked, a.s.Sends(), a.s.Applied(), a.s.Recvs())
}
