package allreduce

import (
	"fmt"
	"sort"
)

// Schedule is one rank's part in a peer collective, without I/O: the
// steps of the exchange and the buffer it reduces in place. At each
// step the rank sends one range of the buffer to a peer and receives
// one range from a peer; the first half of the steps is the
// reduce-scatter, whose received data is added, the second half the
// all-gather, whose received data overwrites. Each side cuts every
// step's range into segments of at most seg elements, numbered by one
// sequence across the steps, so a host moves segments, not steps: it
// sends segment seq once Ready(seq) holds and applies received segments
// strictly in order. Ring and HalvingDoubling build the two schedules;
// the package's netsim host (Collective) drives them, and the UDP
// transport's mesh drives Ring under an ARQ.
type Schedule struct {
	buf        []int32
	seg        int
	send, recv side
	// applied counts the receive segments applied, in order.
	applied int
}

// span is one step of one side: the peer and the range [lo, hi).
type span struct{ peer, lo, hi int }

// side is one side's steps and segment numbering: start[g] is step g's
// first segment, and the last entry the side's segment count.
type side struct {
	steps []span
	start []int
}

func newSchedule(buf []int32, seg int, send, recv []span) *Schedule {
	return &Schedule{buf: buf, seg: seg, send: cut(send, seg), recv: cut(recv, seg)}
}

func cut(steps []span, seg int) side {
	start := make([]int, len(steps)+1)
	for g, st := range steps {
		start[g+1] = start[g] + (st.hi-st.lo+seg-1)/seg
	}
	return side{steps, start}
}

// Ring returns rank's schedule of the bandwidth-optimal ring
// all-reduce (§2.1) over n ranks: n−1 reduce-scatter steps, then n−1
// all-gather steps. At step g the rank sends chunk (rank−g) mod n to
// its successor and receives chunk (rank−g−1) mod n from its
// predecessor, chunk c being [c·L/n, (c+1)·L/n) of the L-element
// buffer; the all-gather is the same rotation continued.
func Ring(n, rank int, buf []int32, seg int) *Schedule {
	L := len(buf)
	chunk := func(peer, c int) span {
		c = (c%n + n) % n
		return span{peer, c * L / n, (c + 1) * L / n}
	}
	var send, recv []span
	for g := 0; g < 2*(n-1); g++ {
		send = append(send, chunk((rank+1)%n, rank-g))
		recv = append(recv, chunk((rank+n-1)%n, rank-g-1))
	}
	return newSchedule(buf, seg, send, recv)
}

// HalvingDoubling returns rank's schedule of the recursive halving and
// doubling all-reduce (§2.1, [57]) over n ranks, n a power of two:
// log2(n) reduce-scatter steps with partners at distance 1, 2, 4, ...,
// each pair splitting the window it is responsible for (the lower rank
// keeps the lower half), then the mirrored all-gather, each step
// returning the half it received for the half it sent.
func HalvingDoubling(n, rank int, buf []int32, seg int) *Schedule {
	var send, recv []span
	lo, hi := 0, len(buf)
	for d := 1; d < n; d <<= 1 {
		p, mid := rank^d, (lo+hi)/2
		keep, give := span{p, lo, mid}, span{p, mid, hi}
		if rank > p {
			keep, give = give, keep
		}
		send, recv = append(send, give), append(recv, keep)
		lo, hi = keep.lo, keep.hi
	}
	for i := len(send) - 1; i >= 0; i-- {
		send, recv = append(send, recv[i]), append(recv, send[i])
	}
	return newSchedule(buf, seg, send, recv)
}

// at returns the step holding segment seq: the last step starting at
// or before it (an empty step starts where the next one does).
func (sd *side) at(seq int) int { return sort.SearchInts(sd.start, seq+1) - 1 }

// segment returns segment seq's step, peer and element range.
func (sd *side) segment(seq, size int) (g, peer, lo, hi int) {
	g = sd.at(seq)
	st := sd.steps[g]
	lo = st.lo + (seq-sd.start[g])*size
	return g, st.peer, lo, min(lo+size, st.hi)
}

// Sends returns the send side's segment count.
func (s *Schedule) Sends() int { return s.send.start[len(s.send.steps)] }

// Recvs returns the receive side's segment count.
func (s *Schedule) Recvs() int { return s.recv.start[len(s.recv.steps)] }

// Applied returns how many receive segments are applied: the sequence
// number Apply takes next.
func (s *Schedule) Applied() int { return s.applied }

// Ready reports whether send segment seq has all its input: every
// segment received in the steps before its own is applied.
func (s *Schedule) Ready(seq int) bool {
	return s.applied >= s.recv.start[s.send.at(seq)]
}

// Apply folds receive segment seq into the buffer. Segments are taken
// strictly in order, each once, and must have their span's length.
func (s *Schedule) Apply(seq int, data []int32) error {
	if seq != s.applied || seq >= s.Recvs() {
		return fmt.Errorf("allreduce: segment %d applied out of order (next %d of %d)", seq, s.applied, s.Recvs())
	}
	g, _, lo, hi := s.recv.segment(seq, s.seg)
	if len(data) != hi-lo {
		return fmt.Errorf("allreduce: segment %d has %d elements, want %d", seq, len(data), hi-lo)
	}
	if g < len(s.recv.steps)/2 {
		for i, v := range data {
			s.buf[lo+i] += v
		}
	} else {
		copy(s.buf[lo:hi], data)
	}
	s.applied++
	return nil
}

// Done reports whether every receive segment is applied: the buffer
// holds the full sum.
func (s *Schedule) Done() bool { return s.applied == s.Recvs() }
