package allreduce

import (
	"math/rand"
	"sort"
	"testing"

	"switchml/internal/netsim"
)

// TestBaselineTimesPinned pins the simulated completion time of the
// ring and halving-doubling baselines over worker counts, tensor sizes
// around and beyond the worker count, and a burst size that does not
// divide the chunks: the step schedule, its segmentation and its kick
// order are all in the figure, so any change to them shows.
func TestBaselineTimesPinned(t *testing.T) {
	for _, tc := range []struct {
		kind        string
		n, d, burst int
		want        netsim.Time
	}{
		{"ring", 1, 0, 0, 0},
		{"ring", 1, 0, 4096, 0},
		{"ring", 1, 1, 0, 0},
		{"ring", 1, 1, 4096, 0},
		{"ring", 1, 1000, 0, 0},
		{"ring", 1, 1000, 4096, 0},
		{"ring", 1, 65536, 0, 0},
		{"ring", 1, 65536, 4096, 0},
		{"ring", 2, 0, 0, 0},
		{"ring", 2, 0, 4096, 0},
		{"ring", 2, 1, 0, 4992},
		{"ring", 2, 1, 4096, 4992},
		{"ring", 2, 1000, 0, 11556},
		{"ring", 2, 1000, 4096, 11556},
		{"ring", 2, 65536, 0, 331464},
		{"ring", 2, 65536, 4096, 229926},
		{"ring", 3, 0, 0, 0},
		{"ring", 3, 0, 4096, 0},
		{"ring", 3, 1, 0, 9984},
		{"ring", 3, 1, 4096, 9984},
		{"ring", 3, 2, 0, 9984},
		{"ring", 3, 2, 4096, 9984},
		{"ring", 3, 1000, 0, 18504},
		{"ring", 3, 1000, 4096, 18504},
		{"ring", 3, 65536, 0, 517752},
		{"ring", 3, 65536, 4096, 314324},
		{"ring", 5, 0, 0, 0},
		{"ring", 5, 0, 4096, 0},
		{"ring", 5, 1, 0, 19968},
		{"ring", 5, 1, 4096, 19968},
		{"ring", 5, 4, 0, 19968},
		{"ring", 5, 4, 4096, 19968},
		{"ring", 5, 1000, 0, 30144},
		{"ring", 5, 1000, 4096, 30144},
		{"ring", 5, 65536, 0, 716128},
		{"ring", 5, 65536, 4096, 396008},
		{"ring", 8, 0, 0, 0},
		{"ring", 8, 0, 4096, 0},
		{"ring", 8, 1, 0, 34944},
		{"ring", 8, 1, 4096, 34944},
		{"ring", 8, 7, 0, 34944},
		{"ring", 8, 7, 4096, 34944},
		{"ring", 8, 1000, 0, 46032},
		{"ring", 8, 1000, 4096, 46032},
		{"ring", 8, 65536, 0, 796432},
		{"ring", 8, 65536, 4096, 463386},
		{"hd", 1, 0, 0, 0},
		{"hd", 1, 0, 4096, 0},
		{"hd", 1, 1, 0, 0},
		{"hd", 1, 1, 4096, 0},
		{"hd", 1, 1000, 0, 0},
		{"hd", 1, 1000, 4096, 0},
		{"hd", 1, 65536, 0, 0},
		{"hd", 1, 65536, 4096, 0},
		{"hd", 2, 0, 0, 0},
		{"hd", 2, 0, 4096, 0},
		{"hd", 2, 1, 0, 4992},
		{"hd", 2, 1, 4096, 4992},
		{"hd", 2, 1000, 0, 11556},
		{"hd", 2, 1000, 4096, 11556},
		{"hd", 2, 65536, 0, 331464},
		{"hd", 2, 65536, 4096, 229926},
		{"hd", 8, 0, 0, 0},
		{"hd", 8, 0, 4096, 0},
		{"hd", 8, 1, 0, 14976},
		{"hd", 8, 1, 4096, 14976},
		{"hd", 8, 7, 0, 15024},
		{"hd", 8, 7, 4096, 15024},
		{"hd", 8, 1000, 0, 26308},
		{"hd", 8, 1000, 4096, 26308},
		{"hd", 8, 65536, 0, 667816},
		{"hd", 8, 65536, 4096, 416898},
	} {
		run := RunRing
		if tc.kind == "hd" {
			run = RunHalvingDoubling
		}
		us, want := randUpdates(rand.New(rand.NewSource(int64(tc.n*131+tc.d))), tc.n, tc.d)
		res, err := run(Config{Workers: tc.n, BurstBytes: tc.burst}, us)
		if err != nil {
			t.Fatalf("%s n=%d d=%d burst=%d: %v", tc.kind, tc.n, tc.d, tc.burst, err)
		}
		if res.Time != tc.want || res.Elems != tc.d {
			t.Errorf("%s n=%d d=%d burst=%d: time %d, %d elements; want %d, %d", tc.kind, tc.n, tc.d, tc.burst, res.Time, res.Elems, tc.want, tc.d)
		}
		checkAll(t, us, want)
	}
}

// FuzzCollectiveSchedule runs a fuzz-chosen schedule — kind, ranks,
// tensor length, segment size — on two hosts under a fuzz-chosen
// delivery order: interleaved arbitrarily across links but FIFO on each
// (sender, receiver) link. The first is Collective itself, which holds
// segments that arrive ahead of their turn. The second drops them, as
// the UDP mesh does, and recovers by go-back-N: acks are cumulative per
// link, a duplicate ack drawn by data beyond the ack point re-sends from
// it, some segments are lost in flight, and a timeout with nothing in
// flight replays every link from its ack point. Every rank must end
// with the exact sum, checked in int64, having applied every receive
// segment exactly once.
func FuzzCollectiveSchedule(f *testing.F) {
	f.Add(uint8(3), uint16(10), uint8(2), false, []byte{0, 1, 2, 3, 0x81})
	f.Add(uint8(4), uint16(33), uint8(3), true, []byte{7, 0x80, 5, 1, 9})
	f.Add(uint8(8), uint16(5), uint8(1), true, []byte{})
	f.Add(uint8(1), uint16(7), uint8(4), false, []byte{1})
	f.Add(uint8(5), uint16(0), uint8(1), false, []byte{})
	f.Fuzz(func(t *testing.T, nRaw uint8, lRaw uint16, segRaw uint8, hd bool, order []byte) {
		n, L, seg := int(nRaw%9)+1, int(lRaw%400), int(segRaw%32)+1
		build := Ring
		if hd {
			for n&(n-1) != 0 {
				n--
			}
			build = HalvingDoubling
		}
		bufs, want := fuzzBuffers(n, L)
		net := &fuzzNet{order: order}
		c, err := NewCollective(Config{Workers: n, BurstBytes: 4 * seg}, bufs, build,
			func(m PeerMsg) { net.push(m.PeerSrc(), m.PeerDst(), m) }, func() netsim.Time { return 0 }, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		for l, ok := net.pick(false); ok; l, ok = net.pick(false) {
			c.Deliver(net.pop(l).(*burst))
		}
		for _, r := range c.ranks {
			if r.s.Applied() != r.s.Recvs() || len(r.held) != 0 {
				t.Fatalf("hold host rank %d: %d of %d segments applied, %d held", r.id, r.s.Applied(), r.s.Recvs(), len(r.held))
			}
		}
		if !c.Done() {
			t.Fatal("hold host: collective not done")
		}
		checkSums(t, "hold host", bufs, want)

		bufs, want = fuzzBuffers(n, L)
		gbnRun(t, n, build, seg, bufs, &fuzzNet{order: order})
		checkSums(t, "go-back-N host", bufs, want)
	})
}

// fuzzBuffers returns n buffers of L elements and their sum in int64.
func fuzzBuffers(n, L int) ([][]int32, []int64) {
	bufs, want := make([][]int32, n), make([]int64, L)
	for r := range bufs {
		bufs[r] = make([]int32, L)
		for i := range bufs[r] {
			v := int32((r*7919+i*104729)%200001 - 100000)
			bufs[r][i] = v
			want[i] += int64(v)
		}
	}
	return bufs, want
}

func checkSums(t *testing.T, host string, bufs [][]int32, want []int64) {
	t.Helper()
	for r, b := range bufs {
		for i, v := range b {
			if int64(v) != want[i] {
				t.Fatalf("%s: rank %d element %d = %d, want %d", host, r, i, v, want[i])
			}
		}
	}
}

// fuzzNet is a set of FIFO links, one per (sender, receiver) pair,
// whose delivery order the fuzz input picks.
type fuzzNet struct {
	links map[[2]int][]any
	order []byte
}

func (nw *fuzzNet) push(src, dst int, m any) {
	if nw.links == nil {
		nw.links = map[[2]int][]any{}
	}
	nw.links[[2]int{src, dst}] = append(nw.links[[2]int{src, dst}], m)
}

func (nw *fuzzNet) pop(l [2]int) any {
	m := nw.links[l][0]
	nw.links[l] = nw.links[l][1:]
	return m
}

// pick returns the link to deliver from next, chosen among the
// non-empty ones in a fixed order by the next fuzz byte (the first
// once the input runs out); with lossy set, a byte's high bit also
// loses the link's head.
func (nw *fuzzNet) pick(lossy bool) ([2]int, bool) {
	var ready [][2]int
	for l, q := range nw.links {
		if len(q) > 0 {
			ready = append(ready, l)
		}
	}
	if len(ready) == 0 {
		return [2]int{}, false
	}
	sort.Slice(ready, func(i, j int) bool {
		return ready[i][0] < ready[j][0] || ready[i][0] == ready[j][0] && ready[i][1] < ready[j][1]
	})
	if len(nw.order) == 0 {
		return ready[0], true
	}
	b := nw.order[0]
	nw.order = nw.order[1:]
	l := ready[int(b&0x7f)%len(ready)]
	if lossy && b&0x80 != 0 {
		nw.pop(l)
		return nw.pick(lossy)
	}
	return l, true
}

// gbnSeg is a segment on the go-back-N host's wire: its position in
// its link's stream and its data.
type gbnSeg struct {
	idx  int
	data []int32
}

// gbnRank is one rank of the go-back-N host. Segments are numbered per
// link: the k-th segment a rank sends to a peer is the k-th that peer
// receives from it, since both walk the same steps in order.
type gbnRank struct {
	s *Schedule
	// sendIdx/recvIdx give each segment's position in its link's
	// stream; out[p] lists the send segments to peer p in order.
	sendIdx, recvIdx []int
	out              map[int][]int
	// Per peer: segments acked, sent, and received; duplicate acks of
	// the ack point.
	acked, sent, got, dups map[int]int
	next                   int
	applies                []int
}

func (r *gbnRank) from(q int) int {
	from, _, _ := r.s.RecvSpan(q)
	return from
}

func gbnRun(t *testing.T, n int, build Builder, seg int, bufs [][]int32, nw *fuzzNet) {
	t.Helper()
	ranks := make([]*gbnRank, n)
	for i := range ranks {
		s := build(n, i, bufs[i], seg)
		r := &gbnRank{s: s, out: map[int][]int{}, acked: map[int]int{}, sent: map[int]int{},
			got: map[int]int{}, dups: map[int]int{}, applies: make([]int, s.Recvs())}
		for q := 0; q < s.Sends(); q++ {
			to, _, _ := s.Span(q)
			r.sendIdx = append(r.sendIdx, len(r.out[to]))
			r.out[to] = append(r.out[to], q)
		}
		perPeer := map[int]int{}
		for q := 0; q < s.Recvs(); q++ {
			from, _, _ := s.RecvSpan(q)
			r.recvIdx = append(r.recvIdx, perPeer[from])
			perPeer[from]++
		}
		ranks[i] = r
	}
	send := func(id, q int) {
		to, lo, hi := ranks[id].s.Span(q)
		nw.push(id, to, gbnSeg{ranks[id].sendIdx[q], append([]int32(nil), bufs[id][lo:hi]...)})
	}
	// fill sends every ready segment not yet sent, in order.
	fill := func(id int) {
		r := ranks[id]
		for ; r.next < r.s.Sends() && r.s.Ready(r.next); r.next++ {
			to, _, _ := r.s.Span(r.next)
			r.sent[to]++
			send(id, r.next)
		}
	}
	// resend goes back to a link's ack point.
	resend := func(id, to int) {
		r := ranks[id]
		for k := r.acked[to]; k < r.sent[to]; k++ {
			send(id, r.out[to][k])
		}
	}
	for id := range ranks {
		fill(id)
	}
	for rounds := 0; ; rounds++ {
		if rounds > 1<<16 {
			t.Fatal("go-back-N host made no progress")
		}
		l, ok := nw.pick(true)
		if !ok {
			done := true
			for id, r := range ranks {
				if !r.s.Done() || r.next < r.s.Sends() {
					done = false
				}
				for to := range r.out {
					if r.acked[to] < r.sent[to] {
						done = false
						resend(id, to)
					}
				}
			}
			if done {
				break
			}
			continue
		}
		src, dst := l[0], l[1]
		m, r := nw.pop(l).(gbnSeg), ranks[dst]
		// Only the segment next in order is taken; the rest is dropped.
		if q := r.s.Applied(); q < r.s.Recvs() && r.recvIdx[q] == m.idx && r.from(q) == src {
			if err := r.s.Apply(q, m.data); err != nil {
				t.Fatal(err)
			}
			r.applies[q]++
			r.got[src]++
			fill(dst)
		}
		// The cumulative ack of the link, delivered at once; data beyond
		// the ack point makes it a duplicate, and the second goes back N.
		sr := ranks[src]
		switch ack := r.got[src]; {
		case ack > sr.acked[dst]:
			sr.acked[dst], sr.dups[dst] = ack, 0
		case m.idx > ack:
			if sr.dups[dst]++; sr.dups[dst] == 2 {
				resend(src, dst)
			}
		}
	}
	for id, r := range ranks {
		for q, k := range r.applies {
			if k != 1 {
				t.Fatalf("go-back-N host rank %d: segment %d applied %d times", id, q, k)
			}
		}
	}
}
