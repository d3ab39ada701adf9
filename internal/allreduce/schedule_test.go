package allreduce

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"switchml/internal/netsim"
	"switchml/internal/packet"
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
// tensor length, segment size — under a fuzz-chosen delivery order,
// interleaved arbitrarily across links but FIFO on each (sender,
// receiver) link, on two hosts. The first is Collective itself, which
// holds segments that arrive ahead of their turn. The second is the UDP
// mesh's ARQ, driven over the ring schedule of the same ranks for two
// rounds numbered from a fuzz-chosen round, with fuzz-chosen loss of
// data and acks (arqRun). Every rank must end every round with the
// exact sum, checked in int64, having applied every receive segment
// exactly once, and every ARQ rank must finish.
func FuzzCollectiveSchedule(f *testing.F) {
	f.Add(uint8(3), uint16(10), uint8(2), false, uint16(1), []byte{0, 1, 2, 3, 0x81})
	f.Add(uint8(4), uint16(33), uint8(3), true, uint16(0xFFFF), []byte{7, 0x80, 5, 1, 9})
	f.Add(uint8(8), uint16(5), uint8(1), true, uint16(7), []byte{})
	f.Add(uint8(1), uint16(7), uint8(4), false, uint16(0), []byte{1})
	f.Add(uint8(5), uint16(0), uint8(1), false, uint16(0xFFFF), []byte{})
	// Loss of segments and acks: bytes with the high bit set lose the
	// head of the link they pick.
	f.Add(uint8(2), uint16(9), uint8(4), false, uint16(0xFFFF), []byte{0, 0x81, 1, 0x80, 0x81, 2, 0x83, 0x80, 0x81})
	f.Add(uint8(3), uint16(300), uint8(1), false, uint16(0xFFFE), []byte{0x85, 3, 0x82, 0x81, 4, 0x80, 0x83, 1, 0x82})
	f.Fuzz(func(t *testing.T, nRaw uint8, lRaw uint16, segRaw uint8, hd bool, round uint16, order []byte) {
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

		arqRun(t, n, L, seg, round, &fuzzNet{order: order})
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
	lost  map[arqKind]bool
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
// once the input runs out). With lossy set, a byte's high bit also
// loses the link's head, unless the last datagram of the same kind on
// that link was lost: never two in a row, the loss a bounded linger is
// built for.
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
	if lossy {
		kind := arqKind{l, nw.links[l][0].(packet.Packet).Kind}
		if nw.lost == nil {
			nw.lost = map[arqKind]bool{}
		}
		if nw.lost[kind] = b&0x80 != 0 && !nw.lost[kind]; nw.lost[kind] {
			nw.pop(l)
			return nw.pick(lossy)
		}
	}
	return l, true
}

// arqKind is a link and a datagram kind on it, segments or acks.
type arqKind struct {
	link [2]int
	kind packet.Kind
}

// arqRun drives the mesh's ARQ, one machine a rank over the ring
// schedule, through two rounds numbered from round (so 0xFFFF wraps to
// 0) over nw's lossy links. Time stands still while anything is in
// flight and jumps to the earliest deadline when nothing is. A round
// starts once every rank has finished the one before, as the mesh's
// barrier has it; until then a finished rank still answers its round,
// and after the last round it is deaf. An empty ring has nothing to
// recover.
func arqRun(t *testing.T, n, L, seg int, round uint16, nw *fuzzNet) {
	t.Helper()
	if n == 1 || L == 0 {
		return
	}
	const rto = 1000
	var now int64
	for r := 0; r < 2; r, round = r+1, round+1 {
		bufs, want := fuzzBuffers(n, L)
		arqs, over, applies := make([]*ARQ, n), make([]bool, n), make([][]int, n)
		for i := range arqs {
			s := Ring(n, i, bufs[i], seg)
			arqs[i] = NewARQ(round, s, rto, now, func(to int, p packet.Packet) {
				p.WorkerID, p.Vector = uint16(i), slices.Clone(p.Vector)
				nw.push(i, to, p)
			})
			applies[i] = make([]int, s.Recvs())
		}
		// pace is the ring mode's pass for rank i: unless its round is
		// over, it sends what the ARQ has due, which may end the round.
		pace := func(i int) {
			if !arqs[i].Finished() {
				arqs[i].Send(now)
			}
			over[i] = arqs[i].Finished()
		}
		for i := range arqs {
			pace(i)
		}
		// A loss costs a jump or two, and a rank's lost notice its linger.
		for jumps, limit := 0, 4*len(nw.order)+8*n+64; slices.Contains(over, false); {
			l, ok := nw.pick(true)
			if !ok {
				if jumps++; jumps > limit {
					t.Fatalf("ARQ round %d: ranks still running (finished: %v) at time %d", r, over, now)
				}
				now = math.MaxInt64
				for i, a := range arqs {
					if !over[i] {
						now = min(now, a.Deadline())
					}
				}
				for i := range arqs {
					pace(i)
				}
				continue
			}
			p, dst := nw.pop(l).(packet.Packet), l[1]
			a, applied := arqs[dst], arqs[dst].s.Applied()
			if over[dst] && r == 1 {
				continue // returned from its last round: nothing reads its socket
			}
			if !a.In(now, &p) {
				t.Fatalf("ARQ round %d rank %d: refused %+v", r, dst, p)
			}
			if a.s.Applied() > applied {
				applies[dst][p.Idx]++
			}
			pace(dst)
		}
		for i, a := range applies {
			for q, k := range a {
				if k != 1 {
					t.Fatalf("ARQ round %d rank %d: segment %d applied %d times", r, i, q, k)
				}
			}
		}
		checkSums(t, fmt.Sprintf("ARQ round %d", r), bufs, want)
	}
}
