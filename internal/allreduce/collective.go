package allreduce

import (
	"fmt"

	"switchml/internal/netsim"
)

// RunRing executes a bandwidth-optimal ring all-reduce (§2.1): a
// reduce-scatter of n−1 steps followed by an all-gather of n−1 steps,
// each worker exchanging 4(n−1)|U|/n bytes in total. updates[i] is
// worker i's contribution; on return every row of updates has been
// replaced by the elementwise sum, as Gloo's in-place all-reduce
// does.
func RunRing(cfg Config, updates [][]int32) (Result, error) {
	return runCollective(cfg, updates, Ring)
}

// RunHalvingDoubling executes the recursive halving-and-doubling
// all-reduce (§2.1, [57]): log2(n) reduce-scatter steps exchanging
// |U|/2, |U|/4, ... with partners at distance 1, 2, 4, ..., followed
// by the mirrored all-gather. The worker count must be a power of
// two. On return every row of updates holds the elementwise sum.
func RunHalvingDoubling(cfg Config, updates [][]int32) (Result, error) {
	if n := cfg.Workers; n&(n-1) != 0 {
		return Result{}, fmt.Errorf("allreduce: halving-doubling needs a power-of-two worker count, got %d", n)
	}
	return runCollective(cfg, updates, HalvingDoubling)
}

// runCollective runs a peer collective over the package's star
// topology and reports the slowest rank's completion time.
func runCollective(cfg Config, updates [][]int32, build Builder) (Result, error) {
	c, err := NewCollective(cfg, updates, build, nil, nil, nil)
	if err != nil {
		return Result{}, err
	}
	nodes := make([]netsim.Node, len(c.ranks))
	for i, r := range c.ranks {
		nodes[i] = r
	}
	tp := newTopo(&c.cfg, nodes)
	c.send, c.now = tp.send, tp.sim.Now
	c.Start()
	tp.sim.Run()
	for i, r := range c.ranks {
		if !r.s.Done() {
			return Result{}, fmt.Errorf("allreduce: rank %d did not finish", i)
		}
	}
	return Result{Time: c.DoneAt(), Elems: len(updates[0])}, nil
}

// Builder returns rank's schedule among n ranks over buf, in segments
// of seg elements: Ring or HalvingDoubling.
type Builder func(n, rank int, buf []int32, seg int) *Schedule

// PeerMsg is a host-to-host collective message travelling a foreign
// fabric. The rack's crossbar forwards anything implementing it
// between worker hosts while a job is degraded, without knowing the
// collective's internals.
type PeerMsg interface {
	netsim.Message
	// PeerSrc returns the sending rank.
	PeerSrc() int
	// PeerDst returns the destination rank.
	PeerDst() int
}

// PeerSrc implements PeerMsg.
func (b *burst) PeerSrc() int { return b.src }

// PeerDst implements PeerMsg.
func (b *burst) PeerDst() int { return b.dst }

// Reliable marks collective bursts as netsim.ReliableMessage: the host
// collective runs over the kernel's byte-stream transport, which
// retransmits below the level the simulator models, so it has no loss
// recovery of its own and its traffic must not be subject to a link's
// loss process.
func (b *burst) Reliable() bool { return true }

// Collective is the netsim host of a peer collective: every rank's
// Schedule, driven inside an event loop. A rank sends each segment as
// soon as it is ready, as one burst, and holds a burst that arrives
// ahead of the segment it applies next until that one is in — the
// fabric is reliable and FIFO per sender, but a halving-doubling rank
// changes partner every step, so a later step's burst can overtake.
// RunRing and RunHalvingDoubling host it on the package's star
// topology; the rack hosts its degraded-mode ring on its own links.
// Determinism is inherited from the host loop: Collective keeps no
// clock and draws no randomness.
//
// Ranks are positions in the buffers slice, which the caller builds
// from the live membership; buffers are summed elementwise in place,
// every rank ending with the identical total (int32 addition is
// commutative and associative, so the host total is bit-identical to
// the switch total for the same contributor set).
type Collective struct {
	cfg     Config
	ranks   []*rank
	send    func(PeerMsg)
	now     func() netsim.Time
	left    int
	onAll   func()
	started bool
}

// rank is one rank's host state: its schedule, the next segment to
// send, and the bursts held by receive sequence number.
type rank struct {
	c      *Collective
	id     int
	s      *Schedule
	sent   int
	held   map[int]*burst
	done   bool
	doneAt netsim.Time
}

// NewCollective builds a collective of cfg.Workers ranks, one a
// buffer, each running the schedule build returns. Of the rest of cfg
// only BurstBytes matters here (the segment size; timing is the host
// loop's business); send routes one message toward PeerDst; now stamps
// completion times; onAll, when non-nil, fires once, when every rank
// holds the full sum — for a trivial collective (one rank, or empty
// buffers) inside Start.
func NewCollective(cfg Config, buffers [][]int32, build Builder, send func(PeerMsg), now func() netsim.Time, onAll func()) (*Collective, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if len(buffers) != cfg.Workers {
		return nil, fmt.Errorf("allreduce: got %d updates for %d workers", len(buffers), cfg.Workers)
	}
	for i, b := range buffers {
		if len(b) != len(buffers[0]) {
			return nil, fmt.Errorf("allreduce: update %d has %d elems, want %d", i, len(b), len(buffers[0]))
		}
	}
	c := &Collective{cfg: cfg, send: send, now: now, left: len(buffers), onAll: onAll}
	for i, b := range buffers {
		c.ranks = append(c.ranks, &rank{c: c, id: i, s: build(len(buffers), i, b, cfg.BurstBytes/4), held: map[int]*burst{}})
	}
	return c, nil
}

// Start kicks the collective: every rank sends its first step, and
// then every rank whose first inbound range is empty (fewer elements
// than ranks) moves on without traffic. It must be called exactly
// once, from inside the host event loop (sends are charged from the
// current virtual time).
func (c *Collective) Start() {
	if c.started {
		panic("allreduce: Collective started twice")
	}
	c.started = true
	for _, r := range c.ranks {
		for r.sent < r.s.Sends() && r.s.send.at(r.sent) == 0 {
			r.sendNext()
		}
	}
	for _, r := range c.ranks {
		r.pump()
	}
}

// Deliver feeds an inbound message to its destination rank. Messages
// that are not this collective's traffic are reported false and
// ignored.
func (c *Collective) Deliver(m netsim.Message) bool {
	b, ok := m.(*burst)
	if !ok || b.dst < 0 || b.dst >= len(c.ranks) {
		return false
	}
	c.ranks[b.dst].Deliver(b)
	return true
}

// Done reports whether every rank holds the full sum.
func (c *Collective) Done() bool { return c.left == 0 }

// DoneAt returns the completion time of the slowest rank (zero for a
// trivial collective).
func (c *Collective) DoneAt() netsim.Time {
	var t netsim.Time
	for _, r := range c.ranks {
		t = max(t, r.doneAt)
	}
	return t
}

// Deliver takes a burst from a peer: the segment next in order is
// applied, and one ahead of it is held.
func (r *rank) Deliver(msg netsim.Message) {
	b := msg.(*burst)
	if r.s.Done() {
		return
	}
	if seq := r.s.recv.start[b.step] + b.seq; seq != r.s.Applied() {
		r.held[seq] = b
		return
	}
	r.apply(b)
	r.pump()
}

// pump sends every ready segment, then applies the held one next in
// order, if any, and repeats; the rank finishes on its last segment.
func (r *rank) pump() {
	for {
		for r.sent < r.s.Sends() && r.s.Ready(r.sent) {
			r.sendNext()
		}
		b, ok := r.held[r.s.Applied()]
		if !ok {
			break
		}
		delete(r.held, r.s.Applied())
		r.apply(b)
	}
	if r.s.Done() && !r.done {
		r.done, r.doneAt = true, r.c.now()
		if r.c.left--; r.c.left == 0 && r.c.onAll != nil {
			r.c.onAll()
		}
	}
}

func (r *rank) apply(b *burst) {
	if err := r.s.Apply(r.s.Applied(), b.data); err != nil {
		panic(err)
	}
}

// sendNext sends the next segment as one burst, copying it out of the
// buffer.
func (r *rank) sendNext() {
	g, to, lo, hi := r.s.send.segment(r.sent, r.s.seg)
	data := make([]int32, hi-lo)
	copy(data, r.s.buf[lo:hi])
	r.c.send(&burst{
		src: r.id, dst: to,
		data: data,
		step: g, seq: r.sent - r.s.send.start[g],
		wire: wireBytes((hi - lo) * 4),
	})
	r.sent++
}
