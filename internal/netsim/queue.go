package netsim

// Queue is a FIFO of pending events that share one callback, bound
// once at creation. It is the scheduling primitive for a pipeline
// stage whose completion times never decrease — a link's transmitter
// (monotone nextFree plus a constant propagation delay), a host core,
// a switch pipeline — which is every per-packet hand-off in a rack.
// Pushing costs a ring write and no closure: the payload travels in
// the ring. Only the queue's head competes in the simulation's event
// heap, so the heap holds one entry per busy stage rather than one per
// packet in flight.
//
// The total order is untouched. Push draws the entry's tie-break from
// the simulation's one counter at the moment it is called, exactly as
// At would, and an entry enters the heap under that key when it
// becomes the head; since the ring is in key order, the head is always
// the queue's smallest key. A push that would break the ring's order
// (the stage's clock was reset under it) is still honoured: it is
// scheduled through At on its own, at the cost of one closure.
type Queue[T any] struct {
	sim  *Sim
	fn   func(T)
	fire func() // q.pop, bound once
	// ring holds the pending entries, oldest at head; its length is
	// zero or a power of two.
	ring    []queued[T]
	head, n int
}

type queued[T any] struct {
	at  Time
	seq uint64
	v   T
}

// NewQueue returns an empty queue that hands each due entry to fn.
func NewQueue[T any](s *Sim, fn func(T)) *Queue[T] {
	q := &Queue[T]{sim: s, fn: fn}
	q.fire = q.pop
	return q
}

// Push schedules fn(v) for absolute virtual time at. Scheduling in the
// past panics.
//
//switchml:hotpath
func (q *Queue[T]) Push(at Time, v T) {
	s := q.sim
	if q.n > 0 && at < q.ring[(q.head+q.n-1)&(len(q.ring)-1)].at {
		//switchml:allow hotpath -- out-of-order fallback: only reachable after a stage's clock moves back under queued work (a host restart, a re-home to a shorter detour), never on the steady-state data path
		s.At(at, func() { q.fn(v) })
		return
	}
	s.checkFuture(at)
	if q.n == len(q.ring) {
		q.grow()
	}
	seq := s.nextSeq()
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = queued[T]{at: at, seq: seq, v: v}
	q.n++
	if q.n == 1 {
		s.schedule(event{at: at, seq: seq, fn: q.fire, slot: noSlot})
	}
}

// grow doubles the ring, unrolling it so the head is at index zero.
func (q *Queue[T]) grow() {
	size := 2 * len(q.ring)
	if size == 0 {
		size = 16
	}
	//switchml:allow hotpath -- ring growth: capacity doubles up to the stage's peak backlog and is then reused
	ring := make([]queued[T], size)
	for i := 0; i < q.n; i++ {
		ring[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
	}
	q.ring, q.head = ring, 0
}

// pop runs the head entry. The next entry enters the event heap first,
// so whatever the callback schedules is ordered against it.
//
//switchml:hotpath
func (q *Queue[T]) pop() {
	e := &q.ring[q.head]
	v := e.v
	var zero T
	e.v = zero // drop the ring's reference to the payload
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	if q.n > 0 {
		next := &q.ring[q.head]
		q.sim.schedule(event{at: next.at, seq: next.seq, fn: q.fire, slot: noSlot})
	}
	q.fn(v)
}
