// Package netsim is a deterministic discrete-event network simulator.
//
// It substitutes for the paper's hardware testbed (8-16 machines, a
// Tofino switch, 10/100 Gbps Ethernet): links model bandwidth
// (serialization delay with FIFO queueing), propagation delay, and
// independent Bernoulli packet loss; nodes are event-driven actors.
// All time is virtual, so experiments are reproducible bit-for-bit
// for a given seed and are independent of host speed.
//
//switchml:deterministic
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"switchml/internal/telemetry"
)

// Time is a point in virtual time, in nanoseconds since the start of
// the simulation.
type Time int64

// Common durations in virtual time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts a virtual time span to a time.Duration for
// display.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats the time like time.Duration.
func (t Time) String() string { return time.Duration(t).String() }

// event is a scheduled callback. Events are stored by value in the
// heap slice — no per-event heap allocation. A cancellable event (one
// scheduled through At) carries the index of its handle slot so Cancel
// can find it; a Queue's head entry is never cancelled and carries
// noSlot, which spares the sift loops the handle-table write.
type event struct {
	at   Time
	seq  uint64 // Tie-break so equal-time events run FIFO.
	fn   func()
	slot int32 // Handle-table index, or noSlot; see timerSlot.
}

const noSlot = -1

// before is the simulation's total order: (at, seq), so equal-time
// events run in the order they were scheduled.
func before(at Time, seq uint64, bAt Time, bSeq uint64) bool {
	return at < bAt || (at == bAt && seq < bSeq)
}

// timerSlot is one entry of the handle table: the event's current
// heap index (maintained across sift operations) plus a generation
// counter that invalidates stale Timer handles once the event fires
// or is cancelled and the slot is recycled.
type timerSlot struct {
	heapIdx int32
	gen     uint32
}

// Sim is a single-threaded discrete-event simulation. It is not safe
// for concurrent use; all actors run inside event callbacks.
//
// Pending work lives in three structures that together realise one
// total order, the (at, seq) key every scheduling call draws from the
// shared seq counter at the moment it is made:
//
//   - events, a binary min-heap of one-shot callbacks (At) and of the
//     head entry of every non-empty Queue;
//   - the Queues themselves, whose entries are in key order by
//     construction, so only their heads need to compete in the heap;
//   - alarmHeap, the re-armable timers (Alarm), whose heap keys are
//     lower bounds refreshed only when they surface.
//
// Step runs the smallest key among the two heaps' heads, so the firing
// sequence is exactly that of a single heap holding every entry.
type Sim struct {
	now Time
	// events is a binary min-heap ordered by (at, seq), stored by
	// value; free-listed handle slots make scheduling allocation-free
	// in steady state.
	events []event
	slots  []timerSlot
	free   []int32
	// alarms is the state of every Alarm ever created; alarmHeap holds
	// at most one entry per alarm. See Alarm.
	alarms    []alarmState
	alarmHeap []alarmEntry
	seq       uint64
	rng       *rand.Rand
	// processed counts executed events, useful for run-away detection
	// in tests.
	processed uint64
	// tracer observes link-level packet events; nil disables tracing.
	tracer telemetry.Tracer
}

// NewSim returns a simulation whose random decisions (packet loss)
// derive from the given seed.
func NewSim(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Processed returns how many events have executed.
func (s *Sim) Processed() uint64 { return s.processed }

// SetTracer installs a protocol event tracer; every link in the
// simulation emits PacketSent/PacketRecv/PacketDropped events to it,
// stamped with virtual time. nil turns tracing off.
func (s *Sim) SetTracer(t telemetry.Tracer) { s.tracer = t }

// Tracer returns the installed tracer, nil when tracing is off.
func (s *Sim) Tracer() telemetry.Tracer { return s.tracer }

// Timer is a handle to a scheduled event that can be cancelled. The
// zero value is a valid no-op handle (Cancel returns false).
type Timer struct {
	s    *Sim
	slot int32
	gen  uint32
}

// Cancel removes the timer's callback from the event heap in
// O(log n). Cancelling an already-fired, already-cancelled or zero
// Timer is a no-op. It reports whether the callback was still
// pending.
func (t Timer) Cancel() bool {
	s := t.s
	if s == nil || int(t.slot) >= len(s.slots) {
		return false
	}
	sl := &s.slots[t.slot]
	if sl.gen != t.gen {
		return false // already fired, cancelled, or slot recycled
	}
	s.removeAt(int(sl.heapIdx))
	s.releaseSlot(t.slot)
	return true
}

// Pending reports whether the timer's callback has neither fired nor
// been cancelled.
func (t Timer) Pending() bool {
	return t.s != nil && int(t.slot) < len(t.s.slots) && t.s.slots[t.slot].gen == t.gen
}

// checkFuture panics on scheduling in the past: it indicates a
// causality bug in an actor.
func (s *Sim) checkFuture(at Time) {
	if at < s.now {
		//switchml:allow hotpath -- fatal causality-bug path; never taken by a correct actor
		panic(fmt.Sprintf("netsim: scheduling at %v before now %v", at, s.now))
	}
}

// At schedules fn to run at absolute virtual time at. Scheduling in
// the past panics. At is the general-purpose API, for control-plane
// events and anything that needs a cancellable handle; per-packet
// traffic goes through a Queue and retransmission timers through an
// Alarm, neither of which needs a closure per event.
//
//switchml:hotpath
func (s *Sim) At(at Time, fn func()) Timer {
	s.checkFuture(at)
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.slots))
		//switchml:allow hotpath -- handle-table growth: slots are free-listed, so the table stops growing once the event population peaks
		s.slots = append(s.slots, timerSlot{})
	}
	gen := s.slots[slot].gen
	s.schedule(event{at: at, seq: s.nextSeq(), fn: fn, slot: slot})
	return Timer{s: s, slot: slot, gen: gen}
}

// After schedules fn to run d after the current time.
func (s *Sim) After(d Time, fn func()) Timer {
	if d < 0 {
		//switchml:allow hotpath -- fatal causality-bug path; never taken by a correct actor
		panic(fmt.Sprintf("netsim: negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// nextSeq draws the tie-break for one scheduling call. Every call
// that makes something pending — At, Queue.Push, Alarm.Set — draws
// exactly one, at the moment it is made.
func (s *Sim) nextSeq() uint64 {
	seq := s.seq
	s.seq++
	return seq
}

// schedule inserts an event whose key is already drawn.
func (s *Sim) schedule(e event) {
	//switchml:allow hotpath -- heap growth: the event slice keeps its capacity across pops, so steady state appends within capacity
	s.events = append(s.events, e)
	s.siftUp(len(s.events)-1, e)
}

// releaseSlot invalidates outstanding handles to the slot and
// returns it to the free list.
func (s *Sim) releaseSlot(slot int32) {
	s.slots[slot].gen++
	//switchml:allow hotpath -- free-list growth is bounded by the handle table, which stops growing at the event-population peak
	s.free = append(s.free, slot)
}

// place stores e at heap index i, keeping its handle slot current.
func (s *Sim) place(i int, e event) {
	s.events[i] = e
	if e.slot != noSlot {
		s.slots[e.slot].heapIdx = int32(i)
	}
}

// siftUp settles e, whose place is the hole at index i, toward the
// root: parents move down into the hole (one assignment each) until e
// fits.
func (s *Sim) siftUp(i int, e event) {
	for i > 0 {
		parent := (i - 1) / 2
		p := &s.events[parent]
		if !before(e.at, e.seq, p.at, p.seq) {
			break
		}
		s.place(i, *p)
		i = parent
	}
	s.place(i, e)
}

// siftDown settles e, whose place is the hole at index i, toward the
// leaves: the smaller child moves up into the hole until e fits.
func (s *Sim) siftDown(i int, e event) {
	n := len(s.events)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		c := &s.events[child]
		if right := child + 1; right < n {
			if r := &s.events[right]; before(r.at, r.seq, c.at, c.seq) {
				child, c = right, r
			}
		}
		if !before(c.at, c.seq, e.at, e.seq) {
			break
		}
		s.place(i, *c)
		i = child
	}
	s.place(i, e)
}

// removeAt deletes the heap entry at index i, restoring heap order.
func (s *Sim) removeAt(i int) {
	n := len(s.events) - 1
	last := s.events[n]
	s.events[n].fn = nil // release the closure
	s.events = s.events[:n]
	if i == n {
		return
	}
	if i > 0 {
		if p := &s.events[(i-1)/2]; before(last.at, last.seq, p.at, p.seq) {
			s.siftUp(i, last)
			return
		}
	}
	s.siftDown(i, last)
}

// Step executes the next pending event, advancing virtual time. It
// reports whether an event ran.
//
//switchml:hotpath
func (s *Sim) Step() bool {
	alarm, _, ok := s.head()
	if !ok {
		return false
	}
	s.processed++
	if alarm {
		s.fireAlarm()
		return true
	}
	e := s.events[0]
	s.removeAt(0)
	if e.slot != noSlot {
		s.releaseSlot(e.slot)
	}
	s.now = e.at
	e.fn()
	return true
}

// head finds the next event to run: whether it is an alarm, and its
// time. It settles the alarm heap only as far as the answer needs: an
// alarm entry is looked at only once its (lower-bound) key undercuts
// the event heap's head.
func (s *Sim) head() (alarm bool, at Time, ok bool) {
	for len(s.alarmHeap) > 0 {
		a := &s.alarmHeap[0]
		if len(s.events) > 0 {
			if e := &s.events[0]; !before(a.at, a.seq, e.at, e.seq) {
				return false, e.at, true
			}
		}
		if s.settleAlarmHead() {
			return true, a.at, true
		}
	}
	if len(s.events) == 0 {
		return false, 0, false
	}
	return false, s.events[0].at, true
}

// Run executes events until none remain.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the
// clock to the deadline. Events after the deadline remain queued.
func (s *Sim) RunUntil(deadline Time) {
	for {
		if _, at, ok := s.head(); !ok || at > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor executes events for a span of virtual time from now.
func (s *Sim) RunFor(d Time) { s.RunUntil(s.now + d) }
