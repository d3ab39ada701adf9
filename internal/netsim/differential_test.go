package netsim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEntry is one pending event in the reference model.
type refEntry struct {
	at    Time
	seq   uint64
	id    int
	index int // heap index, -1 once fired or removed
}

// refHeap is the reference event queue: a plain container/heap ordered
// by (at, seq), holding every pending event individually.
type refHeap []*refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	e.index = -1
	return e
}

// diffDriver applies one random stream of operations to a Sim and to
// the reference model at the same time, from the top level and from
// inside callbacks, and checks them against each other as it goes.
type diffDriver struct {
	t   *testing.T
	s   *Sim
	rng *rand.Rand
	ref refHeap
	seq uint64 // the model's copy of the shared tie-break counter
	ops int
	ids int

	fired  uint64
	timers []diffTimer
	queues []*Queue[int]
	// queueTail is each queue's last pushed time, so most pushes keep
	// the ring in order.
	queueTail []Time
	alarms    []Alarm
	alarmRef  []*refEntry // nil while the alarm is not armed
	// draws are tie-breaks taken by Draw that no alarm is set under.
	draws []uint64
}

type diffTimer struct {
	t   Timer
	ref *refEntry
}

// add records a newly scheduled event in the model, drawing its
// tie-break exactly as the Sim does.
func (d *diffDriver) add(at Time) *refEntry {
	e := &refEntry{at: at, seq: d.seq, id: d.ids}
	d.seq++
	d.ids++
	heap.Push(&d.ref, e)
	return e
}

// onFire is called by every callback with the id it was scheduled
// under: the model's minimum must be that very event, due now.
func (d *diffDriver) onFire(id int) {
	if len(d.ref) == 0 {
		d.t.Fatalf("event %d fired with the reference queue empty", id)
	}
	want := heap.Pop(&d.ref).(*refEntry)
	if want.id != id || want.at != d.s.Now() {
		d.t.Fatalf("fired event %d at %v; reference expects event %d at %v (seq %d)",
			id, d.s.Now(), want.id, want.at, want.seq)
	}
	d.fired++
	// Work issued from inside the callback: schedules, cancels and
	// re-arms that must be ordered against everything already pending.
	for n := d.rng.Intn(3); n > 0; n-- {
		d.op()
	}
}

// delta draws a small time offset, so equal timestamps are common.
func (d *diffDriver) delta(span int) Time { return Time(d.rng.Intn(span)) }

// op performs one random operation on both implementations.
func (d *diffDriver) op() {
	if d.ops <= 0 {
		return
	}
	d.ops--
	now := d.s.Now()
	switch r := d.rng.Intn(100); {
	case r < 25: // one-shot event
		at := now + d.delta(8)
		e := d.add(at)
		id := e.id
		d.timers = append(d.timers, diffTimer{d.s.At(at, func() { d.onFire(id) }), e})
	case r < 40: // cancel a timer, live or not
		if len(d.timers) == 0 {
			return
		}
		tm := d.timers[d.rng.Intn(len(d.timers))]
		live := tm.ref.index >= 0
		if tm.t.Pending() != live {
			d.t.Fatalf("timer %d Pending = %v, reference says %v", tm.ref.id, tm.t.Pending(), live)
		}
		if live {
			heap.Remove(&d.ref, tm.ref.index)
			tm.ref.index = -1
		}
		if got := tm.t.Cancel(); got != live {
			d.t.Fatalf("timer %d Cancel = %v, reference says %v", tm.ref.id, got, live)
		}
	case r < 70: // queue push, now and then behind the queue's tail
		q := d.rng.Intn(len(d.queues))
		at := d.queueTail[q]
		if at < now {
			at = now
		}
		at += d.delta(3)
		if d.rng.Intn(20) == 0 {
			at = now + d.delta(3)
		} else {
			d.queueTail[q] = at
		}
		d.queues[q].Push(at, d.add(at).id)
	case r < 80: // (re-)arm an alarm: later, earlier or the same time
		a := d.rng.Intn(len(d.alarms))
		if e := d.alarmRef[a]; e != nil {
			heap.Remove(&d.ref, e.index)
		}
		at := now + d.delta(40)
		d.alarmRef[a] = d.add(at)
		d.alarms[a].Set(at, d.s.Draw())
	case r < 85: // draw a tie-break for a later Set
		if got := d.s.Draw(); got != d.seq {
			d.t.Fatalf("Draw = %d, reference counter at %d", got, d.seq)
		}
		d.draws = append(d.draws, d.seq)
		d.seq++
	case r < 90: // (re-)arm an alarm under a tie-break drawn earlier
		if len(d.draws) == 0 {
			return
		}
		i := d.rng.Intn(len(d.draws))
		seq := d.draws[i]
		d.draws = append(d.draws[:i], d.draws[i+1:]...)
		a := d.rng.Intn(len(d.alarms))
		if e := d.alarmRef[a]; e != nil {
			heap.Remove(&d.ref, e.index)
		}
		at := now + d.delta(40)
		e := &refEntry{at: at, seq: seq, id: d.ids}
		d.ids++
		heap.Push(&d.ref, e)
		d.alarmRef[a] = e
		d.alarms[a].Set(at, seq)
	case r < 93: // move an armed alarm, keeping its tie-break
		a := d.rng.Intn(len(d.alarms))
		old := d.alarmRef[a]
		if old == nil {
			return
		}
		heap.Remove(&d.ref, old.index)
		at := now + d.delta(40)
		e := &refEntry{at: at, seq: old.seq, id: d.ids}
		d.ids++
		heap.Push(&d.ref, e)
		d.alarmRef[a] = e
		d.alarms[a].Set(at, old.seq)
	default: // stop an alarm
		a := d.rng.Intn(len(d.alarms))
		e := d.alarmRef[a]
		if e != nil {
			heap.Remove(&d.ref, e.index)
			d.alarmRef[a] = nil
		}
		if got := d.alarms[a].Stop(); got != (e != nil) {
			d.t.Fatalf("alarm %d Stop = %v, reference says %v", a, got, e != nil)
		}
	}
}

// TestSimMatchesReferenceHeap is the differential test for the event
// queue: 10^5 seeded random At / Cancel / Queue.Push / Sim.Draw /
// Alarm.Set / Stop operations, many at equal timestamps and many issued from inside
// callbacks, drive the Sim and a reference container/heap keyed by
// (at, seq). Every event must fire exactly when it is the reference's
// minimum; Pending, Cancel and Stop must answer as the
// reference does; Processed must count exactly the reference's pops.
func TestSimMatchesReferenceHeap(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		s := NewSim(seed)
		d := &diffDriver{t: t, s: s, rng: rand.New(rand.NewSource(seed)), ops: 100000}
		for q := 0; q < 5; q++ {
			d.queues = append(d.queues, NewQueue(s, d.onFire))
		}
		d.queueTail = make([]Time, len(d.queues))
		for a := 0; a < 12; a++ {
			a := a
			d.alarms = append(d.alarms, s.NewAlarm(func() {
				id := d.alarmRef[a].id
				d.alarmRef[a] = nil
				d.onFire(id)
			}))
		}
		d.alarmRef = make([]*refEntry, len(d.alarms))
		for d.ops > 0 {
			for n := 1 + d.rng.Intn(4); n > 0; n-- {
				d.op()
			}
			switch d.rng.Intn(3) {
			case 0:
				s.Step()
			case 1:
				s.RunUntil(s.Now() + d.delta(6))
			default:
				for n := d.rng.Intn(6); n > 0; n-- {
					s.Step()
				}
			}
			// RunUntil must leave behind exactly the events past its
			// deadline.
			if len(d.ref) > 0 && d.ref[0].at < s.Now() {
				t.Fatalf("seed %d: reference event %d at %v is overdue at %v", seed, d.ref[0].id, d.ref[0].at, s.Now())
			}
		}
		s.Run()
		if len(d.ref) != 0 {
			t.Fatalf("seed %d: Sim drained with %d reference events pending", seed, len(d.ref))
		}
		if s.Processed() != d.fired {
			t.Fatalf("seed %d: Processed = %d, reference fired %d", seed, s.Processed(), d.fired)
		}
		if d.fired < 50000 {
			t.Fatalf("seed %d: only %d events fired; the operation mix is wrong", seed, d.fired)
		}
	}
}
