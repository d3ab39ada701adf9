package core

import (
	"sort"
	"testing"

	"switchml/internal/packet"
)

// lapDriver plays the switch for one worker: it keeps the last packet
// produced per slot, numbered in a test-side mirror of the worker's
// send counter, and answers whichever the scenario picks. The mirror
// is what lets a scenario say "the result for send number m" — the
// quantity the lap rule is stated in.
type lapDriver struct {
	t      *testing.T
	w      *Worker
	seq    uint64
	flight map[uint32]lapSent
}

type lapSent struct {
	p   *packet.Packet
	num uint64
}

func newLapDriver(t *testing.T, s, chunks int) *lapDriver {
	t.Helper()
	d := &lapDriver{t: t, w: newTestWorker(t, 0, 1, s, 1), flight: make(map[uint32]lapSent)}
	d.track(d.w.Start(make([]int32, chunks))...)
	return d
}

func (d *lapDriver) track(pkts ...*packet.Packet) {
	for _, p := range pkts {
		d.seq++
		d.flight[p.Idx] = lapSent{p, d.seq}
	}
}

// answer delivers the result for slot idx's last packet and returns
// that packet's send number.
func (d *lapDriver) answer(idx uint32) uint64 {
	d.t.Helper()
	s, ok := d.flight[idx]
	if !ok {
		d.t.Fatalf("slot %d has nothing in flight", idx)
	}
	delete(d.flight, idx)
	if next, _ := d.w.HandleResult(result(s.p, s.p.Vector)); next != nil {
		d.track(next)
	}
	return s.num
}

func (d *lapDriver) retransmit(idx uint32) {
	d.t.Helper()
	p := d.w.Retransmit(idx)
	if p == nil {
		d.t.Fatalf("slot %d: nothing to retransmit", idx)
	}
	d.track(p)
}

// oldestFirst lists the slots in flight by ascending send number,
// leaving out the withheld ones.
func (d *lapDriver) oldestFirst(withheld ...uint32) []uint32 {
	var idxs []uint32
next:
	for idx := range d.flight {
		for _, h := range withheld {
			if idx == h {
				continue next
			}
		}
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return d.flight[idxs[i]].num < d.flight[idxs[j]].num })
	return idxs
}

func (d *lapDriver) wantLapped(when string, want ...uint32) {
	d.t.Helper()
	got := d.w.Lapped(nil)
	if len(got) != len(want) {
		d.t.Fatalf("%s: Lapped = %v, want %v", when, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			d.t.Fatalf("%s: Lapped = %v, want %v", when, got, want)
		}
	}
}

// TestWorkerLapDetection states the lap rule scenario by scenario,
// with no sockets and no clock: what raises the mark, when exactly a
// pending slot counts as lapped, and what never does.
func TestWorkerLapDetection(t *testing.T) {
	const s = 4
	cases := []struct {
		name string
		run  func(t *testing.T, d *lapDriver)
	}{
		{"in-order results never lap", func(t *testing.T, d *lapDriver) {
			for len(d.flight) > 0 {
				d.answer(d.oldestFirst()[0])
				d.wantLapped("in order")
			}
		}},
		{"a withheld slot is lapped exactly at number+PoolSize, once per send", func(t *testing.T, d *lapDriver) {
			const held = 1
			for round := 0; round < 3; round++ {
				num := d.flight[held].num
				for {
					m := d.answer(d.oldestFirst(held)[0])
					if m < num+s {
						d.wantLapped("before the mark reaches number+PoolSize")
						continue
					}
					if m != num+s {
						t.Fatalf("in-order answers skipped send %d (got %d)", num+s, m)
					}
					break
				}
				d.wantLapped("the mark reached number+PoolSize", held)
				d.wantLapped("second query for the same send")
				d.answer(d.oldestFirst(held)[0])
				d.wantLapped("mark moved on, same send")
				// The retransmission takes a fresh number: if it is lost
				// too, only a whole further window laps it.
				d.retransmit(held)
			}
			st := d.w.Stats()
			if st.Retransmissions != 3 || st.EarlyRetransmissions != 3 {
				t.Errorf("retransmissions/early = %d/%d, want 3/3", st.Retransmissions, st.EarlyRetransmissions)
			}
		}},
		{"a result for a retransmitted slot is not evidence", func(t *testing.T, d *lapDriver) {
			// Slot 3 times out s times over: its number is now a whole
			// window past slots 0-2, but its result may answer the very
			// first copy.
			for i := 0; i < s; i++ {
				d.retransmit(3)
			}
			if got, oldest := d.flight[3].num, d.flight[0].num; got < oldest+s {
				t.Fatalf("slot 3 renumbered to %d, want at least %d", got, oldest+s)
			}
			d.answer(3)
			d.wantLapped("after a retransmitted slot's result")
			if st := d.w.Stats(); st.Retransmissions != s || st.EarlyRetransmissions != 0 {
				t.Errorf("retransmissions/early = %d/%d, want %d/0", st.Retransmissions, st.EarlyRetransmissions, s)
			}
		}},
		{"results reordered by up to PoolSize-1 never lap", func(t *testing.T, d *lapDriver) {
			// Every window is answered newest first: the oldest packet
			// is overtaken by the s-1 sent after it, the worst case
			// short of a lap.
			for len(d.flight) == s {
				order := d.oldestFirst()
				for i := len(order) - 1; i >= 0; i-- {
					d.answer(order[i])
					d.wantLapped("window answered in reverse")
				}
			}
		}},
		{"the tail has nothing to lap it", func(t *testing.T, d *lapDriver) {
			// Run to the last window, then lose slot 1's final chunk:
			// no later send exists, so only the host's timer recovers it.
			for d.w.FirstMissingChunk() < d.w.ChunkCount()-s {
				d.answer(d.oldestFirst()[0])
			}
			for _, idx := range d.oldestFirst(1) {
				d.answer(idx)
				d.wantLapped("draining the last window")
			}
			if !d.w.Pending(1) || d.w.PendingCount() != 1 {
				t.Fatalf("want only slot 1 pending, have %d pending", d.w.PendingCount())
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newLapDriver(t, s, 40)) })
	}
}

// TestWorkerLapStateCleared drives a slot to the brink of being lapped
// and then discards the window each way the worker can: nothing of
// the old window may be reported afterwards, and the fresh window
// laps by its own numbers only.
func TestWorkerLapStateCleared(t *testing.T) {
	const s, held = 4, 1
	cases := []struct {
		name  string
		clear func(t *testing.T, d *lapDriver)
	}{
		{"Resume", func(t *testing.T, d *lapDriver) {
			d.flight = make(map[uint32]lapSent)
			d.track(d.w.Resume(7, d.w.FirstMissingChunk())...)
		}},
		{"InstallHostAggregate", func(t *testing.T, d *lapDriver) {
			off := d.w.FrontierOff()
			if err := d.w.InstallHostAggregate(off, make([]int32, int(d.w.TensorEnd()-off))); err != nil {
				t.Fatal(err)
			}
			d.flight = make(map[uint32]lapSent)
			d.track(d.w.Start(make([]int32, 40))...)
		}},
		{"JoinAt", func(t *testing.T, d *lapDriver) {
			// A joiner has nothing in flight: finish the tensor first.
			for len(d.flight) > 0 {
				d.answer(d.oldestFirst()[0])
			}
			d.w.JoinAt(9, 1000)
			d.track(d.w.Start(make([]int32, 40))...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newLapDriver(t, s, 40)
			num := d.flight[held].num
			for d.answer(d.oldestFirst(held)[0]) < num+s {
			}
			// Slot 1 is lapped but not yet reported.
			tc.clear(t, d)
			d.wantLapped("right after the window was discarded")
			for len(d.flight) > 0 {
				d.answer(d.oldestFirst()[0])
				d.wantLapped("fresh window answered in order")
			}
		})
	}
}

// TestWorkerLapQueryZeroAlloc is the AllocsPerRun gate behind the
// //switchml:hotpath annotation on Lapped: the query a lossy run makes
// after every burst, reporting into the caller's reused buffer, must
// not touch the heap. (The packets HandleResult and Retransmit hand
// out come from packet's pool, which has its own gate.)
func TestWorkerLapQueryZeroAlloc(t *testing.T) {
	const s, held = 8, 1
	d := newLapDriver(t, s, 40)
	num := d.flight[held].num
	for d.answer(d.oldestFirst(held)[0]) < num+s {
	}
	lapped := make([]uint32, 0, s)
	reports := 0
	step := func() {
		d.w.pend[held].lapped = false // as if freshly lapped: take the reporting branch every run
		lapped = d.w.Lapped(lapped[:0])
		reports += len(lapped)
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("lap query allocates %.2f/op, want 0", allocs)
	}
	if reports != 101 { // AllocsPerRun warms up with one extra run
		t.Errorf("slot %d reported %d times in 101 queries", held, reports)
	}
}
