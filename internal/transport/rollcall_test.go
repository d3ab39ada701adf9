package transport

import (
	"slices"
	"testing"

	"switchml/internal/faults"
)

// TestRollCall drives the roll call alone, with no sockets: who must
// answer, how votes count and fold, and exactly when it completes.
func TestRollCall(t *testing.T) {
	type vote struct {
		w   int
		off uint64
	}
	rows := []struct {
		name string
		// seen and dead script a four-worker tracker; noTracker opens the
		// roll call without one.
		seen, dead []int
		noTracker  bool
		cold       bool
		joiner     int
		votes      []vote
		// done is the completion reported after each vote; awaited the
		// workers that had to answer; lo and hi the final fold.
		done    []bool
		awaited []int
		lo, hi  uint64
	}{
		{
			name: "never-seen and dead workers are excused",
			seen: []int{0, 1, 2}, dead: []int{1}, joiner: -1,
			votes:   []vote{{0, 40}, {2, 24}},
			done:    []bool{false, true},
			awaited: []int{0, 2}, lo: 24, hi: 40,
		},
		{
			name: "a cold rung excuses only the dead",
			seen: []int{0}, dead: []int{1}, cold: true, joiner: -1,
			votes:   []vote{{0, 40}, {2, 24}, {3, 32}},
			done:    []bool{false, false, true},
			awaited: []int{0, 2, 3}, lo: 24, hi: 40,
		},
		{
			name: "without a detector everyone answers", noTracker: true, joiner: -1,
			votes:   []vote{{3, 8}, {1, 8}, {0, 8}, {2, 8}},
			done:    []bool{false, false, false, true},
			awaited: []int{0, 1, 2, 3}, lo: 8, hi: 8,
		},
		{
			name: "a duplicate vote counts once",
			seen: []int{0, 1, 2}, joiner: -1,
			votes:   []vote{{0, 16}, {0, 4}, {0, 16}, {1, 8}, {2, 32}},
			done:    []bool{false, false, false, false, true},
			awaited: []int{0, 1, 2}, lo: 8, hi: 32,
		},
		{
			name: "the joiner answers but its offset is not folded",
			seen: []int{0, 1, 2}, dead: []int{3}, joiner: 3,
			votes:   []vote{{0, 64}, {3, 0}, {1, 64}, {2, 64}},
			done:    []bool{false, false, false, true},
			awaited: []int{0, 1, 2, 3}, lo: 64, hi: 64,
		},
		{
			name: "completion comes with the last required voter, not the count",
			seen: []int{0, 1}, joiner: -1,
			votes:   []vote{{1, 8}, {2, 4}, {3, 12}, {0, 16}},
			done:    []bool{false, false, false, true},
			awaited: []int{0, 1}, lo: 4, hi: 16,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			const n = 4
			var tr *faults.Tracker
			if !row.noTracker {
				tr = faults.NewTracker(n, 1)
				for _, w := range row.seen {
					tr.Touch(w, 0)
				}
				for _, w := range row.dead {
					tr.MarkDead(w)
				}
			}
			rc := newRollCall(7, n, tr, row.cold, row.joiner)
			for w := 0; w < n; w++ {
				if got, want := rc.awaits(w), slices.Contains(row.awaited, w); got != want {
					t.Fatalf("worker %d must answer = %v, want %v", w, got, want)
				}
			}
			for i, v := range row.votes {
				if got := rc.vote(v.w, v.off); got != row.done[i] {
					t.Fatalf("vote %d (worker %d): complete = %v, want %v", i, v.w, got, row.done[i])
				}
				if !rc.counted(v.w) || rc.awaits(v.w) {
					t.Fatalf("vote %d (worker %d) not counted", i, v.w)
				}
			}
			if rc.lo != row.lo || rc.hi != row.hi {
				t.Fatalf("fold = [%d, %d], want [%d, %d]", rc.lo, rc.hi, row.lo, row.hi)
			}
		})
	}
}

// TestRollCallSupersede checks which proposals replace an open roll
// call: any, when none is open; otherwise only a strictly newer
// generation, in the 16-bit wrapping order.
func TestRollCallSupersede(t *testing.T) {
	var none *rollCall
	if !none.supersededBy(3) {
		t.Fatal("a proposal did not open a roll call where none was open")
	}
	for _, c := range []struct {
		open, gen uint16
		want      bool
	}{
		{5, 6, true},
		{5, 5, false},
		{5, 4, false},
		{0xffff, 0, true},
		{0, 0xffff, false},
	} {
		rc := newRollCall(c.open, 2, nil, false, -1)
		if got := rc.supersededBy(c.gen); got != c.want {
			t.Errorf("roll call for generation %d superseded by %d = %v, want %v", c.open, c.gen, got, c.want)
		}
	}
}
