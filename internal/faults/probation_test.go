package faults

import "testing"

// TestProbationWindow walks the machine both substrates share: answered
// rounds extend the streak, stale or repeated answers do not count, an
// unanswered round restarts it, and Restart forgets an open probe.
func TestProbationWindow(t *testing.T) {
	var p Probation
	p.Close() // nothing open: the streak is untouched
	for round := 1; round <= 3; round++ {
		seq := p.Open()
		if seq != uint32(round) || !p.Awaiting() {
			t.Fatalf("round %d: Open = %d, awaiting %v", round, seq, p.Awaiting())
		}
		if p.Ack(seq - 1) {
			t.Fatalf("round %d: a stale answer counted", round)
		}
		if !p.Ack(seq) || p.Ack(seq) {
			t.Fatalf("round %d: the answer must count exactly once", round)
		}
		p.Close()
	}
	if p.Streak() != 3 {
		t.Fatalf("streak = %d after three answered rounds, want 3", p.Streak())
	}
	p.Open()
	p.Close()
	if p.Streak() != 0 || p.Awaiting() {
		t.Fatalf("an unanswered round left streak %d, awaiting %v", p.Streak(), p.Awaiting())
	}
	seq := p.Open()
	p.Restart()
	if p.Ack(seq) || p.Streak() != 0 {
		t.Fatal("an answer to a probe opened before Restart counted")
	}
}
