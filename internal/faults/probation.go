package faults

// Probation is the failback probation window, the sans-I/O machine
// both substrates run before returning a job to an aggregator it left:
// each round opens a probe, an answer to the open probe extends the
// streak, and a round closed with its probe still unanswered restarts
// it. The host owns the rounds' timing and the probes' transport; the
// window only keeps the books. The simulator's health monitor runs one
// against the primary switch, the UDP client one per rung it courts
// (the mesh failback and the standby fail-up).
type Probation struct {
	seq    uint32
	await  bool
	streak int
}

// Open starts the next round and returns the sequence number its
// probe must carry.
func (p *Probation) Open() uint32 {
	p.seq++
	p.await = true
	return p.seq
}

// Ack takes an answer carrying seq: one that matches the open probe
// closes it and extends the streak. It reports whether the answer
// counted; late, duplicate and stale answers do not.
func (p *Probation) Ack(seq uint32) bool {
	if !p.await || seq != p.seq {
		return false
	}
	p.await = false
	p.streak++
	return true
}

// Close ends the current round: a probe still unanswered means the
// aggregator is still gone (or flapping), and the streak restarts.
func (p *Probation) Close() {
	if p.await {
		p.Restart()
	}
}

// Restart forgets the streak and any probe in flight.
func (p *Probation) Restart() { p.await, p.streak = false, 0 }

// Awaiting reports whether a probe is open.
func (p *Probation) Awaiting() bool { return p.await }

// Streak is the number of consecutive rounds answered.
func (p *Probation) Streak() int { return p.streak }
