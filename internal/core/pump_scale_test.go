package core

import (
	"math/rand"
	"sort"
	"testing"

	"switchml/internal/packet"
)

// TestPumpCostIndependentOfPoolSize is the count-valued gate for "the
// per-call cost does not depend on s": the same 64-chunk tensor, driven
// through a Worker and its Pump the way the UDP client drives them —
// Open and Next, Sent per packet, Result per result, Due and Deadline
// per burst — looks at exactly as many queue entries in a pool of 1024
// slots as in one of 64, and touches the heap in neither. A count
// rather than a timing: udp_smallstep's step_p50_ms moves by more
// between two runs of the same binary than a 1024-slot scan costs.
func TestPumpCostIndependentOfPoolSize(t *testing.T) {
	const chunks, burst = 64, 8
	type run struct {
		examined uint64
		allocs   float64
	}
	drive := func(s int) run {
		w := newTestWorker(t, 0, 1, s, 1)
		p := NewPump(w, prto, false, true)
		u := make([]int32, chunks)
		due := make([]uint32, 0, s)
		sent := make([]packet.Packet, chunks)
		var res packet.Packet
		var wire onWire
		now := int64(0)
		tensor := func() {
			now += rtt
			if n := w.Open(u); n != chunks {
				t.Fatalf("pool %d: initial window of %d packets, want %d", s, n, chunks)
			}
			for q := w.Next(); q != nil; q = w.Next() {
				p.Sent(q.Idx, now)
				sent[q.Idx] = packet.Packet{Idx: q.Idx, Ver: q.Ver, Off: q.Off}
				packet.PutPacket(q)
			}
			for i := 0; i < chunks; i++ {
				if i%burst == 0 {
					now += rtt / burst
				}
				q := &sent[i]
				res.Kind, res.Idx, res.Ver, res.Off, res.Vector = packet.KindResult, q.Idx, q.Ver, q.Off, u[i:i+1]
				next, done := wire.result(p, &res, now)
				if next != nil || done != (i == chunks-1) {
					t.Fatalf("pool %d, chunk %d: next %v done %v", s, i, next, done)
				}
				if i%burst == burst-1 {
					if due = p.Due(now, due[:0]); len(due) != 0 {
						t.Fatalf("pool %d: lossless burst: Due = %v", s, due)
					}
					p.Deadline()
				}
			}
		}
		// Warm up: the first tensor sizes the aggregate buffer and the
		// chunk map, and Lapped has nothing to ask until a pool's worth
		// of sends has been answered.
		for sends := 0; sends <= 1024; sends += chunks {
			tensor()
		}
		var r run
		before := w.examined
		tensor()
		r.examined = w.examined - before
		if !raceEnabled { // the race detector makes sync.Pool drop Puts
			r.allocs = testing.AllocsPerRun(50, tensor)
		}
		return r
	}
	small, large := drive(64), drive(1024)
	if small.examined != large.examined {
		t.Errorf("a %d-chunk tensor examines %d queue entries in a pool of 64 and %d in one of 1024; want the same",
			chunks, small.examined, large.examined)
	}
	// Per burst: Lapped looks at one entry at most, Due at one, Deadline
	// at one, and the two tail walks at one each.
	if max := uint64(5 * chunks / burst); small.examined == 0 || small.examined > max {
		t.Errorf("%d queue entries examined over %d lossless bursts, want 1 to %d", small.examined, chunks/burst, max)
	}
	if small.allocs != 0 || large.allocs != 0 {
		t.Errorf("a tensor allocates %.2f/op at pool 64 and %.2f/op at pool 1024, want 0 and 0", small.allocs, large.allocs)
	}
}

// The pump's rules as they read before the send queue: one pass over
// every slot of the pool each. TestPumpQueueMatchesFullScan holds the
// queue walks to them.

func scanLapped(w *Worker, dst []uint32) []uint32 {
	window := uint64(w.cfg.PoolSize)
	if w.acked < window {
		return dst
	}
	for i := range w.pend {
		if pd := &w.pend[i]; pd.active && !pd.lapped && pd.seq <= w.acked-window {
			pd.lapped = true
			dst = append(dst, uint32(i))
		}
	}
	return dst
}

func scanTail(p *Pump) int {
	w := p.w
	if w.remaining == len(w.u) || w.inflight == len(w.pend) {
		return -1
	}
	n := -1
	for i := range w.pend {
		switch s := &p.slots[i]; {
		case !w.pend[i].active, s.backoff != 0:
		case n < 0, s.probes < p.slots[n].probes,
			s.probes == p.slots[n].probes && w.pend[i].seq > w.pend[n].seq:
			n = i
		}
	}
	return n
}

func scanDue(p *Pump, now int64, dst []uint32) []uint32 {
	p.sync()
	p.fold()
	dst = scanLapped(p.w, dst)
	rto, pto := p.RTO(), p.PTO()
	tail := scanTail(p)
	for i := range p.slots {
		pd := &p.w.pend[i]
		if !pd.active || pd.lapped {
			continue
		}
		s := &p.slots[i]
		if now-s.sentAt >= rto<<s.backoff {
			if s.backoff < maxBackoff {
				s.backoff++
			}
			dst = append(dst, uint32(i))
			continue
		}
		d := pto << s.probes
		switch {
		case pto == 0:
			continue
		case p.ackedAt-s.sentAt >= d:
		case i == tail && now-p.tailSince(s) >= d:
			p.probedAt, p.probedIdx = now, uint32(i)
		default:
			continue
		}
		s.probes++
		pd.probed = true
		dst = append(dst, uint32(i))
	}
	return dst
}

func scanDeadline(p *Pump) int64 {
	p.sync()
	d := int64(never)
	rto := p.RTO()
	for i := range p.slots {
		if !p.w.pend[i].active {
			continue
		}
		if t := p.slots[i].sentAt + rto<<p.slots[i].backoff; t < d {
			d = t
		}
	}
	if tail := scanTail(p); tail >= 0 {
		s := &p.slots[tail]
		if t := p.tailSince(s) + p.PTO()<<s.probes; p.PTO() != 0 && t < d {
			d = t
		}
	}
	return d
}

// TestPumpQueueMatchesFullScan runs twin workers and pumps through the
// same seeded schedules of results, losses, reordering, stalls and
// window discards — one pump asked through Due and Deadline, the other
// through the full scans above — and requires the same slots back, in
// whatever order, and the same deadline, every time. The pool is larger
// than some tensors and smaller than others, so both the short window
// and the wrapped one are walked.
func TestPumpQueueMatchesFullScan(t *testing.T) {
	const s = 8
	var all WorkerStats
	var wire onWire
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type twin struct {
			w *Worker
			p *Pump
		}
		var tw [2]twin
		for i := range tw {
			w := newTestWorker(t, 0, 1, s, 1)
			tw[i] = twin{w, NewPump(w, prto, seed%2 == 0, true)}
		}
		now := int64(0)
		// flight holds, per slot, the packet a result may still answer:
		// the last one sent unless the schedule lost it.
		flight := make(map[uint32]*packet.Packet)
		sent := func(pkts [2]*packet.Packet) {
			if (pkts[0] == nil) != (pkts[1] == nil) {
				t.Fatalf("seed %d, t=%d: the twins disagree on whether there is a packet to send", seed, now)
			}
			if pkts[0] == nil {
				return
			}
			if pkts[0].Idx != pkts[1].Idx || pkts[0].Off != pkts[1].Off || pkts[0].Ver != pkts[1].Ver {
				t.Fatalf("seed %d, t=%d: the twins sent different packets: %+v and %+v", seed, now, pkts[0], pkts[1])
			}
			for i := range tw {
				tw[i].p.Sent(pkts[i].Idx, now)
			}
			if rng.Intn(5) == 0 {
				delete(flight, pkts[0].Idx) // lost
			} else {
				flight[pkts[0].Idx] = pkts[0]
			}
		}
		start := func() {
			u := make([]int32, 1+rng.Intn(5*s))
			a, b := tw[0].w.Start(u), tw[1].w.Start(u)
			for i := range a {
				sent([2]*packet.Packet{a[i], b[i]})
			}
		}
		check := func() {
			got := tw[0].p.Due(now, nil)
			want := scanDue(tw[1].p, now, nil)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if len(got) != len(want) {
				t.Fatalf("seed %d, t=%d: Due = %v, the full scan finds %v", seed, now, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d, t=%d: Due = %v, the full scan finds %v", seed, now, got, want)
				}
			}
			for _, idx := range got {
				if a, b := tw[0].p.TimedOut(idx), tw[1].p.TimedOut(idx); a != b {
					t.Fatalf("seed %d, t=%d, slot %d: timed out %v, by the full scan %v", seed, now, idx, a, b)
				}
				sent([2]*packet.Packet{tw[0].w.Retransmit(idx), tw[1].w.Retransmit(idx)})
			}
			if got, want := tw[0].p.Deadline(), scanDeadline(tw[1].p); got != want {
				t.Fatalf("seed %d, t=%d: Deadline = %d, the full scan finds %d", seed, now, got, want)
			}
		}
		start()
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(100); {
			case r < 55 && len(flight) > 0:
				// A burst of results, in any order.
				now += int64(rng.Intn(int(rtt)))
				for n := 1 + rng.Intn(s); n > 0 && len(flight) > 0; n-- {
					idxs := make([]uint32, 0, len(flight))
					for idx := range flight {
						idxs = append(idxs, idx)
					}
					sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
					idx := idxs[rng.Intn(len(idxs))]
					q := flight[idx]
					delete(flight, idx)
					var next [2]*packet.Packet
					var done [2]bool
					for i := range tw {
						next[i], done[i] = wire.result(tw[i].p, result(q, q.Vector), now)
					}
					if done[0] != done[1] {
						t.Fatalf("seed %d, t=%d: the twins disagree on completion", seed, now)
					}
					sent(next)
				}
			case r < 85:
				// Silence: to the deadline, or a stall far past it.
				if d := tw[0].p.Deadline(); d != never && d > now {
					now = d
				}
				if r >= 80 {
					now += int64(rng.Intn(int(3 * prto)))
				}
			case r < 88 && tw[0].w.Busy():
				from := tw[0].w.FirstMissingChunk()
				flight = make(map[uint32]*packet.Packet)
				a, b := tw[0].w.Resume(uint16(step), from), tw[1].w.Resume(uint16(step), from)
				for i := range a {
					sent([2]*packet.Packet{a[i], b[i]})
				}
			}
			check()
			if !tw[0].w.Busy() {
				start()
				check()
			}
		}
		st := tw[0].w.Stats()
		all.Retransmissions += st.Retransmissions
		all.EarlyRetransmissions += st.EarlyRetransmissions
		all.ProbeRetransmissions += st.ProbeRetransmissions
	}
	if timer := all.Retransmissions - all.EarlyRetransmissions - all.ProbeRetransmissions; all.EarlyRetransmissions == 0 || all.ProbeRetransmissions == 0 || timer == 0 {
		t.Errorf("the schedules recovered %d times by lap, %d by probe and %d by timer; every rule must have been walked",
			all.EarlyRetransmissions, all.ProbeRetransmissions, timer)
	} else {
		t.Logf("recoveries compared: %d lap, %d probe, %d timer", all.EarlyRetransmissions, all.ProbeRetransmissions, timer)
	}
}
