package core

import (
	"cmp"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"testing"

	"switchml/internal/packet"
)

// Virtual-time units for the pump tables. Every warm-up round trip is
// exactly rtt, so the mean is rtt and the base PTO ptoRTTs of them.
const (
	us   = int64(1000)
	rtt  = 100 * us
	pto  = ptoRTTs * rtt
	prto = 5000 * us
)

// pumpDriver is the host of one worker and its pump on virtual time,
// and the switch too: it keeps the last packet produced per slot and
// answers whichever the scenario picks, whenever the scenario says.
// Chunks are one element long, so a chunk's index in its tensor is its
// stream offset less the tensor's base.
type pumpDriver struct {
	t      *testing.T
	w      *Worker
	p      *Pump
	now    int64
	base   uint64
	flight map[uint32]*packet.Packet
	wire   onWire
	// sends logs every transmission: which chunk, when, and whether Due
	// had returned it for an expired timeout.
	sends []pumpSend
}

type pumpSend struct {
	chunk uint64
	at    int64
	retx  bool
	timer bool
}

// newPumpDriver warms the estimator with one tensor answered a window
// at a time, each exactly rtt after it was sent — meanSpan windows, so
// the PTO's average is past its start-up phase — then opens the tensor
// the scenario runs on.
func newPumpDriver(t *testing.T, s, chunks int) *pumpDriver {
	t.Helper()
	w := newTestWorker(t, 0, 1, s, 1)
	d := &pumpDriver{t: t, w: w, p: NewPump(w, prto, false, true), flight: make(map[uint32]*packet.Packet)}
	if got := d.p.PTO(); got != 0 {
		t.Fatalf("PTO = %d before any sample, want 0 (no probing)", got)
	}
	d.start(meanSpan * s)
	for len(d.flight) > 0 {
		d.now += rtt
		for _, idx := range d.inOrder() {
			d.answer(idx)
		}
		d.wantDue("lossless warm-up")
	}
	if got := d.p.PTO(); got != pto {
		t.Fatalf("PTO = %d after a warm-up of %d ns round trips, want %d", got, rtt, pto)
	}
	d.now += rtt
	d.sends = nil
	d.start(chunks)
	return d
}

func (d *pumpDriver) start(chunks int) {
	pkts := d.w.Start(make([]int32, chunks))
	d.base = d.w.TensorBase()
	for _, p := range pkts {
		d.sent(p, false, false)
	}
}

func (d *pumpDriver) sent(p *packet.Packet, retx, timer bool) {
	d.p.Sent(p.Idx, d.now)
	d.flight[p.Idx] = p
	d.sends = append(d.sends, pumpSend{p.Off - d.base, d.now, retx, timer})
}

// onWire is the road a result takes into Pump.Result: marshalled into
// a reused buffer and parsed back, header first, as the UDP client
// receives it.
type onWire struct {
	buf []byte
	h   packet.Header
}

// result feeds p the result r in wire form and returns the follow-up as
// a pooled packet, nil for none.
func (o *onWire) result(p *Pump, r *packet.Packet, now int64) (*packet.Packet, bool) {
	o.buf = r.AppendMarshal(o.buf[:0])
	payload, err := packet.ParseHeader(&o.h, o.buf)
	if err != nil {
		panic(err)
	}
	next, done := p.Result(&o.h, payload, now)
	return next.Packet(), done
}

// inOrder lists the slots in flight by the stream offset of their
// chunk, which is the order the chunks were first sent in.
func (d *pumpDriver) inOrder() []uint32 {
	var idxs []uint32
	for idx := range d.flight {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return d.flight[idxs[i]].Off < d.flight[idxs[j]].Off })
	return idxs
}

// answer delivers the result for slot idx's last packet at d.now and
// transmits the follow-up it unlocks.
func (d *pumpDriver) answer(idx uint32) (done bool) {
	d.t.Helper()
	p, ok := d.flight[idx]
	if !ok {
		d.t.Fatalf("slot %d has nothing in flight", idx)
	}
	delete(d.flight, idx)
	next, done := d.wire.result(d.p, result(p, p.Vector), d.now)
	if next != nil {
		d.sent(next, false, false)
	}
	return done
}

// lose forgets slot idx's packet in flight: whatever answers the slot
// later answers a retransmission.
func (d *pumpDriver) lose(idx uint32) { delete(d.flight, idx) }

// due asks the pump what to retransmit at d.now and retransmits it.
func (d *pumpDriver) due() []uint32 {
	d.t.Helper()
	slots := d.p.Due(d.now, nil)
	for _, idx := range slots {
		timer := d.p.TimedOut(idx)
		p := d.w.Retransmit(idx)
		if p == nil {
			d.t.Fatalf("Due returned slot %d, which has nothing in flight", idx)
		}
		d.sent(p, true, timer)
	}
	return slots
}

func (d *pumpDriver) wantDue(when string, want ...uint32) {
	d.t.Helper()
	got := d.due()
	if len(got) != len(want) {
		d.t.Fatalf("%s (t=%d): Due = %v, want %v", when, d.now, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			d.t.Fatalf("%s (t=%d): Due = %v, want %v", when, d.now, got, want)
		}
	}
}

// sleep advances the clock to the pump's deadline, as a host blocked
// on its socket would, and returns how long after the last send that
// is.
func (d *pumpDriver) sleep() int64 {
	d.t.Helper()
	at := d.p.Deadline()
	if at == never || at < d.now {
		d.t.Fatalf("t=%d: Deadline = %d with %d pending", d.now, at, d.w.PendingCount())
	}
	d.now = at
	return at - d.sends[len(d.sends)-1].at
}

// drainTo answers in order, a round trip per window, until only the
// chunks from index chunk on are left unanswered. No Due in between
// may find anything.
func (d *pumpDriver) drainTo(chunk uint64) {
	d.t.Helper()
	for {
		var ready []uint32
		for _, idx := range d.inOrder() {
			if d.flight[idx].Off-d.base < chunk {
				ready = append(ready, idx)
			}
		}
		if len(ready) == 0 {
			return
		}
		d.now += rtt
		for _, idx := range ready {
			d.answer(idx)
		}
		d.wantDue("in-order drain")
	}
}

// wantBackoffAfterProbes checks each chunk's retransmissions under a
// switch that stayed silent: between lo and hi probes first, then
// timeouts only, each a doubling of the RTO after the previous send up
// to the 64x ceiling — the sequence the timer had before there were
// probes.
func (d *pumpDriver) wantBackoffAfterProbes(lo, hi int, chunks ...uint64) {
	d.t.Helper()
	for _, chunk := range chunks {
		var probes int
		var last int64
		var gaps []int64
		for _, snd := range d.sends {
			switch {
			case snd.chunk != chunk:
				continue
			case snd.retx && !snd.timer:
				if len(gaps) > 0 {
					d.t.Fatalf("chunk %d probed after its first timeout", chunk)
				}
				probes++
			case snd.timer:
				gaps = append(gaps, snd.at-last)
			}
			last = snd.at
		}
		if probes < lo || probes > hi {
			d.t.Errorf("chunk %d probed %d times, want %d to %d", chunk, probes, lo, hi)
		}
		for i, gap := range gaps {
			want := int64(prto) << uint(i)
			if i > maxBackoff {
				want = prto << maxBackoff
			}
			if gap != want {
				d.t.Fatalf("chunk %d: timeout %d came %d after the previous send, want %d", chunk, i, gap, want)
			}
		}
		if len(gaps) < maxBackoff+2 {
			d.t.Fatalf("chunk %d timed out %d times, too few to see the backoff's ceiling", chunk, len(gaps))
		}
	}
}

func (d *pumpDriver) retransmissions() (n int) {
	for _, s := range d.sends {
		if s.retx {
			n++
		}
	}
	return n
}

// TestPumpRecoveryLadder states the overtake and tail-probe rules
// scenario by scenario on virtual time, with no sockets: what repairs
// a loss where nothing is left to lap it, how soon, and what a
// lossless run must never pay for it.
func TestPumpRecoveryLadder(t *testing.T) {
	// log2(RTO/PTO) rounded up: the probes a chunk can get before its
	// PTO has doubled past the RTO.
	maxProbes := bits.Len64(uint64((prto - 1) / pto))
	cases := []struct {
		name      string
		s, chunks int
		run       func(t *testing.T, d *pumpDriver)
	}{
		{"a lone straggler is repaired at PTO, not RTO", 4, 12, func(t *testing.T, d *pumpDriver) {
			d.drainTo(11)
			d.lose(3) // chunk 11: the tensor's last, alone in flight
			d.now += rtt
			d.wantDue("before the PTO")
			if got := d.sleep(); got != pto {
				t.Fatalf("woke %d after the send, want the PTO %d (RTO %d)", got, pto, prto)
			}
			d.wantDue("at the PTO", 3)
			d.now += rtt
			if !d.answer(3) {
				t.Fatal("tensor not complete")
			}
			if st := d.w.Stats(); st.Retransmissions != 1 || st.ProbeRetransmissions != 1 || st.EarlyRetransmissions != 0 {
				t.Errorf("retransmissions/probe/early = %d/%d/%d, want 1/1/0", st.Retransmissions, st.ProbeRetransmissions, st.EarlyRetransmissions)
			}
		}},
		{"the tail probe's packet is the one sent last, whatever its slot", 4, 10, func(t *testing.T, d *pumpDriver) {
			// Slots 0 and 1 own three chunks, slots 2 and 3 two. Lose
			// chunk 7 (slot 3) and, sent a round trip after it, chunk 8
			// (slot 0); chunk 9, sent last of all, is answered.
			d.drainTo(4)
			d.lose(3) // chunk 7
			d.now += rtt
			d.answer(0) // chunk 4; sends 8
			d.answer(1) // chunk 5; sends 9
			d.answer(2) // chunk 6
			d.lose(0)   // chunk 8
			d.wantDue("second window")
			d.now += rtt
			d.answer(1) // chunk 9
			d.wantDue("chunk 9")
			if got := d.sleep(); got != pto {
				t.Fatalf("woke %d after the last send, want the PTO %d", got, pto)
			}
			d.wantDue("tail probe", 0)
		}},
		{"a lost probe is re-probed at 2·PTO, 4·PTO…, then the RTO", 4, 12, func(t *testing.T, d *pumpDriver) {
			d.drainTo(11)
			want := pto
			for probe := 1; want < prto; probe, want = probe+1, want*2 {
				if got := d.sleep(); got != want {
					t.Fatalf("probe %d came %d after the last send, want %d", probe, got, want)
				}
				d.wantDue("probe", 3)
				if d.sends[len(d.sends)-1].timer || d.p.Timeout(3) != prto {
					t.Fatalf("probe %d touched the timeout's backoff", probe)
				}
				d.lose(3)
			}
			// The chunk's PTO has met the RTO: it is the timer's now,
			// on the backoff sequence it has always had.
			for _, want := range []int64{prto, 2 * prto, 4 * prto} {
				if got := d.sleep(); got != want {
					t.Fatalf("timeout came %d after the last send, want %d", got, want)
				}
				d.wantDue("timeout", 3)
				if last := d.sends[len(d.sends)-1]; !last.timer {
					t.Fatal("retransmission past the last probe not reported as a timeout")
				}
			}
			st := d.w.Stats()
			if int(st.ProbeRetransmissions) != maxProbes || st.Retransmissions != st.ProbeRetransmissions+3 {
				t.Errorf("probe/all retransmissions = %d/%d, want %d/%d", st.ProbeRetransmissions, st.Retransmissions, maxProbes, maxProbes+3)
			}
		}},
		{"two stragglers: the probe's follow-up overtakes the other, which goes at once", 8, 17, func(t *testing.T, d *pumpDriver) {
			// Slot 0 owns chunks 0, 8 and 16, every other slot two. Its
			// first result comes half a round trip late, so chunk 8 goes
			// out after chunks 9..15. Lose chunk 15 and, sent after it,
			// chunk 8; finish everything else. (The pool is 8 so that
			// the three sends that follow chunk 15 stay short of
			// lapping it.)
			d.now += rtt
			for _, idx := range d.inOrder()[1:] { // 1..7 answered, 9..15 sent
				d.answer(idx)
			}
			d.wantDue("first window but chunk 0")
			d.now += rtt / 2
			d.answer(0) // chunk 0; sends 8
			d.wantDue("chunk 0, late")
			d.lose(7) // chunk 15
			d.lose(0) // chunk 8
			d.now += rtt / 2
			for _, idx := range d.inOrder() { // 9..14 answered
				d.answer(idx)
			}
			d.wantDue("second window but chunks 8 and 15")
			// Chunk 8 is the newest pending packet: the tail probe's.
			// (The late result nudged the mean round trip.)
			if got, want := d.sleep(), d.p.PTO(); got != want {
				t.Fatalf("woke %d after the last send, want the PTO %d", got, want)
			}
			d.wantDue("tail probe", 0)
			d.now += rtt
			d.answer(0) // the probe's result: no evidence (Karn); sends 16
			d.wantDue("a retransmitted packet's result overtakes nothing")
			d.now += rtt
			d.answer(0) // chunk 16, clean and sent more than a PTO after 15
			d.wantDue("overtaken", 7)
			if last := d.sends[len(d.sends)-1]; last.timer || last.chunk != 15 {
				t.Fatalf("chunk 15 not repaired on the ack clock: %+v", last)
			}
			if age := d.now - d.sends[15].at; age >= prto {
				t.Fatalf("chunk 15 repaired %d after its send, past the RTO", age)
			}
			d.now += rtt
			if !d.answer(7) {
				t.Fatal("tensor not complete")
			}
			if st := d.w.Stats(); st.ProbeRetransmissions != 2 || st.Retransmissions != 2 {
				t.Errorf("probe/all retransmissions = %d/%d, want 2/2", st.ProbeRetransmissions, st.Retransmissions)
			}
		}},
		{"two stragglers with nothing left to send: the second goes when the first's probe is answered", 4, 12, func(t *testing.T, d *pumpDriver) {
			d.drainTo(10)
			d.lose(2) // chunk 10
			d.lose(3) // chunk 11
			d.sleep()
			d.wantDue("tail probe of the newest", 3)
			d.now += rtt
			d.answer(3)
			// Chunk 10 is the tail now, long a PTO old, and the switch
			// is answering: no second wait.
			d.wantDue("the probe's result", 2)
			d.now += rtt
			if !d.answer(2) {
				t.Fatal("tensor not complete")
			}
		}},
		{"a switch silent mid-tensor gets no probe, only the timer's own backoff", 4, 40, func(t *testing.T, d *pumpDriver) {
			d.drainTo(4)
			// Chunks 4..7 are in flight, every slot has more to send,
			// and the switch falls silent.
			for d.now < 200*prto {
				d.sleep()
				if len(d.due()) == 0 {
					t.Fatalf("t=%d: woke for nothing", d.now)
				}
			}
			d.wantBackoffAfterProbes(0, 0, 4, 5, 6, 7)
		}},
		{"a switch silent in the last window gets log2(RTO/PTO) probes a chunk, one a PTO, then the same", 4, 12, func(t *testing.T, d *pumpDriver) {
			d.drainTo(8)
			d.now += rtt
			d.answer(0) // chunk 8: slot 0 has nothing left to send
			d.wantDue("chunk 8")
			for d.now < 200*prto {
				d.sleep()
				if len(d.due()) == 0 {
					t.Fatalf("t=%d: woke for nothing", d.now)
				}
			}
			// The newest packet is probed first, then the others in
			// turn: none more often than its PTO can double below the
			// RTO, and no two probes less than a PTO apart.
			d.wantBackoffAfterProbes(1, maxProbes, 9, 10, 11)
			var probes []pumpSend
			for _, snd := range d.sends {
				if snd.retx && !snd.timer {
					probes = append(probes, snd)
				}
			}
			if probes[0].chunk != 11 {
				t.Errorf("first probe is of chunk %d, want the newest, 11", probes[0].chunk)
			}
			for i := 1; i < len(probes); i++ {
				if gap := probes[i].at - probes[i-1].at; gap < pto {
					t.Fatalf("probes of chunks %d and %d are %d apart, under the PTO %d", probes[i-1].chunk, probes[i].chunk, gap, pto)
				}
			}
		}},
		{"losses crossing between workers: the probe moves on from a newest packet that waits for the peer", 4, 12, func(t *testing.T, d *pumpDriver) {
			// Chunks 10 and 11 are left. Ours for chunk 10 is lost; the
			// switch has ours for chunk 11 and waits for the peer's,
			// which is lost — and the peer, for whom 10 is the newest,
			// probes that. Probing only the newest would leave both
			// waiting out the RTO.
			d.drainTo(10)
			sentAt := d.now
			d.wantDue("last window")
			if got := d.sleep(); got != pto {
				t.Fatalf("woke %d after the last send, want the PTO %d", got, pto)
			}
			d.wantDue("tail probe of the newest", 3)
			if got := d.sleep(); got != pto {
				t.Fatalf("woke %d after the first probe, want another PTO, %d", got, pto)
			}
			d.wantDue("tail probe moved on", 2)
			if d.now >= sentAt+prto {
				t.Fatalf("chunk 10 repaired %d after its send, past the RTO", d.now-sentAt)
			}
			d.now += rtt
			d.answer(2) // chunk 10: now the peer's probe of 11 can be answered
			d.wantDue("chunk 10")
		}},
		{"lossless, reordered, receiver stalled 10·PTO: nothing mid-tensor, one duplicate in the last window", 4, 40, func(t *testing.T, d *pumpDriver) {
			// The host is descheduled with every result queued behind
			// it, wakes long past any PTO and only then reads them, each
			// window newest first: once mid-tensor, in bursts of two,
			// and once with the last window in flight and its first
			// slot done, in one burst.
			stall := func(when string, burst int, want ...uint32) {
				d.now += 10 * pto
				d.wantDue(when, want...)
				order := d.inOrder()
				for i := len(order) - 1; i >= 0; i-- {
					d.answer(order[i])
					if i%burst == 0 {
						d.wantDue("queued results, newest first")
					}
				}
			}
			d.drainTo(4)
			stall("stalled mid-tensor", 2)
			d.drainTo(36)
			d.now += rtt
			d.answer(0) // chunk 36
			d.wantDue("chunk 36")
			stall("stalled in the last window", 4, 3)
			if n := d.retransmissions(); n != 1 || len(d.flight) != 0 {
				t.Errorf("%d retransmissions, %d chunks left; want 1 (chunk 39, the newest packet) and 0", n, len(d.flight))
			}
		}},
		{"a switch that has answered none of the tensor is waiting for a peer: no probe", 4, 3, func(t *testing.T, d *pumpDriver) {
			// Three chunks: the window is short of full from the start.
			sentAt := d.now
			d.now += 10 * pto
			d.wantDue("nothing of this tensor answered")
			if got, want := d.p.Deadline(), sentAt+prto; got != want {
				t.Fatalf("Deadline = %d, want the window's timeout %d", got, want)
			}
			// The peer arrives. The first result starts the tail's
			// clock: the wait for the peer does not count as age.
			d.answer(0)
			d.wantDue("first result")
			if got, want := d.p.Deadline(), d.now+d.p.PTO(); got != want {
				t.Fatalf("Deadline = %d, want a PTO after the first result, %d", got, want)
			}
		}},
		{"a clean sample of 50x the mean leaves the PTO where it was", 4, 12, func(t *testing.T, d *pumpDriver) {
			d.now += 50 * rtt // a peer's timeout, seen from here
			for _, idx := range d.inOrder() {
				d.answer(idx)
			}
			d.p.fold()
			if got := d.p.PTO(); got < pto || got > pto+pto/20 {
				t.Errorf("PTO = %d after one 50x sample, want within 5%% above %d", got, pto)
			}
			if d.p.SRTT() < 5*rtt {
				t.Errorf("SRTT = %d: the scenario's sample never reached the estimators", d.p.SRTT())
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newPumpDriver(t, tc.s, tc.chunks)) })
	}
}

// TestPumpPTONeverAboveRTO pins the clamp: a path whose round trips
// approach the RTO gets no probes, only the timer.
func TestPumpPTONeverAboveRTO(t *testing.T) {
	w := newTestWorker(t, 0, 1, 4, 1)
	d := &pumpDriver{t: t, w: w, p: NewPump(w, prto, false, true), flight: make(map[uint32]*packet.Packet)}
	d.start(16)
	for len(d.flight) > 0 {
		d.now += prto / 2
		for _, idx := range d.inOrder() {
			if d.answer(idx) {
				break
			}
		}
		if got := d.p.PTO(); got > prto {
			t.Fatalf("PTO = %d above the RTO %d", got, prto)
		}
		if len(d.flight) > 1 {
			d.lose(d.inOrder()[0])
		}
		d.due()
	}
	if st := d.w.Stats(); st.ProbeRetransmissions != 0 || st.Retransmissions == 0 {
		t.Errorf("probe/all retransmissions = %d/%d, want 0 probes and some timeouts", st.ProbeRetransmissions, st.Retransmissions)
	}
}

// TestPumpAdaptiveRTOClampBounds pins the adaptive timeout's clamp:
// the estimate never undercuts the configured RTO and never exceeds
// 64x it.
func TestPumpAdaptiveRTOClampBounds(t *testing.T) {
	w := newTestWorker(t, 0, 2, 4, 1)
	p := NewPump(w, prto, true, false)
	for _, c := range []struct {
		name         string
		srtt, rttvar int64
		want         int64
	}{
		{"no sample yet", 0, 0, prto},
		{"tiny estimate, up to the floor", us, 0, prto},
		{"mid-range, srtt + 4*rttvar unclamped", 10 * prto, prto, 14 * prto},
		{"huge estimate, down to the ceiling", 10000 * prto, 1000 * prto, 64 * prto},
	} {
		p.srtt, p.rttvar = c.srtt, c.rttvar
		if got := p.RTO(); got != c.want {
			t.Errorf("%s: RTO = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestPumpTimeoutOnly runs the pump with the ladder off, as Algorithm 4
// states the worker's recovery, over a scripted schedule with loss and
// reordering: Due must return only timed-out slots, each exactly when
// its stamp plus the RTO doubled per consecutive expiry passes — also
// where the host transmits the window in another order than the Worker
// decided it, as a simulated host with uneven core backlogs does. The
// pump wakes only at its own Deadline, so a timeout found late shows as
// a retransmission stamped after its due time.
func TestPumpTimeoutOnly(t *testing.T) {
	const s = 8
	cases := []struct {
		name string
		// order permutes the initial window's transmissions (nil: the
		// order decided); lost counts the sends lost per chunk, the first
		// ones; reorder answers the rest out of order.
		order   []int
		lost    map[uint64]int
		reorder bool
	}{
		{name: "lossless"},
		{name: "lossless, reordered", reorder: true},
		{name: "two losses, reordered", lost: map[uint64]int{2: 1, 12: 1}, reorder: true},
		{name: "every chunk of the window lost once", lost: map[uint64]int{0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1}},
		{name: "one chunk lost eight times, past the backoff's ceiling", lost: map[uint64]int{9: 8}, reorder: true},
		{name: "stamped out of decision order", order: []int{3, 0, 7, 1, 6, 2, 5, 4}, lost: map[uint64]int{0: 1, 3: 2}},
		{name: "stamped in reverse, the first and last decided lost", order: []int{7, 6, 5, 4, 3, 2, 1, 0}, lost: map[uint64]int{0: 1, 7: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := newTestWorker(t, 0, 1, s, 1)
			p := NewPump(w, prto, false, false)
			var wire onWire
			var now int64
			stamp := map[uint32]int64{}
			backoff := map[uint32]uint{}
			flight := map[uint32]*packet.Packet{}
			lost, retx := maps.Clone(c.lost), 0
			// send stamps q as sent now and puts it in flight, unless it is
			// one of the sends lost.
			send := func(q *packet.Packet) {
				p.Sent(q.Idx, now)
				stamp[q.Idx] = now
				if lost[q.Off] > 0 {
					lost[q.Off]--
					return
				}
				flight[q.Idx] = q
			}
			pkts := w.Start(make([]int32, 2*s))
			// Every packet is stamped as decided, then again as its core
			// transmits it, one every microsecond in the scripted order.
			for _, q := range pkts {
				p.Sent(q.Idx, now)
			}
			order := c.order
			if order == nil {
				order = []int{0, 1, 2, 3, 4, 5, 6, 7}
			}
			for _, i := range order {
				now += us
				send(pkts[i])
			}
			// Each packet is answered a round trip after its stamp, or with
			// reorder at the second round-trip boundary after it, newest
			// first.
			answerAt := func(idx uint32) int64 {
				if c.reorder {
					return (stamp[idx]/rtt + 2) * rtt
				}
				return stamp[idx] + rtt
			}
			for w.Busy() {
				want := int64(never)
				for idx, at := range stamp {
					if w.Pending(idx) {
						want = min(want, at+prto<<backoff[idx])
					}
				}
				if d := p.Deadline(); d != want {
					t.Fatalf("t=%d: Deadline = %d, want the soonest stamp plus its timeout, %d", now, d, want)
				}
				ans := int64(never)
				for idx := range flight {
					ans = min(ans, answerAt(idx))
				}
				now = min(ans, want)
				if ans < want {
					var batch []uint32
					for idx := range flight {
						if answerAt(idx) == ans {
							batch = append(batch, idx)
						}
					}
					slices.SortFunc(batch, func(a, b uint32) int { return cmp.Compare(stamp[a], stamp[b]) })
					if c.reorder {
						slices.Reverse(batch)
					}
					for _, idx := range batch {
						q := flight[idx]
						delete(flight, idx)
						next, _ := wire.result(p, result(q, q.Vector), now)
						backoff[idx] = 0
						if next != nil {
							send(next)
						}
					}
				}
				for _, idx := range p.Due(now, nil) {
					if !p.TimedOut(idx) {
						t.Fatalf("t=%d: Due returned slot %d on evidence other than its timeout", now, idx)
					}
					if at := stamp[idx] + prto<<backoff[idx]; at != now {
						t.Fatalf("t=%d: Due returned slot %d, whose timeout expires at %d", now, idx, at)
					}
					backoff[idx] = min(backoff[idx]+1, maxBackoff)
					retx++
					send(w.Retransmit(idx))
				}
			}
			want := 0
			for _, n := range c.lost {
				want += n
			}
			if st := w.Stats(); retx != want || st.EarlyRetransmissions+st.ProbeRetransmissions != 0 {
				t.Errorf("retransmissions = %d (%d early, %d probes), want %d timeouts only",
					retx, st.EarlyRetransmissions, st.ProbeRetransmissions, want)
			}
		})
	}
}

// TestPumpStateCleared runs a slot's backoff and probe count up and
// then discards the window each way the worker can: the pump must
// forget both without being told, and time the fresh window from its
// own stamps only.
func TestPumpStateCleared(t *testing.T) {
	const s = 4
	cases := []struct {
		name  string
		clear func(t *testing.T, d *pumpDriver)
	}{
		{"Resume", func(t *testing.T, d *pumpDriver) {
			d.flight = make(map[uint32]*packet.Packet)
			for _, p := range d.w.Resume(7, d.w.FirstMissingChunk()) {
				d.sent(p, false, false)
			}
		}},
		{"InstallHostAggregate", func(t *testing.T, d *pumpDriver) {
			off := d.w.FrontierOff()
			if err := d.w.InstallHostAggregate(off, make([]int32, int(d.w.TensorEnd()-off))); err != nil {
				t.Fatal(err)
			}
			d.flight = make(map[uint32]*packet.Packet)
			d.start(40)
		}},
		{"JoinAt", func(t *testing.T, d *pumpDriver) {
			// A joiner has nothing in flight: finish the tensor first.
			for len(d.flight) > 0 {
				d.answer(d.inOrder()[0])
			}
			d.w.JoinAt(9, 1000)
			d.start(40)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newPumpDriver(t, s, 40)
			d.now += rtt
			for _, idx := range d.inOrder() {
				d.answer(idx)
			}
			d.due()
			// Silence: slot 3 is probed to exhaustion, then every slot
			// times out twice.
			for d.p.Timeout(0) < 4*prto {
				d.sleep()
				d.due()
			}
			d.now += rtt
			tc.clear(t, d)
			for idx := uint32(0); idx < s; idx++ {
				if got := d.p.Timeout(idx); got != prto {
					t.Errorf("slot %d: timeout %d after the window was discarded, want the base %d", idx, got, prto)
				}
			}
			d.wantDue("right after the window was discarded")
			if got, want := d.p.Deadline(), d.now+prto; got != want {
				t.Errorf("Deadline = %d, want the fresh window's unbacked-off timeout %d", got, want)
			}
		})
	}
}

// TestPumpDueZeroAlloc is the AllocsPerRun gate behind the
// //switchml:hotpath annotations on the pump: a lossless run's whole
// traffic with it — Result and Sent per packet, Due and Deadline per
// burst — must not touch the heap, nor must a Due that reports.
func TestPumpDueZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts, so the packets the worker hands out allocate")
	}
	const s = 8
	d := newPumpDriver(t, s, 1<<16)
	due := make([]uint32, 0, s)
	var res packet.Packet
	burst := func() {
		d.now += rtt
		for idx := uint32(0); idx < s; idx++ {
			p := d.flight[idx]
			res.Kind, res.Idx, res.Ver, res.Off, res.Vector = packet.KindResult, p.Idx, p.Ver, p.Off, p.Vector
			next, _ := d.wire.result(d.p, &res, d.now)
			packet.PutPacket(p)
			d.p.Sent(next.Idx, d.now)
			d.flight[idx] = next
		}
		due = d.p.Due(d.now, due[:0])
		d.p.Deadline()
	}
	if allocs := testing.AllocsPerRun(200, burst); allocs != 0 {
		t.Errorf("lossless burst allocates %.2f/op, want 0", allocs)
	}
	if len(due) != 0 {
		t.Fatalf("lossless burst: Due = %v", due)
	}
	reports := 0
	timeout := func() {
		d.now = d.p.Deadline()
		due = d.p.Due(d.now, due[:0])
		reports += len(due)
		for _, idx := range due {
			d.p.Sent(idx, d.now)
		}
	}
	if allocs := testing.AllocsPerRun(100, timeout); allocs != 0 {
		t.Errorf("reporting Due allocates %.2f/op, want 0", allocs)
	}
	if reports != 101*s { // AllocsPerRun warms up with one extra run
		t.Errorf("%d slots reported by 101 expiries of a window of %d", reports, s)
	}
}

// TestPumpIgnoredResultWritesNothing runs every result the Worker
// ignores through Pump.Result, the path that decodes a result's
// elements straight from the datagram into the aggregate: wrong kind,
// wrong job, a slot beyond the pool, a slot with nothing pending, an
// offset or version that is not the pending chunk's, and a payload one
// element short or long. Each carries a poison payload aimed at a span
// of the aggregate, and each must leave Aggregate() bit-identical, send
// nothing, count as stale and leave the pending chunk to the real result,
// which then completes the tensor with the right values.
func TestPumpIgnoredResultWritesNothing(t *testing.T) {
	const s, k = 2, 4
	w := newTestWorker(t, 0, 1, s, k)
	p := NewPump(w, prto, false, true)
	var wire onWire
	// Three chunks on two slots: chunk 0 answered moves slot 0 on to
	// chunk 2 (version 1); chunk 1 answered leaves slot 1 idle.
	u := []int32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	pkts := w.Start(u)
	for _, q := range pkts {
		p.Sent(q.Idx, 0)
	}
	next, _ := wire.result(p, result(pkts[0], pkts[0].Vector), rtt)
	if next == nil || next.Idx != 0 || next.Off != 2*k || next.Ver != 1 {
		t.Fatalf("follow-up of chunk 0 = %v, want chunk 2 on slot 0 at version 1", next)
	}
	if n, _ := wire.result(p, result(pkts[1], pkts[1].Vector), rtt); n != nil {
		t.Fatalf("chunk 1 answered: follow-up %v, want none", n)
	}
	poison := func(n int) []int32 {
		v := make([]int32, n)
		for i := range v {
			v[i] = 0x7EADBEEF - int32(i)
		}
		return v
	}
	pending := func() *packet.Packet {
		return &packet.Packet{Kind: packet.KindResult, Ver: 1, Idx: 0, Off: 2 * k, Vector: poison(k)}
	}
	cases := []struct {
		name string
		edit func(r *packet.Packet)
	}{
		{"wrong kind", func(r *packet.Packet) { r.Kind = packet.KindUpdate }},
		{"wrong job", func(r *packet.Packet) { r.JobID = 1 }},
		{"slot beyond the pool", func(r *packet.Packet) { r.Idx = s }},
		{"slot not pending", func(r *packet.Packet) { r.Idx, r.Off, r.Ver = 1, k, 0 }},
		{"offset mismatch", func(r *packet.Packet) { r.Off = 0 }},
		{"version mismatch", func(r *packet.Packet) { r.Ver = 0 }},
		{"one element short", func(r *packet.Packet) { r.Vector = r.Vector[:k-1] }},
		{"one element long", func(r *packet.Packet) { r.Vector = poison(k + 1) }},
	}
	for _, c := range cases {
		before := append([]int32(nil), w.Aggregate()...)
		st := w.Stats()
		r := pending()
		c.edit(r)
		next, done := wire.result(p, r, 2*rtt)
		if next != nil || done {
			t.Errorf("%s: follow-up %v, done %v; want neither", c.name, next, done)
		}
		for i, v := range w.Aggregate() {
			if v != before[i] {
				t.Fatalf("%s: aggregate[%d] = %#x, was %#x: an ignored result wrote the aggregate", c.name, i, v, before[i])
			}
		}
		if got := w.Stats(); got.StaleResults != st.StaleResults+1 || got.Results != st.Results {
			t.Errorf("%s: stale %d → %d, accepted %d → %d; want one more stale, no more accepted",
				c.name, st.StaleResults, got.StaleResults, st.Results, got.Results)
		}
		if !w.Pending(0) || w.Pending(1) {
			t.Fatalf("%s: pending slots changed", c.name)
		}
	}
	agg := []int32{10, 20, 30, 40}
	r := pending()
	r.Vector = agg
	if next, done := wire.result(p, r, 3*rtt); next != nil || !done {
		t.Fatalf("the real result for chunk 2: follow-up %v, done %v; want none and done", next, done)
	}
	want := append(append([]int32(nil), u[:2*k]...), agg...)
	for i, v := range w.Aggregate() {
		if v != want[i] {
			t.Fatalf("aggregate[%d] = %d, want %d", i, v, want[i])
		}
	}
}
