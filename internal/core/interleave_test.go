package core

import (
	"math/rand"
	"testing"

	"switchml/internal/packet"
)

// channelHarness drives the protocol with per-link FIFO channels and
// a randomized scheduler: each step it picks a random non-empty link
// and delivers its head packet, optionally dropping or duplicating
// it. Per-link FIFO is exactly the network model the protocol assumes
// (§3.4 notes reordering across slots is fine); the random scheduler
// explores cross-link interleavings the lockstep harness cannot.
type channelHarness struct {
	t       *testing.T
	rng     *rand.Rand
	sw      *Switch
	workers []*Worker
	// up[w] is worker w's FIFO toward the switch; down[w] the reverse.
	up, down [][]*packet.Packet
	done     []bool
	loss     float64
	dup      float64
	// early counts the lap-detected retransmissions the schedule made.
	early int
}

func newChannelHarness(t *testing.T, rng *rand.Rand, n, s, k int, loss, dup float64) *channelHarness {
	t.Helper()
	sw, err := NewSwitch(SwitchConfig{Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	h := &channelHarness{
		t: t, rng: rng, sw: sw,
		up: make([][]*packet.Packet, n), down: make([][]*packet.Packet, n),
		done: make([]bool, n), loss: loss, dup: dup,
	}
	for i := 0; i < n; i++ {
		w, err := NewWorker(WorkerConfig{ID: uint16(i), Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true})
		if err != nil {
			t.Fatal(err)
		}
		h.workers = append(h.workers, w)
	}
	return h
}

func (h *channelHarness) aggregate(updates [][]int32) []int32 {
	for i := range h.done {
		h.done[i] = false
	}
	for i, w := range h.workers {
		h.up[i] = append(h.up[i], w.Start(updates[i])...)
	}
	for rounds := 0; ; rounds++ {
		if rounds > 1<<22 {
			h.t.Fatal("channel harness did not converge")
		}
		// Collect non-empty links.
		type link struct {
			toSwitch bool
			w        int
		}
		var ready []link
		for w := range h.workers {
			if len(h.up[w]) > 0 {
				ready = append(ready, link{true, w})
			}
			if len(h.down[w]) > 0 {
				ready = append(ready, link{false, w})
			}
		}
		if len(ready) == 0 {
			if h.allDone() {
				break
			}
			// Timeout sweep: all pending slots retransmit.
			progress := false
			for w, worker := range h.workers {
				for idx := 0; idx < worker.Config().PoolSize; idx++ {
					if p := worker.Retransmit(uint32(idx)); p != nil {
						h.up[w] = append(h.up[w], p)
						progress = true
					}
				}
			}
			if !progress {
				h.t.Fatal("deadlock in channel harness")
			}
			continue
		}
		l := ready[h.rng.Intn(len(ready))]
		var p *packet.Packet
		if l.toSwitch {
			p, h.up[l.w] = h.up[l.w][0], h.up[l.w][1:]
		} else {
			p, h.down[l.w] = h.down[l.w][0], h.down[l.w][1:]
		}
		if h.rng.Float64() < h.loss {
			continue // dropped on the wire
		}
		if h.rng.Float64() < h.dup {
			// Duplicate delivery: process the same packet twice.
			h.deliver(l.toSwitch, l.w, p.Clone())
		}
		h.deliver(l.toSwitch, l.w, p)
	}
	ref := h.workers[0].Aggregate()
	for w := 1; w < len(h.workers); w++ {
		got := h.workers[w].Aggregate()
		for i := range ref {
			if got[i] != ref[i] {
				h.t.Fatalf("worker %d diverges at %d: %d vs %d", w, i, got[i], ref[i])
			}
		}
	}
	return ref
}

func (h *channelHarness) deliver(toSwitch bool, w int, p *packet.Packet) {
	if toSwitch {
		resp := h.sw.Handle(p)
		if resp.Pkt == nil {
			return
		}
		if resp.Multicast {
			for wid := range h.workers {
				h.down[wid] = append(h.down[wid], resp.Pkt.Clone())
			}
			return
		}
		h.down[resp.Pkt.WorkerID] = append(h.down[resp.Pkt.WorkerID], resp.Pkt)
		return
	}
	next, fin := h.workers[w].HandleResult(p)
	if next != nil {
		h.up[w] = append(h.up[w], next)
	}
	if fin {
		h.done[w] = true
	}
	// Early retransmission, as the UDP client does after every burst:
	// random schedules and loss lap slots constantly, and the extra
	// copies must never disturb a sum.
	for _, idx := range h.workers[w].Lapped(nil) {
		h.up[w] = append(h.up[w], h.workers[w].Retransmit(idx))
		h.early++
	}
}

func (h *channelHarness) allDone() bool {
	for _, d := range h.done {
		if !d {
			return false
		}
	}
	return true
}

func TestRandomInterleavings(t *testing.T) {
	// Many random schedules across link interleavings, loss and
	// duplication: the aggregate must always be exact.
	rng := rand.New(rand.NewSource(2024))
	trials, early := 60, 0
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(4)
		s := 1 + rng.Intn(6)
		k := 1 + rng.Intn(12)
		d := 1 + rng.Intn(400)
		loss := rng.Float64() * 0.25
		dup := rng.Float64() * 0.10
		h := newChannelHarness(t, rng, n, s, k, loss, dup)
		us := randUpdates(rng, n, d)
		got := h.aggregate(us)
		checkEqual(t, got, goldenSum(us))
		early += h.early
	}
	if early == 0 {
		t.Error("no schedule lapped a slot: the early-retransmission path went untested")
	}
}

func TestRandomInterleavingsMultiTensor(t *testing.T) {
	// Consecutive tensors through the same randomized network: the
	// stream's version alternation must survive arbitrary schedules.
	rng := rand.New(rand.NewSource(777))
	h := newChannelHarness(t, rng, 3, 3, 8, 0.1, 0.05)
	for iter := 0; iter < 6; iter++ {
		d := 20 + rng.Intn(300)
		us := randUpdates(rng, 3, d)
		checkEqual(t, h.aggregate(us), goldenSum(us))
	}
}
