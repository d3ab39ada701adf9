package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"switchml/internal/allreduce"
	"switchml/internal/core"
	"switchml/internal/netio"
	"switchml/internal/packet"
)

// fallbackCluster binds an aggregator and n fallback-armed clients
// with the mesh wired up, ready for lockstep steps.
func fallbackCluster(t *testing.T, n int, probation int, timeout time.Duration) (*Aggregator, []*Client) {
	t.Helper()
	agg, err := NewAggregator(AggregatorConfig{
		Addr:   "127.0.0.1:0",
		Switch: core.SwitchConfig{Workers: n, PoolSize: 8, SlotElems: 32, LossRecovery: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, n)
	for i := 0; i < n; i++ {
		c, err := NewClient(ClientConfig{
			Aggregator: agg.Addr().String(),
			Worker: core.WorkerConfig{
				ID: uint16(i), Workers: n, PoolSize: 8, SlotElems: 32, LossRecovery: true,
			},
			RTO:         10 * time.Millisecond,
			Timeout:     timeout,
			AdaptiveRTO: true,
			Fallback:    &FallbackConfig{Probation: probation},
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		t.Cleanup(func() { c.Close() })
	}
	mesh := make([]string, n)
	for i, c := range clients {
		mesh[i] = fmt.Sprintf("127.0.0.1:%d", c.MeshAddr().Port)
	}
	for _, c := range clients {
		if err := c.SetMeshPeers(mesh); err != nil {
			t.Fatal(err)
		}
	}
	return agg, clients
}

// lockstep runs one collective step across all clients and checks
// every worker got the exact elementwise sum.
func lockstep(t *testing.T, clients []*Client, elems, step int) {
	t.Helper()
	n := len(clients)
	us := make([][]int32, n)
	want := make([]int32, elems)
	for w := range us {
		us[w] = make([]int32, elems)
		for j := range us[w] {
			us[w][j] = int32(step*1000 + w*10 + j%7)
			want[j] += us[w][j]
		}
	}
	results := make([][]int32, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := range clients {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w], errs[w] = clients[w].AllReduceInt32(us[w])
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("step %d worker %d: %v", step, w, err)
		}
	}
	for w, res := range results {
		for j := range want {
			if res[j] != want[j] {
				t.Fatalf("step %d worker %d elem %d: got %d want %d", step, w, j, res[j], want[j])
			}
		}
	}
}

// TestFaultUDPAggregatorKillFallbackFailback is the UDP tentpole: the
// aggregation program dies between steps, the workers degrade to mesh
// ring all-reduce and keep producing exact sums, probe the revived
// aggregator through the probation window, and fail back — after
// which the switch path carries traffic again.
func TestFaultUDPAggregatorKillFallbackFailback(t *testing.T) {
	const n, elems = 3, 3000
	agg, clients := fallbackCluster(t, n, 2, 20*time.Second)
	defer agg.Close()

	lockstep(t, clients, elems, 1)
	lockstep(t, clients, elems, 2)
	preKill := agg.Stats().Completions
	if preKill == 0 {
		t.Fatal("no switch completions before the kill")
	}

	agg.SetDown(true)
	lockstep(t, clients, elems, 3) // degrade mid-tensor, finish on mesh
	agg.SetDown(false)
	lockstep(t, clients, elems, 4) // probe 1 sent
	lockstep(t, clients, elems, 5) // streak 1, probe 2
	lockstep(t, clients, elems, 6) // streak 2 ≥ probation: failback, switch path
	lockstep(t, clients, elems, 7)

	for w, c := range clients {
		st := c.FallbackStats()
		if st.Degrades != 1 {
			t.Errorf("worker %d: degrades = %d, want 1", w, st.Degrades)
		}
		if st.Failbacks != 1 {
			t.Errorf("worker %d: failbacks = %d, want 1", w, st.Failbacks)
		}
		if st.HostRounds != 3 {
			t.Errorf("worker %d: host rounds = %d, want 3", w, st.HostRounds)
		}
		if st.HostElems != 3*elems {
			t.Errorf("worker %d: host elems = %d, want %d", w, st.HostElems, 3*elems)
		}
		if st.Probes == 0 || st.ProbeAcks == 0 {
			t.Errorf("worker %d: probes/acks = %d/%d, want both nonzero", w, st.Probes, st.ProbeAcks)
		}
		if c.Degraded() {
			t.Errorf("worker %d still degraded after failback", w)
		}
	}
	if post := agg.Stats().Completions; post <= preKill {
		t.Errorf("no switch completions after failback: %d before, %d after", preKill, post)
	}
	if agg.Epoch() == 0 {
		t.Error("failback did not fence the job under a new generation")
	}
}

// TestFaultUDPDegradedSteadyState pins the job on the mesh (negative
// probation) with the aggregator dead the whole time: the collective
// must keep producing exact sums indefinitely without a switch.
func TestFaultUDPDegradedSteadyState(t *testing.T) {
	const n, elems = 2, 1500
	agg, clients := fallbackCluster(t, n, -1, 20*time.Second)
	defer agg.Close()
	agg.SetDown(true)
	for step := 1; step <= 4; step++ {
		lockstep(t, clients, elems, step)
	}
	for w, c := range clients {
		if !c.Degraded() {
			t.Errorf("worker %d not degraded with the aggregator dead", w)
		}
		if st := c.FallbackStats(); st.HostRounds != 4 {
			t.Errorf("worker %d: host rounds = %d, want 4", w, st.HostRounds)
		}
	}
	if agg.Stats().Completions != 0 {
		t.Error("dead aggregator completed slots")
	}
}

// TestFaultUDPMeshRingLoss runs the mesh ring through relays that lose
// every 50th mesh datagram between workers, of any kind — segments, acks,
// end-of-round notices and barrier syncs: the ARQ and the barrier must
// repair every loss with each sum exact, and a loss may cost at most two
// windows of re-sends.
func TestFaultUDPMeshRingLoss(t *testing.T) {
	const n, elems, rounds, every = 3, 100000, 4, 50
	agg, clients := fallbackCluster(t, n, -1, 20*time.Second)
	defer agg.Close()
	agg.SetDown(true)
	var seen, lost atomic.Uint64
	var relaying sync.WaitGroup
	t.Cleanup(relaying.Wait) // after every relay socket's Close below
	relays := make([]string, n)
	for i, c := range clients {
		to := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: c.MeshAddr().Port}
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		relays[i] = conn.LocalAddr().String()
		relaying.Add(1)
		go func() {
			defer relaying.Done()
			buf := make([]byte, 64<<10)
			for {
				m, _, err := conn.ReadFromUDP(buf)
				if err != nil {
					return
				}
				if seen.Add(1)%every == 0 {
					lost.Add(1)
					continue
				}
				// A failed forward is one more loss for the ARQ to repair.
				_, _ = conn.WriteToUDP(buf[:m], to)
			}
		}()
	}
	for _, c := range clients {
		if err := c.SetMeshPeers(relays); err != nil {
			t.Fatal(err)
		}
	}
	for step := 1; step <= rounds; step++ {
		lockstep(t, clients, elems, step)
	}
	var retx uint64
	for _, c := range clients {
		retx += c.FallbackStats().MeshRetransmits
	}
	t.Logf("%d of %d mesh datagrams lost, %d retransmissions", lost.Load(), seen.Load(), retx)
	if lost.Load() == 0 || retx == 0 {
		t.Fatalf("%d datagrams lost, %d retransmissions: the relays did not exercise the ARQ", lost.Load(), retx)
	}
	if limit := lost.Load() * 2 * allreduce.ARQWindow; retx > limit {
		t.Errorf("%d retransmissions for %d lost datagrams, want at most %d (two windows a loss)", retx, lost.Load(), limit)
	}
}

// TestMeshRingDispatch feeds worker 0 of a three-worker mesh one ring
// datagram at a time and reads what it answers on its two peers'
// sockets. Worker 1 is its successor and worker 2 its predecessor, and
// the round counter has just wrapped from 0xFFFF to 0: the previous
// round's sync and segments are still answered under their own round,
// the current round's are taken, and data or acks from the wrong rank
// are counted in udp_unexpected_kind_total, unanswered.
func TestMeshRingDispatch(t *testing.T) {
	const rto = 10 * time.Millisecond
	agg, peers := listenLoopback(t), []*net.UDPConn{nil, listenLoopback(t), listenLoopback(t)}
	answerHello(agg, 4, 8, 3)
	c, err := NewClient(ClientConfig{
		Aggregator: agg.LocalAddr().String(),
		Worker:     core.WorkerConfig{ID: 0, Workers: 3, PoolSize: 4, SlotElems: 8, LossRecovery: true},
		RTO:        rto,
		Timeout:    time.Minute,
		Fallback:   &FallbackConfig{Peers: []string{"", peers[1].LocalAddr().String(), peers[2].LocalAddr().String()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := func(round uint16, from uint16) packet.Packet {
		// Worker 0's first receive segment is chunk 2 of the 9 elements.
		return packet.Packet{Kind: packet.KindFallbackData, WorkerID: from, JobID: round, Off: 6, Vector: []int32{1, 2, 3}}
	}
	ack := func(round uint16, from uint16, cum uint32) packet.Packet {
		return packet.Packet{Kind: packet.KindFallbackAck, WorkerID: from, JobID: round, Idx: cum}
	}
	unexpected := c.Registry().Counter("udp_unexpected_kind_total", "role", "worker", "worker", "0")
	for _, tc := range []struct {
		name string
		mode mode
		ring uint16 // the round of the ring's ARQ
		in   packet.Packet
		// The reply: its destination (0 for none), kind, round, Idx and Ver.
		to       int
		kind     packet.Kind
		round    uint16
		idx      uint32
		ver      uint8
		foreign  bool
		progress string
	}{
		{"previous round's sync", modeSync, 0xFFFF, packet.Packet{Kind: packet.KindFallbackSync, WorkerID: 1, JobID: 0xFFFF},
			1, packet.KindFallbackSync, 0xFFFF, 0, 0, false, "0/4 sent-acked, 0/4 received"},
		{"previous round's straggler", modeSync, 0xFFFF, data(0xFFFF, 2),
			2, packet.KindFallbackAck, 0xFFFF, 1, 0, false, "0/4 sent-acked, 1/4 received"},
		{"current round's data", modeRing, 0, data(0, 2),
			2, packet.KindFallbackAck, 0, 1, 0, false, "0/4 sent-acked, 1/4 received"},
		{"current round's ack", modeRing, 0, ack(0, 1, 1),
			0, 0, 0, 0, 0, false, "1/4 sent-acked, 0/4 received"},
		{"current round's last ack sends the notice", modeRing, 0, ack(0, 1, 4),
			1, packet.KindFallbackAck, 0, 0, 1, false, "4/4 sent-acked, 0/4 received"},
		{"previous round's data in the current ring", modeRing, 0, data(0xFFFF, 2),
			0, 0, 0, 0, 0, false, "0/4 sent-acked, 0/4 received"},
		{"data from the successor", modeRing, 0, data(0, 1),
			0, 0, 0, 0, 0, true, "0/4 sent-acked, 0/4 received"},
		{"ack from the predecessor", modeRing, 0, ack(0, 2, 1),
			0, 0, 0, 0, 0, true, "0/4 sent-acked, 0/4 received"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fb := c.fb
			buf := make([]int32, 9)
			s := allreduce.Ring(3, 0, buf, meshSegElems)
			fb.ring = allreduce.NewARQ(tc.ring, s, int64(rto), c.nowNs, c.sendRing)
			fb.round, c.mode = 0, tc.mode
			fb.prevSyncWire = packet.NewControl(packet.KindFallbackSync, 0, 0xFFFF, 0, nil).Marshal()
			before := unexpected.Value()
			if _, err := c.handleMesh(&netio.Message{Buf: tc.in.Marshal()}); err != nil {
				t.Fatal(err)
			}
			if err := c.flushTx(); err != nil {
				t.Fatal(err)
			}
			for w := 1; w <= 2; w++ {
				peers[w].SetReadDeadline(time.Now().Add(2 * rto))
				b := make([]byte, 2048)
				n, err := peers[w].Read(b)
				if w != tc.to {
					if err == nil {
						t.Errorf("worker %d was sent %d bytes, want nothing", w, n)
					}
					continue
				}
				var p packet.Packet
				if err != nil || packet.UnmarshalInto(&p, b[:n]) != nil {
					t.Fatalf("worker %d: no reply (%v)", w, err)
				}
				if p.Kind != tc.kind || p.JobID != tc.round || p.Idx != tc.idx || p.Ver != tc.ver {
					t.Errorf("worker %d got kind %v round %#x idx %d ver %d, want kind %v round %#x idx %d ver %d",
						w, p.Kind, p.JobID, p.Idx, p.Ver, tc.kind, tc.round, tc.idx, tc.ver)
				}
			}
			if got := unexpected.Value() - before; got != map[bool]uint64{true: 1}[tc.foreign] {
				t.Errorf("udp_unexpected_kind_total grew by %d, want it to count a foreign datagram only", got)
			}
			if got := fb.ring.String(); got != tc.progress {
				t.Errorf("ring progress %q, want %q", got, tc.progress)
			}
		})
	}
}

// TestFaultUDPAggregatorProcessDeathFallback kills the aggregator
// outright — socket closed, not merely silent — so on loopback every
// subsequent datagram to it fails with ECONNREFUSED from the kernel's
// ICMP port-unreachable. The refused writes must read as death
// evidence for the silence detector, not as a send error, and the
// collective must finish on the mesh.
func TestFaultUDPAggregatorProcessDeathFallback(t *testing.T) {
	const n, elems = 2, 1500
	agg, clients := fallbackCluster(t, n, -1, 20*time.Second)

	lockstep(t, clients, elems, 1)
	agg.Close() // the process is gone; no revival is coming
	lockstep(t, clients, elems, 2)
	lockstep(t, clients, elems, 3)
	for w, c := range clients {
		if !c.Degraded() {
			t.Errorf("worker %d not degraded with the aggregator gone", w)
		}
		if st := c.FallbackStats(); st.HostRounds < 2 {
			t.Errorf("worker %d: host rounds = %d, want >= 2", w, st.HostRounds)
		}
	}
}

// TestFaultUDPNoFallbackTypedError checks that without a fallback an
// aggregator gone silent mid-tensor surfaces as the typed, retryable
// ErrAggregatorSilent rather than a generic timeout.
func TestFaultUDPNoFallbackTypedError(t *testing.T) {
	agg, err := NewAggregator(AggregatorConfig{
		Addr:   "127.0.0.1:0",
		Switch: core.SwitchConfig{Workers: 1, PoolSize: 4, SlotElems: 16, LossRecovery: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	c, err := NewClient(ClientConfig{
		Aggregator: agg.Addr().String(),
		Worker:     core.WorkerConfig{ID: 0, Workers: 1, PoolSize: 4, SlotElems: 16, LossRecovery: true},
		RTO:        5 * time.Millisecond,
		Timeout:    400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	agg.SetDown(true)
	u := make([]int32, 256)
	for i := range u {
		u[i] = int32(i)
	}
	if _, err := c.AllReduceInt32(u); !errors.Is(err, ErrAggregatorSilent) {
		t.Fatalf("AllReduceInt32 error = %v, want ErrAggregatorSilent", err)
	}
}

// TestFaultFallbackStatsRace hammers the monitoring surface —
// Stats, FallbackStats, Degraded — from a background goroutine while
// the collective degrades, runs on the mesh and fails back. Run under
// -race, it proves the health state is safe to observe live.
func TestFaultFallbackStatsRace(t *testing.T) {
	const n, elems = 2, 1000
	agg, clients := fallbackCluster(t, n, 1, 20*time.Second)
	defer agg.Close()

	stop := make(chan struct{})
	var mon sync.WaitGroup
	for _, c := range clients {
		c := c
		mon.Add(1)
		go func() {
			defer mon.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = c.Stats()
					_ = c.FallbackStats()
					_ = c.Degraded()
				}
			}
		}()
	}

	lockstep(t, clients, elems, 1)
	agg.SetDown(true)
	lockstep(t, clients, elems, 2)
	agg.SetDown(false)
	lockstep(t, clients, elems, 3)
	lockstep(t, clients, elems, 4) // streak 1 ≥ probation 1: failback
	lockstep(t, clients, elems, 5)
	close(stop)
	mon.Wait()

	for w, c := range clients {
		if st := c.FallbackStats(); st.Degrades == 0 || st.Failbacks == 0 {
			t.Errorf("worker %d: degrades/failbacks = %d/%d, want both nonzero", w, st.Degrades, st.Failbacks)
		}
	}
}
