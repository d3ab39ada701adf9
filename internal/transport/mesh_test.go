package transport

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"switchml/internal/core"
	"switchml/internal/packet"
)

// listenLoopback binds a loopback UDP socket the test owns.
func listenLoopback(t *testing.T) *net.UDPConn {
	t.Helper()
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sock.Close() })
	return sock
}

// meshRTO is meshJoin's retransmission timeout.
const meshRTO = 10 * time.Millisecond

// meshJoin runs a 2-slot job whose worker 1 joins mid-job: worker 0
// trains alone and serves state from its fence hold, and worker 1
// fetches the snapshot over the mesh. before, when non-nil, runs once
// the joiner is wired up, ahead of its JoinCluster. Both workers then
// run three steps together, whose sums must carry both contributions;
// meshJoin returns the snapshot the joiner fetched and how long its
// JoinCluster took.
func meshJoin(t *testing.T, state []int32, before func(joiner *Client)) ([]int32, time.Duration) {
	t.Helper()
	const n, pool, k, d = 2, 4, 16, 64
	agg, err := NewAggregator(AggregatorConfig{
		Addr:     "127.0.0.1:0",
		Switch:   core.SwitchConfig{Workers: n, PoolSize: pool, SlotElems: k, LossRecovery: true},
		Liveness: &LivenessConfig{SilenceAfter: 2 * time.Second},
		Absent:   []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { agg.Close() })
	clients := make([]*Client, n)
	mesh := make([]string, n)
	for i := range clients {
		c, err := NewClient(ClientConfig{
			Aggregator: agg.Addr().String(),
			Worker:     core.WorkerConfig{ID: uint16(i), Workers: n, PoolSize: pool, SlotElems: k, LossRecovery: true},
			RTO:        meshRTO,
			Timeout:    20 * time.Second,
			// The silence detector stays far above the fence hold, so the
			// join never degrades the job.
			Fallback: &FallbackConfig{Listen: "127.0.0.1:0", SuspectAfter: 5 * time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i], mesh[i] = c, c.MeshAddr().String()
	}
	for _, c := range clients {
		if err := c.SetMeshPeers(mesh); err != nil {
			t.Fatal(err)
		}
	}
	clients[0].SetStateProvider(func() []int32 { return state })
	if before != nil {
		before(clients[1])
	}

	// last is the final joint step once the joiner knows its first, and
	// -1 if the join failed: the incumbent trains until then.
	var last atomic.Int64
	var fetched []int32
	var took time.Duration
	sums := make([]map[int][]int32, n)
	errs := make([]error, n)
	step := func(w, s int) error {
		time.Sleep(5 * time.Millisecond)
		out, err := clients[w].AllReduceInt32(stepUpdate(w, s, d))
		if err != nil {
			return fmt.Errorf("step %d: %w", s, err)
		}
		sums[w][s] = out
		return nil
	}
	var wg sync.WaitGroup
	wg.Add(n)
	go func() {
		defer wg.Done()
		sums[0] = map[int][]int32{}
		for s := 1; s < 4000; s++ {
			if l := last.Load(); l < 0 || (l > 0 && int64(s) > l) {
				return
			}
			if errs[0] = step(0, s); errs[0] != nil {
				return
			}
		}
		errs[0] = fmt.Errorf("the joiner was never admitted")
	}()
	go func() {
		defer wg.Done()
		sums[1] = map[int][]int32{}
		c := clients[1]
		start := time.Now()
		fetched, errs[1] = c.JoinCluster()
		took = time.Since(start)
		if errs[1] != nil {
			last.Store(-1)
			return
		}
		first := int(c.Frontier())/d + 1
		last.Store(int64(first + 2))
		for s := first; s <= first+2 && errs[1] == nil; s++ {
			errs[1] = step(1, s)
		}
	}()
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for s, got := range sums[1] {
		if want := stepSum([]int{0, 1}, s, d); !slices.Equal(got, want) || !slices.Equal(sums[0][s], want) {
			t.Fatalf("joint step %d: worker 0 got %v, worker 1 got %v, want %v", s, sums[0][s], got, want)
		}
	}
	return fetched, took
}

// TestMeshStateTransferPeersOnly: the state transfer talks only to the
// workers in the mesh address table. A joiner takes replies only from
// the incumbent it asked, so a forged reply already queued at its mesh
// socket neither becomes nor sizes its snapshot; a fence-holding
// incumbent answers a mesh peer's request and ignores a stranger's,
// whose few bytes would otherwise buy up to 4 KiB aimed anywhere.
func TestMeshStateTransferPeersOnly(t *testing.T) {
	state := []int32{7, -3, 42, 0, 1 << 20}
	t.Run("forged reply", func(t *testing.T) {
		got, _ := meshJoin(t, state, func(joiner *Client) {
			forged := packet.Packet{Kind: packet.KindStateData, Idx: 3, Vector: []int32{9, 9, 9}}
			if _, err := listenLoopback(t).WriteToUDP(forged.Marshal(), joiner.MeshAddr()); err != nil {
				t.Fatal(err)
			}
		})
		if !slices.Equal(got, state) {
			t.Fatalf("fetched %v, want the incumbent's %v", got, state)
		}
	})
	t.Run("request from a stranger", func(t *testing.T) {
		const rto = 50 * time.Millisecond
		peer, stranger, agg := listenLoopback(t), listenLoopback(t), listenLoopback(t)
		answerHello(agg, 4, 8, 2) // and then never answers
		c, err := NewClient(ClientConfig{
			Aggregator: agg.LocalAddr().String(),
			Worker:     core.WorkerConfig{ID: 0, Workers: 2, PoolSize: 4, SlotElems: 8, LossRecovery: true},
			RTO:        rto,
			Timeout:    time.Minute,
			Fallback: &FallbackConfig{
				Listen:       "127.0.0.1:0",
				Peers:        []string{"", peer.LocalAddr().String()},
				SuspectAfter: time.Minute,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		c.SetStateProvider(func() []int32 { return state })
		c.fenceArmed, c.fenceGen = true, 1
		held := make(chan error, 1)
		go func() {
			_, err := c.AllReduceInt32(make([]int32, 8))
			held <- err
		}()
		defer func() {
			c.Close()
			<-held
		}()
		// answered sends a state request from sock and reports whether a
		// state reply came back within 4 RTO.
		answered := func(sock *net.UDPConn) bool {
			req := packet.NewControl(packet.KindStateReq, 1, 0, 0, nil).Marshal()
			if _, err := sock.WriteToUDP(req, c.MeshAddr()); err != nil {
				t.Fatal(err)
			}
			sock.SetReadDeadline(time.Now().Add(4 * rto))
			buf := make([]byte, 65536)
			var p packet.Packet
			for {
				n, err := sock.Read(buf)
				if err != nil {
					return false
				}
				if packet.UnmarshalInto(&p, buf[:n]) == nil && p.Kind == packet.KindStateData {
					return true
				}
			}
		}
		if !answered(peer) {
			t.Fatal("a mesh peer's state request went unanswered by the fence-holding incumbent")
		}
		if answered(stranger) {
			t.Fatal("a stranger's state request was answered")
		}
	})
}

// TestMeshEveryIOMode runs the mesh in each of netio's modes: a state
// transfer of 101 segments (the last a short tail), whose 4,120-byte
// datagrams exceed the 2,048-byte MTU the aggregator socket is sized
// for, and which must finish within 20 RTO; lossless ring rounds, which must not retransmit; and the
// aggregator-kill scenario — degrade mid-tensor, ring rounds on the
// mesh, probation, failback.
func TestMeshEveryIOMode(t *testing.T) {
	for _, mode := range ioModes {
		t.Run(mode.mode.String(), func(t *testing.T) {
			if mode.env != "" {
				t.Setenv(mode.env, "1")
			}
			t.Run("state transfer", func(t *testing.T) {
				// A fence hold's mesh turn serves requests for as long as
				// the joiner keeps them coming, up to the next confirm: the
				// join takes about one RTO plus ~30 µs a segment (~0.4 ms
				// under the race detector). A turn that served one request
				// per aggregator pass would take half an RTO a segment
				// (~0.5 s here).
				state := make([]int32, 100*stateSegElems+452)
				for i := range state {
					state[i] = int32(7*i - 3000)
				}
				got, took := meshJoin(t, state, nil)
				if !slices.Equal(got, state) {
					t.Fatalf("fetched %d elements, want the incumbent's %d, equal", len(got), len(state))
				}
				t.Logf("joined with %d segments of state in %v", (len(state)+stateSegElems-1)/stateSegElems, took)
				if took > 20*meshRTO {
					t.Errorf("the join took %v, want at most 20 RTO (%v)", took, 20*meshRTO)
				}
			})
			t.Run("steady state", func(t *testing.T) {
				// A lossless mesh sends each segment about once. A mode that
				// dropped the rest of the burst it ended in — the ring's
				// first segments behind the barrier's last sync — would set
				// off a storm of duplicate acks and fast retransmissions
				// (about 1,200 here). Under the race detector a worker
				// stalls past the 10 ms RTO often enough that spurious
				// replays, and the storms they draw, are noise: the count
				// is only logged there.
				const rounds = 6
				agg, clients := fallbackCluster(t, 2, -1, 20*time.Second)
				defer agg.Close()
				agg.SetDown(true)
				dialed := make([]uint64, len(clients)) // the acks of the dial's hellos
				for w, c := range clients {
					dialed[w] = c.DebugState().Received
				}
				for step := 1; step <= rounds; step++ {
					lockstep(t, clients, 200000, step)
				}
				for w, c := range clients {
					st := c.FallbackStats()
					t.Logf("worker %d: %d mesh retransmissions over %d rounds", w, st.MeshRetransmits, st.HostRounds)
					// The datagram counters count aggregator traffic only,
					// as udp_datagrams_sent_total does, and this one was
					// down from the dial on.
					if got := c.DebugState().Received - dialed[w]; got != 0 {
						t.Errorf("worker %d: %d datagrams received from an aggregator that was down throughout, want 0", w, got)
					}
					if !raceEnabled && st.MeshRetransmits > 16*rounds {
						t.Errorf("worker %d: %d mesh retransmissions over %d lossless rounds, want at most a replay (16) a round", w, st.MeshRetransmits, rounds)
					}
				}
			})
			t.Run("kill, fallback, failback", func(t *testing.T) {
				const elems = 3000
				agg, clients := fallbackCluster(t, 3, 2, 20*time.Second)
				defer agg.Close()
				lockstep(t, clients, elems, 1)
				agg.SetDown(true)
				lockstep(t, clients, elems, 2) // degrade mid-tensor, finish on the mesh
				agg.SetDown(false)
				for step := 3; step <= 6; step++ { // probe, streak 1, streak 2 and failback, the switch path
					lockstep(t, clients, elems, step)
				}
				for w, c := range clients {
					if st := c.FallbackStats(); st.Degrades != 1 || st.Failbacks != 1 || st.HostRounds != 3 || c.Degraded() {
						t.Errorf("worker %d: %d degrades, %d failbacks, %d host rounds, degraded %v; want 1, 1, 3, false",
							w, st.Degrades, st.Failbacks, st.HostRounds, c.Degraded())
					}
				}
			})
		})
	}
}
