package transport

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"switchml/internal/core"
	"switchml/internal/packet"
)

// TestClockReadsPerBurst pins the clock to the burst: over a lossless
// 1M-element all-reduce neither end may read it more often than once
// per call, per receive wakeup and per timeout sweep. The aggregator's
// wakeups are what its occupancy histograms count. The client has no
// such count, so its clock is watched for reads between which no
// datagram was counted in: a burst's read comes before its datagrams
// are counted, so only the call's first read, the first burst's and a
// sweep's may be such a read. (Reading it per datagram, as both ends
// once did, fails both: three reads a packet against a read per
// ~30-packet burst.)
func TestClockReadsPerBurst(t *testing.T) {
	const n, s, k, elems = 2, 64, 32, 1 << 20
	var aggReads atomic.Int64
	agg, err := newAggregator(AggregatorConfig{
		Addr:   "127.0.0.1:0",
		Switch: core.SwitchConfig{Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true},
	}, func() time.Time {
		aggReads.Add(1)
		return time.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	type watch struct{ reads, idle, lastRecvd uint64 }
	clients := make([]*Client, n)
	watches := make([]watch, n)
	for i := range clients {
		// The RTO is long enough that a lossless run never sweeps.
		c, err := NewClient(ClientConfig{
			Aggregator: agg.Addr().String(),
			Worker:     core.WorkerConfig{ID: uint16(i), Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true},
			RTO:        5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		w := &watches[i]
		c.clock = func() time.Time {
			w.reads++
			if got := c.recvd.Value(); got == w.lastRecvd {
				w.idle++
			} else {
				w.lastRecvd = got
			}
			return time.Now()
		}
		clients[i] = c
	}
	lockstep(t, clients, elems, 1)

	occ := agg.occupancySnapshot()
	pkts := agg.Stats().Updates
	t.Logf("aggregator: %d clock reads, %d receive wakeups, %d update packets", aggReads.Load(), occ.Count, pkts)
	if got, limit := uint64(aggReads.Load()), 1+occ.Count; got > limit {
		t.Errorf("aggregator read the clock %d times over %d receive wakeups, want at most %d", got, occ.Count, limit)
	}
	for i, c := range clients {
		w, st := watches[i], c.Stats()
		t.Logf("worker %d: %d clock reads for %d result datagrams, %d of them with nothing new received", i, w.reads, c.recvd.Value(), w.idle)
		if st.Retransmissions != 0 {
			t.Logf("worker %d retransmitted %d times: not a lossless run, the sweeps are allowed their reads", i, st.Retransmissions)
			continue
		}
		if w.idle > 2 {
			t.Errorf("worker %d read the clock %d times without a burst in between, want 2 (the call's start, the first burst)", i, w.idle)
		}
		if w.reads > 1+c.recvd.Value() {
			t.Errorf("worker %d read the clock %d times for %d datagrams", i, w.reads, c.recvd.Value())
		}
	}
}

// TestSweepFollowsInjectedClock extends the aggregator's clock seam from
// the shard loops to the failure detector: the sweeper reads the same
// clock, so moving it past SilenceAfter evicts a silent worker within a
// few sweeps — not an hour of wall time later — while the worker still
// beating, stamped by the moved burst clock, stays.
func TestSweepFollowsInjectedClock(t *testing.T) {
	const every = 20 * time.Millisecond
	var skew atomic.Int64
	agg, err := newAggregator(AggregatorConfig{
		Addr:     "127.0.0.1:0",
		Switch:   core.SwitchConfig{Workers: 2, PoolSize: 4, SlotElems: 8, LossRecovery: true},
		Liveness: &LivenessConfig{SilenceAfter: time.Hour, CheckEvery: every},
	}, func() time.Time { return time.Now().Add(time.Duration(skew.Load())) })
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	w := []*rawWorker{dialRaw(t, agg, 0), dialRaw(t, agg, 1)}
	awaitPeers(t, agg, w...)
	skew.Store(int64(2 * time.Hour))
	jumped := time.Now()
	for agg.Alive(1) {
		if waited := time.Since(jumped); waited > 10*every {
			t.Fatalf("worker 1 still alive %v after the clock moved past its silence threshold (sweeps every %v)", waited, every)
		}
		w[0].send(packet.KindHeartbeat, 0, 0, 0)
		time.Sleep(every / 4)
	}
	t.Logf("worker 1 evicted %v after the clock jump", time.Since(jumped))
	if !agg.Alive(0) {
		t.Error("the beating worker was evicted too")
	}
}

// TestRetransmitTimerOnBurstClock pins the timer's semantics now that
// a send is stamped with its pass's clock reading rather than its own:
// a single-window tensor whose only update is lost is retransmitted no
// earlier than RTO after that stamp — which is at most the staging
// time older than the send itself — and no later than RTO plus one
// idle pass of the loop.
func TestRetransmitTimerOnBurstClock(t *testing.T) {
	const k, rto = 8, 100 * time.Millisecond
	// The "aggregator" loses the first update and echoes the second:
	// with one worker the aggregate is the update.
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	arrivals := make(chan time.Time, 2)
	go func() {
		buf := make([]byte, 2048)
		var p packet.Packet
		for seen := 0; ; {
			n, src, err := sock.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if packet.UnmarshalInto(&p, buf[:n]) != nil {
				continue
			}
			if ack := helloAck(&p, 4, k, 1); ack != nil {
				sock.WriteToUDPAddrPort(ack, src)
				continue
			}
			if p.Kind != packet.KindUpdate {
				continue
			}
			arrivals <- time.Now()
			if seen++; seen == 2 {
				p.Kind = packet.KindResult
				sock.WriteToUDPAddrPort(p.Marshal(), src)
				return
			}
		}
	}()

	c, err := NewClient(ClientConfig{
		Aggregator: sock.LocalAddr().String(),
		Worker:     core.WorkerConfig{ID: 0, Workers: 1, PoolSize: 4, SlotElems: k, LossRecovery: true},
		RTO:        rto,
		Timeout:    10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var stamps []time.Time
	c.clock = func() time.Time {
		stamps = append(stamps, time.Now())
		return stamps[len(stamps)-1]
	}
	u := []int32{1, -2, 3, -4, 5, -6, 7, -8}
	got, err := c.AllReduceInt32(u)
	if err != nil {
		t.Fatal(err)
	}
	for i := range u {
		if got[i] != u[i] {
			t.Fatalf("element %d: got %d want %d", i, got[i], u[i])
		}
	}
	if st := c.Stats(); st.Retransmissions != 1 || st.EarlyRetransmissions != 0 {
		t.Fatalf("%d retransmissions (%d early), want exactly one, off the timer", st.Retransmissions, st.EarlyRetransmissions)
	}
	first, second := <-arrivals, <-arrivals
	stamp := stamps[0] // the call's clock read: the window's send stamp
	t.Logf("stamp→wire %v, send→retransmission %v (RTO %v), %d clock reads", first.Sub(stamp), second.Sub(first), rto, len(stamps))
	if second.Sub(stamp) < rto {
		t.Errorf("retransmitted %v after the send was stamped, before the %v RTO", second.Sub(stamp), rto)
	}
	if late := second.Sub(first) - rto; late > rto/2 {
		t.Errorf("retransmitted %v after the send: %v past the RTO, want within one idle pass of it", second.Sub(first), late)
	}
}

// TestAdaptiveRTOOnBurstClock runs the Jacobson estimator on loopback,
// where every RTT sample is the difference of two burst stamps and far
// below the configured floor: samples must still flow, and the timeout
// they produce must stay inside the [RTO, 64×RTO] clamp on every slot.
func TestAdaptiveRTOOnBurstClock(t *testing.T) {
	const n, s, k, rto = 2, 64, 32, 20 * time.Millisecond
	agg, err := NewAggregator(AggregatorConfig{
		Addr:   "127.0.0.1:0",
		Switch: core.SwitchConfig{Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	clients := make([]*Client, n)
	for i := range clients {
		c, err := NewClient(ClientConfig{
			Aggregator:  agg.Addr().String(),
			Worker:      core.WorkerConfig{ID: uint16(i), Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true},
			RTO:         rto,
			AdaptiveRTO: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	lockstep(t, clients, 256<<10, 1)
	for i, c := range clients {
		samples, srtt := c.chunkRTT.Snapshot().Count, time.Duration(c.pump.SRTT())
		t.Logf("worker %d: %d RTT samples, srtt %v, base timeout %v, probe timeout %v", i, samples, srtt, time.Duration(c.gRTO.Value()), time.Duration(c.gPTO.Value()))
		if samples == 0 || srtt <= 0 {
			t.Errorf("worker %d: no RTT sample from %d results (srtt %v)", i, c.Stats().Results, srtt)
		}
		if base := time.Duration(c.gRTO.Value()); base < rto || base > 64*rto {
			t.Errorf("worker %d: published timeout %v outside [%v, %v]", i, base, rto, 64*rto)
		}
		if d := time.Duration(c.pump.RTO()); d < rto || d > 64*rto {
			t.Fatalf("worker %d: timeout %v outside [%v, %v]", i, d, rto, 64*rto)
		}
		if pto := time.Duration(c.pump.PTO()); pto <= 0 || pto > time.Duration(c.pump.RTO()) {
			t.Errorf("worker %d: probe timeout %v outside (0, %v]", i, pto, time.Duration(c.pump.RTO()))
		}
	}
}

// TestClientModesFollowInjectedClock extends the clock seam from the
// window pump to the other modes of the client loop: each row enters a
// mode against peers that never answer, then moves the client's clock
// past the call's deadline, and the call must return that mode's
// timeout error within two RTOs of wall time — not at the real
// deadline, an hour away. The mesh rows run worker 0 of two, whose one
// mesh peer is silent: the barrier of an already degraded client, and
// the ring (reached directly, as no barrier completes without a live
// peer).
func TestClientModesFollowInjectedClock(t *testing.T) {
	const rto = 50 * time.Millisecond
	for _, tc := range []struct {
		name  string
		mesh  bool
		enter func(c *Client) error
		want  string
	}{
		{"fence-hold", false, func(c *Client) error {
			c.fenceArmed, c.fenceGen = true, 1
			_, err := c.AllReduceInt32(make([]int32, 8))
			return err
		}, "membership fence (generation 1) timed out"},
		{"join", false, func(c *Client) error {
			_, err := c.JoinCluster()
			return err
		}, "join timed out"},
		{"adopt", false, func(c *Client) error {
			return c.adoptAt(1, c.tick().Add(c.cfg.Timeout))
		}, "adoption at ladder rung 1 timed out"},
		{"mesh barrier", true, func(c *Client) error {
			c.fb.degraded.Store(true)
			_, err := c.AllReduceInt32(make([]int32, 8))
			return err
		}, "fallback barrier timed out"},
		{"mesh ring", true, func(c *Client) error {
			_, err := c.meshFinish(make([]int32, 600), 0, c.tick().Add(c.cfg.Timeout))
			return err
		}, "mesh ring timed out"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// helloFor, when nonzero, is the worker count of the job whose
			// shape the socket tells the dial before it falls silent.
			silent := func(helloFor int) string {
				sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { sock.Close() })
				if helloFor > 0 {
					answerHello(sock, 4, 8, helloFor)
				}
				return sock.LocalAddr().String()
			}
			workers := 1
			if tc.mesh {
				workers = 2
			}
			cfg := ClientConfig{
				Aggregator: silent(workers),
				Standbys:   []string{silent(0)},
				Worker:     core.WorkerConfig{ID: 0, Workers: workers, PoolSize: 4, SlotElems: 8, LossRecovery: true},
				RTO:        rto,
				Timeout:    time.Hour,
			}
			if tc.mesh {
				cfg.Fallback = &FallbackConfig{Peers: []string{"", silent(0)}}
			}
			c, err := NewClient(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var skew atomic.Int64
			c.clock = func() time.Time { return time.Now().Add(time.Duration(skew.Load())) }
			errc := make(chan error, 1)
			go func() { errc <- tc.enter(c) }()
			time.Sleep(2 * rto) // in the mode, sending into the silence
			skew.Store(int64(2 * time.Hour))
			jumped := time.Now()
			select {
			case err := <-errc:
				if waited := time.Since(jumped); err == nil || !strings.Contains(err.Error(), tc.want) || waited > 2*rto {
					t.Fatalf("returned %v after %v on the moved clock, want %q within %v", err, waited, tc.want, 2*rto)
				}
			case <-time.After(4 * rto):
				c.Close()
				t.Fatalf("still in the mode %v after the clock passed its deadline (then: %v)", 4*rto, <-errc)
			}
		})
	}
}
