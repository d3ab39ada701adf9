package transport

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"switchml/internal/core"
	"switchml/internal/faults"
	"switchml/internal/netio"
	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// ClientConfig configures a worker endpoint.
type ClientConfig struct {
	// Aggregator is the UDP address of the software aggregator (or a
	// SwitchML-speaking switch).
	Aggregator string
	// Standbys ranks warm-standby aggregators behind the primary: the
	// failover ladder's middle rungs. When the silence detector trips,
	// the job is re-homed to the first answering rung through the
	// KindAdoptJob handshake (failover.go) instead of degrading
	// straight to the host mesh; the mesh remains the rung of last
	// resort (and needs Fallback configured). Every standby must run
	// the same SwitchConfig as the primary.
	Standbys []string
	// JitterSeed seeds the ±10% spread applied to the heartbeat, probe
	// and adoption-retransmission timers, so a fleet of workers does
	// not synchronize its control traffic against a recovering
	// aggregator. Zero derives a deterministic seed from the worker id;
	// replay harnesses set it explicitly.
	JitterSeed int64
	// Worker is the protocol configuration. A zero PoolSize or SlotElems
	// adopts the job's, which the aggregator tells at dial; a smaller
	// PoolSize keeps a smaller window, and any other disagreement fails
	// the dial with ErrShape. LossRecovery must agree.
	Worker core.WorkerConfig
	// RTO is the retransmission timeout; zero selects 50 ms, generous
	// for a LAN (the paper's testbed uses 1 ms; over real kernels a
	// larger value avoids spurious retransmissions under scheduling
	// jitter). It is the last rung of the recovery ladder (core.Pump),
	// not the operating point: mid-tensor a loss is repaired within
	// about one trip round the slot window by lap detection, and where
	// nothing is left to lap it — the drained tail of a tensor, a
	// tensor of one window — within a probe timeout of a few measured
	// round trips (never above the RTO) by the overtake and tail-probe
	// rules. The timer is what remains for a loss that took its probes
	// with it, a path with no round-trip estimate yet, and a silent
	// aggregator, whose silence detector counts in RTOs. Send times
	// are stamped once per burst, not per datagram, so the timer can
	// fire early by up to one burst's processing time — tens of
	// microseconds, against RTOs of a millisecond and more.
	RTO time.Duration
	// AdaptiveRTO uses SRTT + 4·RTTVAR as the base timeout, clamped to
	// [RTO, 64×RTO]. The configured RTO then acts as a floor rather
	// than the operating point, so one setting serves both loopback and
	// a congested fabric. The path RTT is estimated either way — the
	// probe timeout needs it — from clean (never retransmitted — Karn's
	// rule) chunk round trips, one sample per received burst; a sample
	// is the difference of two burst stamps (the send's and the
	// result's), so it resolves to a burst's processing time, well
	// under the RTO floor.
	AdaptiveRTO bool
	// Fallback, when non-nil, arms the degraded mode: an aggregator
	// silent past FallbackConfig.SuspectAfter is abandoned mid-tensor
	// at the chunk frontier and the job continues by ring all-reduce
	// over a worker-to-worker UDP mesh, failing back automatically
	// once probes are answered again (see fallback.go).
	Fallback *FallbackConfig
	// Timeout bounds one AllReduce call; zero selects 30 s.
	Timeout time.Duration
	// Heartbeat, when positive, starts a background beacon at this
	// period so an aggregator-side failure detector does not mistake a
	// worker idle between tensors for a dead one. Leave zero when the
	// aggregator has no Liveness configured.
	Heartbeat time.Duration
	// Inject, when non-nil, applies seeded loss, duplication and
	// corruption to outgoing update datagrams — chaos testing on
	// loopback networks that never misbehave. Verdicts are applied as
	// updates are staged, so an injected run uses the same I/O path as
	// a clean one. Control datagrams (report/heartbeat) are sent clean.
	Inject *faults.InjectorConfig
	// Metrics receives the worker protocol and datagram counters. Nil
	// allocates a private registry, available through Registry.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, observes protocol events stamped with
	// wall-clock nanoseconds.
	Tracer telemetry.Tracer
}

// Client is a synchronous SwitchML worker over UDP. It is not safe
// for concurrent use: one AllReduce runs at a time, matching the
// ordered-tensor requirement of the stream protocol (Appendix B).
type Client struct {
	cfg    ClientConfig
	conn   *net.UDPConn
	worker *core.Worker
	reg    *telemetry.Registry
	actor  string
	inj    *faults.PacketInjector

	recvd, corrupt, sent *telemetry.Counter
	// unexpected counts well-formed datagrams whose kind the worker
	// never dispatches (aggregators never send update/report/
	// heartbeat kinds).
	unexpected *telemetry.Counter
	// sendErrs counts datagrams whose socket send failed (batched
	// flushes report per-datagram through netio's OnSendError).
	sendErrs *telemetry.Counter
	// rcvDrops counts result datagrams the kernel dropped at this
	// socket's full receive buffer (netio.Conn.RcvbufDrops; ncDrops is
	// the current view's count as last folded in); gRcvbuf and
	// gRcvbufNeed publish the receive buffer the kernel granted and the
	// one the window needs (sizeSocket).
	rcvDrops             *telemetry.Counter
	ncDrops              uint64
	gRcvbuf, gRcvbufNeed *telemetry.Gauge
	// chunkRTT observes clean (never-retransmitted) chunk round trips,
	// the per-chunk latency view of §7's RTT analysis: the one sample
	// per received burst that the pump feeds its estimators. A sample
	// is the difference of two burst stamps, so its resolution is one
	// burst's processing time (tens of microseconds), not the bucket
	// width.
	chunkRTT *telemetry.Histogram
	// Monitoring gauges, written by the AllReduce goroutine at safe
	// points (RTT samples, sweeps, tensor and recovery boundaries) and
	// read lock-free by DebugState and the sampler. They exist because
	// the underlying state (srtt, frontier, pending set) belongs to
	// the AllReduce goroutine and must not be read directly.
	gSRTT, gRTO, gPTO, gFrontier, gPending, gEpoch, gDegraded *telemetry.Gauge
	// gHome publishes the failover-ladder rung serving the job (0 =
	// primary); the failover counters track re-homes, adoption
	// solicitations, fail-up probes/acks and completed failbacks.
	gHome                                                             *telemetry.Gauge
	failRehomes, failAdopts, failProbes, failProbeAcks, failFailbacks *telemetry.Counter

	// clock is the wall clock, read once per pass of the receive loop
	// into now; everything the data path stamps or compares — send
	// times, progress, RTT samples, the silence and timeout checks —
	// uses now, so a burst of datagrams costs one clock read, not
	// three per datagram. Tests substitute clock to count reads.
	clock func() time.Time
	now   time.Time
	// pump is the loss-recovery machine: send stamps, backoff, the RTT
	// estimators and every retransmission decision (core.Pump). It runs
	// on nowNs, the burst clock as nanoseconds since t0, so a send is
	// stamped with the clock read of the pass that staged it — at most
	// one burst's processing before the datagram reached the socket.
	// due is the reused result buffer of its query.
	pump  *core.Pump
	t0    time.Time
	nowNs int64
	due   []uint32
	// rp/cbuf are the decoded packet — where the client loop decodes the
	// control kinds and mesh datagrams it receives (aggregator results it
	// never decodes whole) — and the control wire buffer, reused across
	// datagrams so the steady-state AllReduce loop performs no heap
	// allocation; every receive buffer belongs to a socket view (nc,
	// fb.nc, upNC). They belong to the AllReduce goroutine (the client is
	// documented as not safe for concurrent use).
	rp   packet.Packet
	cbuf []byte
	// nc is the socket view over conn, the window pump's only datagram
	// path: each receive wakeup drains up to DefaultBatch result
	// datagrams (one recvmmsg on Linux, one datagram in netio's
	// portable mode). txb is the window block: updates are marshalled
	// straight into it, txSeg bytes each, and leave as one segment
	// train in flushTxBlock (one sendmmsg — a single
	// segmentation-offload train where the kernel supports it).
	// stageErr carries the first send failure — from netio's
	// OnSendError callback, which fires on the AllReduce goroutine
	// inside Flush — to the next flushTx caller.
	nc       *netio.Conn
	txb      []byte
	txSeg    int
	stageErr error
	// unread is the rest of a burst on aggregator view unreadNC that a
	// mode ended in the middle of (a fence directive behind a tensor's
	// last result, say), for the next mode reading that view.
	unread   []netio.Message
	unreadNC *netio.Conn
	// lastProgress is the last time the aggregator proved it was alive
	// (a burst with a decodable datagram on the main connection),
	// stamped once per burst; the fallback's silence detector measures
	// from it.
	lastProgress time.Time
	// epoch is the job generation last adopted from a resume
	// directive; it dedups repeated directives for the same recovery.
	epoch uint16
	// fb is the degraded-mode state; nil unless cfg.Fallback is set.
	fb *fallback
	// Elastic-membership state (elastic_client.go): fenceArmed/fenceGen
	// record a proposed membership change to hold for at the next
	// tensor boundary (for a joiner: the fence that admits it); drained
	// means Drain completed and every later AllReduce fails fast;
	// stateProvider is the model snapshot served to joiners over the
	// mesh. All belong to the AllReduce goroutine.
	fenceArmed    bool
	fenceGen      uint16
	drained       bool
	stateProvider func() []int32
	// retryOpen means the last call failed with its own tensor open: the
	// next call must be its retry, given the same slice. It belongs to
	// the AllReduce goroutine too.
	retryOpen bool

	// The client loop's mode (run): what it is doing, when it entered it,
	// when its periodic send is next due, and the facts its exit rules
	// and socket choice (recv) read — fence confirms sent by a joiner, an
	// adoption request echoed, the joiner's state fetch (made once it
	// names an incumbent), the model snapshot fetched (join) or served
	// (fence), when a fence hold's mesh turn ends (zero between turns),
	// and the probation a probe wait resolves on socket pnc.
	mode     mode
	modeAt   time.Time
	nextTx   time.Time
	confirms int
	echoed   bool
	fetch    stateFetch
	snapshot []int32
	meshEnd  time.Time
	prob     *faults.Probation
	pnc      *netio.Conn

	// Warm-standby failover state (failover.go). ladder holds the
	// resolved aggregator addresses in preference order (rank 0 is the
	// primary, then cfg.Standbys); homeRank is the rung currently
	// serving the job. up is the fail-up probation against rank 0 while
	// the job lives on a standby, run over the dedicated upConn socket
	// (upNC is the client loop's view of it).
	// frng jitters the AllReduce goroutine's control timers (the
	// heartbeat goroutine seeds its own stream). All belong to the
	// AllReduce goroutine except the atomics: hbConn is the heartbeat
	// goroutine's view of the main connection, swapped on re-home;
	// upConn and ncDbg are also read by Close and DebugState;
	// retiredRetries accumulates the send retries of socket views
	// retired by re-homes.
	ladder         []*net.UDPAddr
	homeRank       int
	up             faults.Probation
	upNC           *netio.Conn
	frng           *rand.Rand
	hbConn         atomic.Pointer[net.UDPConn]
	upConn         atomic.Pointer[net.UDPConn]
	ncDbg          atomic.Pointer[netio.Conn]
	retiredRetries atomic.Uint64

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// ErrShape fails a dial whose worker cannot take the job's shape: its k
// or Workers differ, its s is larger, or the aggregator told no shape
// (it predates the hello). Test with errors.Is.
var ErrShape = errors.New("transport: the worker's shape disagrees with the aggregator's")

// NewClient binds a local UDP socket, asks the primary aggregator for
// the job's shape (hello: a Timeout of silence fails the dial, standbys
// wait for the first call) and prepares the worker state machine.
func NewClient(cfg ClientConfig) (_ *Client, err error) {
	if cfg.RTO == 0 {
		cfg.RTO = 50 * time.Millisecond
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 30 * time.Second
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	cfg.Worker.Metrics = reg
	raddr, err := net.ResolveUDPAddr("udp", cfg.Aggregator)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", cfg.Aggregator, err)
	}
	ladder := []*net.UDPAddr{raddr}
	for i, s := range cfg.Standbys {
		sa, err := net.ResolveUDPAddr("udp", s)
		if err != nil {
			return nil, fmt.Errorf("transport: resolve standby %d %q: %w", i, s, err)
		}
		ladder = append(ladder, sa)
	}
	var inj *faults.PacketInjector
	if cfg.Inject != nil {
		if inj, err = faults.NewPacketInjector(*cfg.Inject); err != nil {
			return nil, err
		}
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial: %w", err)
	}
	id := fmt.Sprintf("%d", cfg.Worker.ID)
	c := &Client{
		cfg:         cfg,
		conn:        conn,
		reg:         reg,
		actor:       "w" + id,
		inj:         inj,
		recvd:       reg.Counter("udp_datagrams_received_total", "role", "worker", "worker", id),
		corrupt:     reg.Counter("udp_datagrams_corrupted_total", "role", "worker", "worker", id),
		sent:        reg.Counter("udp_datagrams_sent_total", "role", "worker", "worker", id),
		sendErrs:    reg.Counter("udp_send_errors_total", "role", "worker", "worker", id),
		unexpected:  reg.Counter("udp_unexpected_kind_total", "role", "worker", "worker", id),
		rcvDrops:    reg.Counter("udp_rcvbuf_drops_total", "role", "worker", "worker", id),
		gRcvbuf:     reg.Gauge("worker_rcvbuf_bytes", "worker", id),
		gRcvbufNeed: reg.Gauge("worker_rcvbuf_need_bytes", "worker", id),
		chunkRTT:    reg.Histogram("worker_chunk_rtt_ns", telemetry.LatencyBuckets, "worker", id),
		gSRTT:       reg.Gauge("worker_srtt_ns", "worker", id),
		gRTO:        reg.Gauge("worker_rto_ns", "worker", id),
		gPTO:        reg.Gauge("worker_pto_ns", "worker", id),
		gFrontier:   reg.Gauge("worker_frontier_off", "worker", id),
		gPending:    reg.Gauge("worker_pending_chunks", "worker", id),
		gEpoch:      reg.Gauge("worker_epoch", "worker", id),
		gDegraded:   reg.Gauge("worker_degraded", "worker", id),
		gHome:       reg.Gauge("worker_home_rank", "worker", id),
		clock:       time.Now,
		t0:          time.Now(),
		epoch:       cfg.Worker.JobID,
		ladder:      ladder,
		frng:        rand.New(rand.NewSource(jitterSeed(&cfg, 1))),
		closed:      make(chan struct{}),
	}
	c.failRehomes = reg.Counter("failover_rehomes_total", "worker", id)
	c.failAdopts = reg.Counter("failover_adopt_requests_total", "worker", id)
	c.failProbes = reg.Counter("failover_probes_total", "worker", id)
	c.failProbeAcks = reg.Counter("failover_probe_acks_total", "worker", id)
	c.failFailbacks = reg.Counter("failover_failbacks_total", "worker", id)
	c.hbConn.Store(conn)
	defer func() {
		if err != nil {
			c.Close()
		}
	}()
	if cfg.Fallback != nil {
		fb := &fallback{cfg: *cfg.Fallback}
		fb.cfg.SuspectAfter, fb.cfg.Probation = cmp.Or(fb.cfg.SuspectAfter, 8*cfg.RTO), cmp.Or(fb.cfg.Probation, 3)
		var laddr *net.UDPAddr
		if fb.cfg.Listen != "" {
			if laddr, err = net.ResolveUDPAddr("udp", fb.cfg.Listen); err != nil {
				return nil, fmt.Errorf("transport: mesh listen address: %w", err)
			}
		}
		if err := fb.resolvePeers(fb.cfg.Peers, int(cfg.Worker.ID)); err != nil {
			return nil, err
		}
		mesh, err := net.ListenUDP("udp", laddr)
		if err != nil {
			return nil, fmt.Errorf("transport: bind mesh socket: %w", err)
		}
		fb.nc, err = netio.Wrap(mesh, netio.Config{
			Batch: DefaultBatch,
			MTU:   meshMTU,
			OnSendError: func(err error, n int) {
				c.sendErrs.Add(uint64(n))
			},
		})
		if err != nil {
			mesh.Close()
			return nil, fmt.Errorf("transport: wrap mesh socket: %w", err)
		}
		c.fb = fb
	}
	if err := c.hello(); err != nil {
		return nil, err
	}
	if c.worker, err = core.NewWorker(c.cfg.Worker); err != nil {
		return nil, err
	}
	c.pump = core.NewPump(c.worker, int64(cfg.RTO), cfg.AdaptiveRTO, true)
	c.due = make([]uint32, 0, c.cfg.Worker.PoolSize)
	if err := c.wrapMain(conn); err != nil {
		return nil, err
	}
	c.gRTO.Set(int64(cfg.RTO))
	c.gEpoch.Set(int64(cfg.Worker.JobID))
	if cfg.Heartbeat > 0 {
		c.wg.Add(1)
		go c.heartbeatLoop()
	}
	return c, nil
}

// hello is the dial handshake: a KindProbe with Ver 1, sent clean every
// RTO until the ack, whose vector is the job's s, k and n, or Timeout.
func (c *Client) hello() error {
	w := &c.cfg.Worker
	buf := make([]byte, aggWireMTU(0))
	var p packet.Packet
	deadline := time.Now().Add(c.cfg.Timeout)
	for next := time.Now(); ; {
		now := time.Now()
		if now.After(deadline) {
			return fmt.Errorf("transport: dial: %s silent for %v: %w", c.cfg.Aggregator, c.cfg.Timeout, ErrAggregatorSilent)
		}
		if !now.Before(next) {
			if err := c.sendCtl(c.conn, packet.KindProbe, w.JobID, 0, 0, 1); err != nil {
				return err
			}
			next = now.Add(c.cfg.RTO)
		}
		if err := c.conn.SetReadDeadline(next); err != nil {
			return err
		}
		n, err := c.conn.Read(buf)
		if err != nil {
			// With a standby or mesh to take over, a refused primary waits.
			if ne, ok := err.(net.Error); (ok && ne.Timeout()) || (c.canDegrade() && deadDestination(err)) {
				continue
			}
			return fmt.Errorf("transport: dial: %w", err)
		}
		c.recvd.Inc()
		if packet.UnmarshalInto(&p, buf[:n]) != nil || p.Kind != packet.KindProbeAck {
			continue
		}
		if len(p.Vector) < 3 {
			return fmt.Errorf("transport: dial: %s answered without the job's shape: %w", c.cfg.Aggregator, ErrShape)
		}
		s, k, workers := int(p.Vector[0]), int(p.Vector[1]), int(p.Vector[2])
		if (w.SlotElems != 0 && w.SlotElems != k) || w.PoolSize > s || w.Workers != workers {
			return fmt.Errorf("transport: dial: a worker of %d workers with k %d and s %d against a job of %d workers with k %d and s %d: %w",
				w.Workers, w.SlotElems, w.PoolSize, workers, k, s, ErrShape)
		}
		w.SlotElems, w.PoolSize = k, cmp.Or(w.PoolSize, s)
		return c.conn.SetReadDeadline(time.Time{})
	}
}

// Close stops the heartbeat beacon and releases the sockets. The
// main connection is reached through the atomic pointer because a
// re-home may have replaced it since construction.
func (c *Client) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.closed)
		if conn := c.hbConn.Load(); conn != nil {
			err = conn.Close()
		}
		if uc := c.upConn.Load(); uc != nil {
			uc.Close()
		}
		if c.fb != nil {
			c.fb.nc.UDP().Close()
		}
		c.wg.Wait()
	})
	return err
}

// heartbeatLoop is the liveness beacon: a tiny control datagram at
// the configured period — jittered ±10% from its own seeded stream so
// a fleet's beacons decohere — so silence between tensors is never
// mistaken for death. It deliberately reads only immutable config and
// the atomic connection pointer (the worker state machine belongs to
// the AllReduce goroutine, and a re-home may swap the socket under
// it); the aggregator's tracker ignores the possibly-stale generation
// stamp.
func (c *Client) heartbeatLoop() {
	defer c.wg.Done()
	rng := rand.New(rand.NewSource(jitterSeed(&c.cfg, 2)))
	t := time.NewTimer(jitterDur(rng, c.cfg.Heartbeat))
	defer t.Stop()
	hb := packet.NewControl(packet.KindHeartbeat, c.cfg.Worker.ID, c.cfg.Worker.JobID, 0, nil).AppendMarshal(nil)
	for {
		select {
		case <-c.closed:
			return
		case <-t.C:
			if conn := c.hbConn.Load(); conn != nil {
				if _, err := conn.Write(hb); err == nil {
					c.sent.Inc()
				}
			}
			t.Reset(jitterDur(rng, c.cfg.Heartbeat))
		}
	}
}

// Registry returns the metrics registry backing this client's
// counters — the one from the config, or the private registry
// allocated when none was supplied.
func (c *Client) Registry() *telemetry.Registry { return c.reg }

// Stats returns the worker state machine counters. The counters are
// atomic, so this is safe to call from a monitoring goroutine while
// AllReduceInt32 runs.
func (c *Client) Stats() core.WorkerStats { return c.worker.Stats() }

// WorkerConfig returns the worker's configuration, shape as told at dial.
func (c *Client) WorkerConfig() core.WorkerConfig { return c.cfg.Worker }

// TensorOpen reports whether the last call failed with its tensor
// open: only a retry with the same slice may follow, and it continues
// that tensor. Call it from the goroutine that makes the calls.
func (c *Client) TensorOpen() bool { return c.retryOpen }

// trace emits a protocol event stamped with wall-clock time.
func (c *Client) trace(t telemetry.EventType, idx int32) {
	if c.cfg.Tracer == nil {
		return
	}
	//switchml:allow hotpath -- only with a Tracer attached (chaos and flight-recorder runs), whose events must order against other processes' true wall time
	e := telemetry.Ev(t, telemetry.WallClock())
	e.Actor = c.actor
	e.Worker = int32(c.cfg.Worker.ID)
	e.Slot = idx
	c.cfg.Tracer.Emit(e)
}

// ErrTensorOpen is returned by a call whose slice is not the one a
// failed call left open: that tensor still holds its chunks in flight,
// and only a call given the same slice — the retry — may continue it.
var ErrTensorOpen = errors.New("transport: a failed call's tensor is still open; retry it with the same slice")

// AllReduceInt32 aggregates u with the other workers and returns the
// elementwise sum. It blocks until the aggregate is complete or the
// configured timeout elapses. With a Fallback configured the call
// survives aggregator death: the tensor is finished (and subsequent
// ones run) over the worker mesh instead of failing; without one, an
// aggregator silent for SuspectAfter-equivalent (8×RTO) turns the
// timeout into a typed, retryable ErrAggregatorSilent. u is borrowed
// past the return; see AllReduceInt32View.
//
// The returned slice is allocated for the call and is the caller's: it
// is AllReduceInt32Into's destination, every result decoded straight
// into it, and nothing writes it after the return.
//
// A call that fails may leave its tensor open, part of it aggregated.
// The next call given the same slice continues that tensor: every
// outstanding chunk is sent again, and the aggregator's seen bitmaps
// discard the contributions it already holds. A call given any other
// slice while the tensor is open returns ErrTensorOpen and sends
// nothing.
func (c *Client) AllReduceInt32(u []int32) ([]int32, error) {
	if len(u) == 0 {
		return nil, nil
	}
	out := make([]int32, len(u))
	if err := c.AllReduceInt32Into(out, u); err != nil {
		return nil, err
	}
	return out, nil
}

// AllReduceInt32Into is AllReduceInt32 with the sum written into dst,
// which must be u's length and share no storage with it (the worker
// reads u while it writes dst): dst is lent to the worker as the call's
// aggregate buffer, and core.Pump.Result decodes each result straight
// into it — no result is copied. The loan ends when the call returns
// the sum: a §5.6 re-open during a later call writes the worker's own
// buffer, never dst. A call that fails with its tensor open (TensorOpen)
// keeps dst for the chunks already in it: leave dst alone until the
// retry, which continues the tensor, returns; the retry may pass dst or
// another slice. u is borrowed as by AllReduceInt32View.
func (c *Client) AllReduceInt32Into(dst, u []int32) error {
	if len(dst) != len(u) {
		return fmt.Errorf("transport: destination of %d elements for a tensor of %d", len(dst), len(u))
	}
	c.worker.Lend(dst)
	sum, err := c.AllReduceInt32View(u)
	if err != nil {
		c.worker.Lend(nil) // withdraw it if the call never opened its tensor; a taken loan stays with the open tensor
		return err
	}
	if !SameSlice(sum, dst) {
		// A retry's sum: the tensor was opened by the failed call, into
		// that call's slice or the worker's own buffer.
		copy(dst, sum)
	}
	return nil
}

// AllReduceInt32View is AllReduceInt32 without the result allocation:
// the returned slice is the worker's own aggregate buffer, valid until
// the next call on this client (or, for a retry of a failed
// AllReduceInt32Into, that call's destination, which is the caller's). Callers that convert the sum on the
// spot (the float32 path dequantizes it) save a tensor-sized
// allocation.
//
// Every form borrows u past its return (core.Worker.Open): it is read
// at every send and retransmission of the call, and a §5.6 recovery
// that re-opens the tensor after it completed locally re-reads it
// during the next call, whose fence hold drives the re-opened tensor to
// completion in the client loop's data mode before it opens its own.
// The caller must leave u unchanged until the next call on this client
// returns.
func (c *Client) AllReduceInt32View(u []int32) ([]int32, error) {
	if len(u) == 0 {
		return nil, nil
	}
	if c.drained {
		return nil, ErrDrained
	}
	if c.retryOpen && !SameSlice(u, c.worker.Update()) {
		return nil, ErrTensorOpen
	}
	sum, err := c.allReduce(u)
	c.retryOpen = err != nil && c.worker.Busy() && SameSlice(u, c.worker.Update())
	if err == nil {
		// A sum in a lent buffer is the caller's from here on.
		c.worker.Reclaim()
	}
	return sum, err
}

// allReduce is AllReduceInt32View past its argument checks.
func (c *Client) allReduce(u []int32) ([]int32, error) {
	if c.cfg.Tracer != nil {
		e := telemetry.Ev(telemetry.EvTensorStart, telemetry.WallClock())
		e.Actor = c.actor
		e.Worker = int32(c.cfg.Worker.ID)
		e.Size = int32(4 * len(u))
		c.cfg.Tracer.Emit(e)
	}
	deadline := c.tick().Add(c.cfg.Timeout)
	if c.fb != nil && c.fb.degraded.Load() {
		return c.degradedAllReduce(u, deadline)
	}
	c.lastProgress = c.now
	if c.worker.Busy() {
		// A tensor is open at the call's start: a failed call left its
		// own for this retry to continue, or a §5.6 recovery during a
		// failed call's fence hold re-opened the one before it. Re-send
		// what is outstanding and drive it to completion. The retry's
		// result is this call's; the re-opened tensor's is the
		// survivors', already superseded here, and this call's own
		// tensor starts after it.
		for idx := range uint32(c.cfg.Worker.PoolSize) {
			if s := c.worker.RetransmitSend(idx); s != nil {
				c.send(s)
			}
		}
		err := c.run(modeData, deadline)
		if c.retryOpen {
			return c.settle(u, deadline, err)
		}
		if err != nil {
			return nil, err
		}
	}
	if c.homeRank > 0 {
		// The job lives on a standby: run one round of the fail-up
		// probation before starting the tensor (failover.go).
		if err := c.failUpTick(deadline); err != nil {
			return nil, err
		}
		c.lastProgress = c.tick()
	}
	if c.fenceArmed {
		// A membership change is pending and this call sits exactly at
		// the tensor boundary: hold until the fence commits. A §5.6
		// recovery superseding the fence may re-open the previous
		// tensor; the loop drives it back to completion (the
		// re-aggregated result is the survivors', already superseded for
		// this worker) before the new one starts.
		if err := c.run(modeFence, deadline); err != nil {
			return nil, err
		}
	}
	c.worker.Open(u)
	for s := c.worker.NextSend(); s != nil; s = c.worker.NextSend() {
		c.send(s)
	}
	return c.settle(u, deadline, c.run(modeData, deadline))
}

// SameSlice reports whether a and b are the same slice: one backing
// array, the same start and the same length. A retry is recognised by
// it — the caller's slice, not a copy of its contents.
func SameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// settle turns the data mode's verdict on the open tensor into the
// call's result: the worker's aggregate buffer (not a copy; the
// caller's own slice when AllReduceInt32Into lent it) or, on the
// silence verdict, the next rung of the failover ladder.
func (c *Client) settle(u []int32, deadline time.Time, err error) ([]int32, error) {
	if errors.Is(err, errSilence) {
		return c.degradeLadder(u, deadline)
	}
	if err != nil {
		return nil, err
	}
	return c.worker.Aggregate(), nil
}

// tick reads the clock into now: once per call, once per pass of the
// client loop, and wherever code that blocked off the aggregator socket
// hands back to it.
func (c *Client) tick() time.Time {
	c.now = c.clock()
	c.nowNs = int64(c.now.Sub(c.t0))
	return c.now
}

// canDegrade reports whether someone can take over for a dead
// aggregator — a standby ladder, a host mesh, or both — which makes a
// provably-dead destination evidence for the silence clock rather
// than a caller error.
func (c *Client) canDegrade() bool { return c.fb != nil || len(c.ladder) > 1 }

// silenceAfter is the no-progress threshold that separates "switch
// gone" from an ordinarily slow aggregation.
func (c *Client) silenceAfter() time.Duration {
	if c.fb != nil {
		return c.fb.cfg.SuspectAfter
	}
	return 8 * c.cfg.RTO
}

// mode is what the client loop is doing, and on which socket (recv).
// The data mode is the window pump; every other mode is one side of a
// control handshake or a step of the host mesh's collective, and
// supplies only a periodic send (announce) and an exit and give-up rule
// (pace, and the handleIncoming or handleMesh arm that ends it).
// DESIGN.md "The client loop" tabulates them.
type mode uint8

const (
	modeData  mode = iota // drive the open tensor's window to completion
	modeFence             // hold at the tensor boundary until the membership fence releases
	modeJoin              // solicit admission, then confirm it, until the join commits
	modeDrain             // announce the leave until the aggregator echoes it
	modeAdopt             // vote the job onto a ladder rung until it releases it
	modeProbe             // drain a probed aggregator's socket for the probe's ack
	modeSync              // the mesh barrier: collect every peer's frontier and streak
	modeRing              // the mesh ring: the ring schedule under its ARQ
	modeFetch             // a joiner's model-state fetch from an incumbent
)

// drainTries is Drain's budget: announcements, one every RTO.
const drainTries = 64

// run is the client loop, the only reader of every socket the client
// owns. It drives mode m until the mode ends — the open tensor
// completes, a handshake is released, the barrier or the ring completes
// — or gives up, or the silence verdict comes (errSilence, for settle to
// degrade on). A handshake release that re-opens a tensor switches the
// loop to the data mode, which drives it to completion; an admitted
// joiner switches to the state fetch and back. Each pass reads the
// socket the mode names and then the clock, once; the checks at the top
// of the next pass and every stamp made while the burst is handled use
// that reading.
func (c *Client) run(m mode, deadline time.Time) error {
	c.mode, c.modeAt, c.nextTx = m, c.now, time.Time{}
	c.echoed, c.fetch, c.meshEnd, c.snapshot = false, stateFetch{}, time.Time{}, nil
	for {
		// What is staged — the previous sweep's retransmissions, a prior
		// burst's sends, the mode's own — must reach the wire before the
		// loop blocks or the mode ends.
		wake, done, err := c.pace(deadline)
		if err == nil {
			err = c.flushTx()
		}
		if done || err != nil {
			return err
		}
		msgs, mesh, err := c.recv(wake)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if c.mode == modeData {
					// Wake-ups are also the mid-tensor publication point
					// for the frontier and pending gauges: frequent enough
					// to be live, rare enough that the O(chunks) frontier
					// scan never shadows packet handling.
					c.gPending.Set(int64(c.worker.PendingCount()))
					c.gFrontier.Set(int64(c.worker.FrontierOff()))
					c.retransmitDue()
				}
				continue
			}
			if !c.canDegrade() || !deadDestination(err) {
				return err
			}
			if c.mode == modeAdopt {
				// The rung's port is provably closed; fail it without
				// waiting out the patience window.
				return fmt.Errorf("transport: ladder rung %d unreachable: %w", c.homeRank, ErrAggregatorSilent)
			}
			// A refused or unreachable destination is death evidence,
			// not a caller error: let the silence clock and the modes'
			// give-up rules decide, pacing the loop meanwhile.
			time.Sleep(c.cfg.RTO / 8)
			c.tick()
			continue
		}
		for i := range msgs {
			// Only an aggregator's datagrams reach handleDatagram, which
			// stamps lastProgress: mesh traffic must never hide a silent
			// aggregator from the silence rules.
			var done bool
			if mesh {
				done, err = c.handleMesh(&msgs[i])
			} else {
				done, err = c.handleDatagram(msgs[i].Buf)
			}
			if err != nil {
				return err
			}
			if !done {
				continue
			}
			if mesh {
				c.fb.unread = msgs[i+1:]
			} else {
				c.unread = msgs[i+1:]
			}
			if c.mode == modeData {
				// Nothing is left to retransmit, but the burst's round
				// trip is still to be sampled: a tensor of one window
				// ends on its first burst, and would never give the pump
				// an estimate to probe the next one's losses with.
				c.retransmitDue()
				c.trace(telemetry.EvTensorDone, -1)
				c.gFrontier.Set(int64(c.worker.FrontierOff()))
				c.gPending.Set(0)
			}
			return c.flushTx()
		}
		if c.mode == modeData {
			// The burst moved the ack clock: a slot it left a whole
			// window of sends, or a whole probe timeout, behind lost its
			// update or its result. Retransmit now, on the next flush,
			// instead of idling the slot until its RTO.
			c.retransmitDue()
		}
	}
}

// recv returns the pass's burst from the socket the mode reads — the
// mesh for the mesh modes and a state-serving fence hold's mesh turns,
// the probed aggregator's for a probe wait, the home aggregator's for
// the rest — and whether that is the mesh. The rest of a burst an
// earlier mode on the same view ended in the middle of comes first;
// otherwise the socket is read under the wake deadline, and then the
// clock.
func (c *Client) recv(wake time.Time) ([]netio.Message, bool, error) {
	nc := c.nc
	switch c.mode {
	case modeSync, modeRing, modeFetch:
		nc = c.fb.nc
	case modeFence:
		if !c.meshEnd.IsZero() {
			nc = c.fb.nc
		}
	case modeProbe:
		nc = c.pnc
	}
	mesh := c.fb != nil && nc == c.fb.nc
	rest := &c.unread
	if mesh {
		rest = &c.fb.unread
	} else if nc != c.unreadNC {
		c.unread, c.unreadNC = nil, nc // another view's rest is stale
	}
	if msgs := *rest; len(msgs) > 0 {
		*rest = nil
		return msgs, mesh, nil
	}
	if err := nc.SetReadDeadline(wake); err != nil {
		return nil, mesh, err
	}
	n, err := nc.Recv()
	c.tick()
	if err != nil {
		return nil, mesh, err
	}
	if !mesh { // the datagram counters count aggregator traffic only
		c.recvd.Add(uint64(n))
	}
	foldRcvbufDrops(c.nc, &c.ncDrops, c.rcvDrops)
	return nc.Msgs[:n], mesh, nil
}

// pace applies the mode's rules at the pass's clock reading, before the
// loop blocks: the silence verdict (data), the deadline, the give-up
// rules (fence silence, adoption patience, an unanswered state fetch),
// the mode switches no datagram makes (an admitted joiner's fetch), then
// the periodic send, or what the ring's ARQ has due. It returns when the
// loop must next wake — at least every RTO — and done when the mode
// ended without a datagram to end it.
func (c *Client) pace(deadline time.Time) (wake time.Time, done bool, err error) {
	now := c.now
	if silence := now.Sub(c.lastProgress); c.mode == modeData && silence >= c.silenceAfter() {
		if c.canDegrade() {
			// Someone can take over: a host mesh, a standby ladder, or
			// both. Deliver the silence verdict and let degradeLadder
			// pick the next rung.
			c.trace(telemetry.EvSwitchSuspect, -1)
			return now, false, errSilence
		}
		if now.After(deadline) {
			return now, false, fmt.Errorf("transport: all-reduce timed out after %v with the aggregator silent for %v (%d chunks outstanding): %w",
				c.cfg.Timeout, silence.Round(time.Millisecond), c.worker.PendingCount(), ErrAggregatorSilent)
		}
	}
	if now.After(deadline) {
		return now, c.mode == modeProbe, c.expired()
	}
	wake = now.Add(c.cfg.RTO)
	switch c.mode {
	case modeData:
		// Wake when the pump next has something to retransmit unprompted
		// — a timeout, or the newest pending packet's probe.
		if d := c.pump.Deadline(); d < c.nowNs+int64(c.cfg.RTO) {
			wake = c.t0.Add(time.Duration(d))
		}
		return wake, false, nil
	case modeProbe:
		if deadline.Before(wake) {
			wake = deadline
		}
		return wake, false, nil
	case modeFence:
		if now.Sub(c.lastProgress) >= c.silenceAfter() {
			// The aggregator went silent mid-fence: abandon the hold and
			// let the data mode's silence detector deliver its verdict.
			c.fenceArmed = false
			return now, true, nil
		}
		if c.stateProvider != nil && c.fb != nil {
			// Serve the joiner the boundary-aligned snapshot in mesh turns.
			// A turn lasts while requests land within 1 ms of each other
			// (serveState moves meshEnd; the joiner asks again as soon as
			// a reply lands), until the next confirm is due. The aggregator
			// pass after it polls for 1 ms if the joiner was still asking,
			// and waits up to RTO/2 otherwise.
			if c.snapshot == nil {
				c.snapshot = c.stateProvider()
			}
			switch busy := now.Before(c.meshEnd); {
			case c.meshEnd.IsZero():
				c.meshEnd = now.Add(time.Millisecond)
				wake = c.meshEnd
			case busy && now.Before(c.nextTx):
				wake = c.meshEnd
			case busy:
				c.meshEnd, wake = time.Time{}, now.Add(min(time.Millisecond, c.cfg.RTO/2))
			default:
				c.meshEnd, wake = time.Time{}, now.Add(c.cfg.RTO/2)
			}
		}
	case modeJoin:
		if c.fenceArmed && c.fb != nil && !c.fetch.from.IsValid() {
			// Admitted: fetch model state from an incumbent before the
			// first confirm (best effort: see the fetch mode's give-up).
			c.startFetch()
		}
	case modeFetch:
		if c.fetch.tries >= 16 && !now.Before(c.nextTx) {
			// 16 requests at one offset went unanswered (an incumbent
			// without a state provider never answers): join stateless.
			c.mode, c.snapshot, c.nextTx = modeJoin, nil, time.Time{}
		}
	case modeAdopt:
		// A rung that never echoes the request is written off quickly;
		// once the echo proves the roll call open, the wait stretches to
		// two silence windows — a member that was between tensors notices
		// the outage a full window later than the rest — plus handshake
		// round trips.
		if wait := now.Sub(c.modeAt); (!c.echoed && wait >= 8*c.cfg.RTO) || wait >= 2*c.silenceAfter()+8*c.cfg.RTO {
			return now, false, fmt.Errorf("transport: ladder rung %d silent through the adoption handshake (echoed=%v): %w", c.homeRank, c.echoed, ErrAggregatorSilent)
		}
	case modeRing:
		// The ARQ keeps the mode's clock, and its end.
		c.fb.meshRetx.Add(uint64(c.fb.ring.Send(c.nowNs)))
		return c.t0.Add(time.Duration(c.fb.ring.Deadline())), c.fb.ring.Finished(), nil
	}
	if !now.Before(c.nextTx) {
		period, err := c.announce()
		if err != nil {
			return now, false, err
		}
		c.nextTx = now.Add(period)
	}
	if c.nextTx.Before(wake) {
		wake = c.nextTx
	}
	return wake, false, nil
}

// expired is the mode's verdict on its deadline: the call's, for the
// data and fence modes, adoption and the mesh's barrier and ring; the
// handshake's own for a join (its state fetch included), a drain and a
// probe wait, which ends without error.
func (c *Client) expired() error {
	switch c.mode {
	case modeData:
		return fmt.Errorf("transport: all-reduce timed out after %v (%d chunks outstanding)", c.cfg.Timeout, c.worker.PendingCount())
	case modeFence:
		return fmt.Errorf("transport: membership fence (generation %d) timed out holding at offset %d", c.fenceGen, c.worker.FrontierOff())
	case modeJoin, modeFetch:
		return fmt.Errorf("transport: join timed out after %v", c.cfg.Timeout)
	case modeDrain:
		return fmt.Errorf("transport: drain announcement unacknowledged after %d attempts", drainTries)
	case modeAdopt:
		return fmt.Errorf("transport: adoption at ladder rung %d timed out: %w", c.homeRank, ErrAggregatorSilent)
	case modeSync:
		return fmt.Errorf("transport: fallback barrier timed out with %d of %d peers silent: %w", c.fb.remaining, c.cfg.Worker.Workers-1, ErrAggregatorSilent)
	case modeRing:
		return fmt.Errorf("transport: mesh ring timed out (%v): %w", c.fb.ring, ErrAggregatorSilent)
	}
	return nil
}

// announce makes the mode's periodic send and returns the period to the
// next one: the fence confirm (Ver=1 KindReport at the boundary) or the
// joiner's solicit, the leave announcement, the adoption request at a
// jittered RTO, and on the mesh the barrier sync to every silent peer
// and the state fetch's request. A joiner
// whose fence stays quiet for 16 confirms was aborted by a crash
// recovery and solicits a fresh one.
func (c *Client) announce() (time.Duration, error) {
	switch c.mode {
	case modeDrain:
		return c.cfg.RTO, c.sendCtl(c.conn, packet.KindLeave, c.epoch, 0, c.worker.FrontierOff(), 0)
	case modeAdopt:
		c.failAdopts.Inc()
		return jitterDur(c.frng, c.cfg.RTO), c.sendCtl(c.conn, packet.KindAdoptJob, c.epoch+1, 0, c.worker.FrontierOff(), 0)
	case modeSync:
		for w, got := range c.fb.got {
			if !got {
				c.meshSend(c.fb.syncWire, w)
			}
		}
		return c.cfg.RTO, nil
	case modeFetch:
		c.fetch.tries++
		c.fb.sbuf = packet.NewControl(packet.KindStateReq, c.cfg.Worker.ID, 0, uint64(c.fetch.off), nil).AppendMarshal(c.fb.sbuf[:0])
		c.fb.nc.AppendTo(c.fb.sbuf, c.fetch.from)
		return c.cfg.RTO, nil
	}
	if c.mode == modeJoin && c.fenceArmed {
		if c.confirms++; c.confirms > 16 {
			c.fenceArmed = false
		}
	}
	if !c.fenceArmed {
		return c.cfg.RTO, c.sendCtl(c.conn, packet.KindJoin, c.cfg.Worker.JobID, 0, 0, 0)
	}
	return c.cfg.RTO, c.sendCtl(c.conn, packet.KindReport, c.fenceGen, 0, c.worker.FrontierOff(), 1)
}

// retransmitDue re-sends what the pump finds due at the pass's clock
// reading — on lap, overtake or tail-probe evidence, or because a
// timeout expired (Algorithm 4 lines 20-23) — and publishes the round
// trip the pump sampled from the burst.
func (c *Client) retransmitDue() {
	c.due = c.pump.Due(c.nowNs, c.due[:0])
	if rtt := c.pump.Sample(); rtt != 0 {
		c.chunkRTT.Observe(float64(rtt))
		c.gSRTT.Set(c.pump.SRTT())
		c.gRTO.Set(c.pump.RTO())
		c.gPTO.Set(c.pump.PTO())
	}
	for _, idx := range c.due {
		if c.pump.TimedOut(idx) {
			c.trace(telemetry.EvTimeoutFired, int32(idx))
		}
		s := c.worker.RetransmitSend(idx)
		if s == nil {
			continue
		}
		c.trace(telemetry.EvRetransmit, int32(idx))
		c.send(s)
	}
}

// handleDatagram takes one datagram of a receive burst. A result —
// nearly every datagram — is checked on its header alone and its
// elements decoded straight from the receive arena into the worker's
// aggregate, or nowhere if the worker ignores it; anything else is
// decoded whole for handleIncoming. A datagram that fails the codec's
// checks (a corrupted one, or one in another wire layout) is counted
// and dropped (§3.4).
//
//switchml:hotpath
func (c *Client) handleDatagram(buf []byte) (bool, error) {
	var h packet.Header
	payload, err := packet.ParseHeader(&h, buf)
	if err != nil {
		c.corrupt.Inc()
		return false, nil
	}
	c.lastProgress = c.now
	if h.Kind == packet.KindResult || h.Kind == packet.KindResultUnicast {
		return c.handleResult(&h, payload), nil
	}
	// The rare control kinds are decoded whole, checks and all.
	if packet.UnmarshalInto(&c.rp, buf) != nil {
		c.corrupt.Inc()
		return false, nil
	}
	return c.handleIncoming(&c.rp)
}

// handleResult feeds one result to the pump and sends the follow-up
// update it unlocks, encoded from the caller's tensor straight into the
// window block. It reports whether the tensor completed.
//
//switchml:hotpath
func (c *Client) handleResult(h *packet.Header, payload []byte) bool {
	next, done := c.pump.Result(h, payload, c.nowNs)
	if next != nil {
		c.send(next)
	}
	return done
}

// handleIncoming dispatches one decoded packet from the aggregator, in
// whatever mode the client loop is in, and reports whether the mode
// ended: the tensor completed, or the handshake was released. Results
// feed the protocol state machine; reconfigure and resume directives
// run the worker's half of the §5.6 recovery handshake and of the
// membership and adoption roll calls. The receive loop hands results to
// handleResult in wire form and only the other kinds here; a result
// that arrives decoded is put back in wire form (in the control buffer,
// free between control sends) so that every result takes the one path.
//
//switchml:hotpath
func (c *Client) handleIncoming(p *packet.Packet) (bool, error) {
	if (c.mode == modeProbe && p.Kind != packet.KindProbeAck) || (c.mode == modeDrain && p.Kind != packet.KindLeave) {
		// Two modes wait for one kind and drain the rest: the probe
		// fence makes whatever piled up while the job lived on the mesh
		// meaningless, and a leaver's collectives are over.
		return false, nil
	}
	//switchml:dispatch
	switch p.Kind {
	case packet.KindReconfig:
		switch {
		case p.Ver == 1 && c.mode == modeAdopt:
			// An adoption supersedes any fence the dead rung proposed.
		case p.Ver == 1 && (c.mode != modeJoin || c.isMember(p.Vector)):
			// An elastic-membership fence: finish this tensor, then hold
			// at the boundary — or, for a joiner, the fence admitting it.
			return false, c.armFence(p)
		case p.Ver == 0 && c.mode != modeJoin:
			// A membership change is in effect; report the progress
			// frontier (a fence hold's boundary, an adopter's handoff
			// point). The directive may arrive again if this report is
			// lost, and reporting is idempotent.
			if err := c.evicted(p); err != nil {
				return false, err
			}
			return false, c.sendCtl(c.conn, packet.KindReport, p.JobID, 0, c.worker.FrontierOff(), 0)
		}
		return false, nil // someone else's fence, or a recovery a joiner is not part of
	case packet.KindResume:
		if c.mode != modeJoin && p.JobID == c.epoch {
			return false, nil // repeated directive for an adopted generation
		}
		// Every release supersedes the fence: a commit, an abort by a
		// §5.6 recovery, an adoption.
		c.fenceArmed = false
		if c.mode == modeJoin {
			c.worker.JoinAt(p.JobID, p.Off)
			c.adoptEpoch(p.JobID)
			c.gFrontier.Set(int64(p.Off))
			c.trace(telemetry.EvWorkerJoin, -1)
			return true, nil
		}
		// At the boundary ResumeAt only installs the generation; below
		// it, it re-opens the tensor, and the loop drives it in the
		// data mode.
		pkts, err := c.worker.ResumeAt(p.JobID, p.Off)
		if err != nil {
			//switchml:allow hotpath -- cold error return: an unhonourable recovery frontier fails the call
			return false, fmt.Errorf("transport: resume at %d: %w", p.Off, err)
		}
		c.adoptEpoch(p.JobID)
		c.trace(telemetry.EvResume, -1)
		c.sendPackets(pkts)
		if c.worker.Busy() {
			c.mode = modeData
			return false, nil
		}
		return true, nil
	case packet.KindLeave:
		if c.mode != modeDrain {
			c.unexpected.Inc()
			return false, nil
		}
		c.drained = true
		c.trace(telemetry.EvWorkerLeave, -1)
		return true, nil
	case packet.KindAdoptJob:
		if c.mode != modeAdopt {
			c.unexpected.Inc()
		} else if p.Ver == 1 {
			// The echo: the rung is alive and collecting the roll call;
			// hold for the rest of the membership.
			c.echoed = true
		}
		return false, nil
	case packet.KindProbeAck:
		if pr := c.prob; c.mode != modeProbe {
			c.unexpected.Inc()
		} else if pr.Ack(p.Idx) {
			c.trace(telemetry.EvProbeAck, int32(p.Idx))
		}
		return false, nil
	case packet.KindResult, packet.KindResultUnicast:
		h := p.Header()
		c.cbuf = packet.AppendWire(c.cbuf[:0], &h, p.Vector)
		return c.handleResult(&h, c.cbuf[packet.WireLen(0):]), nil
	default:
		// Aggregators never send update/report/heartbeat kinds; count
		// the drop so a confused aggregator is visible.
		c.unexpected.Inc()
		return false, nil
	}
}

// isMember reports whether a membership vector includes this worker.
func (c *Client) isMember(vec []int32) bool { return slices.Contains(vec, int32(c.cfg.Worker.ID)) }

// evicted is the verdict on a membership directive: a worker absent
// from it has been declared failed, and since its updates will never
// be aggregated again, failing fast beats timing out.
func (c *Client) evicted(p *packet.Packet) error {
	if c.isMember(p.Vector) {
		return nil
	}
	//switchml:allow hotpath -- cold error return: an eviction ends the job for this worker
	return fmt.Errorf("transport: worker %d evicted from job (generation %d)", c.cfg.Worker.ID, p.JobID)
}

// send stages an update in the window block and stamps its slot
// timer with the pass's clock reading, consulting the fault injector.
// A verdict edits the block's tail in place: a drop truncates the
// segment away (the timer stays stamped — the packet was "lost on the
// wire", and the retransmission machinery is exactly what recovers
// it), a corruption mangles it, a duplicate stages it again. Injected
// or not, the bytes leave by the same route. A send failure surfaces
// at the next flushTx. The update's elements are read once, as they
// are encoded; neither s nor the worker's tensor is referenced after
// send returns.
//
//switchml:hotpath
func (c *Client) send(s *core.Send) {
	c.pump.Sent(s.Header.Idx, c.nowNs)
	start := c.stageTx(s)
	if c.inj != nil {
		switch c.inj.Judge() {
		case faults.Drop:
			c.txb = c.txb[:start]
		case faults.Corrupt:
			c.inj.Mangle(c.txb[start:])
		case faults.Duplicate:
			c.stageTx(s)
		}
	}
}

// sendPackets sends a window the worker built in packet form — the
// recovery paths (resume, adoption, failback, fence) use Resume and
// ResumeAt — and returns the packets to the pool.
func (c *Client) sendPackets(pkts []*packet.Packet) {
	for _, p := range pkts {
		s := core.Send{Header: p.Header(), Vec: p.Vector}
		c.send(&s)
		packet.PutPacket(p)
	}
}

// stageTx encodes s onto the tail of the window block, its elements
// straight from the worker's tensor, and returns the offset its segment
// starts at. Updates are equal-size in the steady state (every full
// chunk marshals to the same wire length), so the block flushes as one
// segment train; a size change or a full block flushes eagerly first.
//
//switchml:hotpath
func (c *Client) stageTx(s *core.Send) int {
	size := packet.WireLen(len(s.Vec))
	if c.txSeg != 0 && (size != c.txSeg || len(c.txb)+size > cap(c.txb)) {
		c.flushTxBlock()
	}
	c.txSeg = size
	start := len(c.txb)
	c.txb = packet.AppendWire(c.txb, &s.Header, s.Vec)
	return start
}

// flushTxBlock pushes the staged window block to the kernel as one
// segment train and counts its datagrams as sent, once for the block.
// netio may reference the block until Flush returns, so the reset
// happens after.
func (c *Client) flushTxBlock() {
	if len(c.txb) == 0 {
		return
	}
	c.sent.Add(uint64(len(c.txb) / c.txSeg))
	c.nc.AppendTrain(c.txb, c.txSeg, netip.AddrPort{})
	c.nc.Flush()
	c.txb = c.txb[:0]
	c.txSeg = 0
}

// flushTx drains the staged window and the staged mesh datagrams, and
// surfaces the first send error on the aggregator socket since the last
// flush (a failed mesh send is only counted: the mesh's own repetition
// repairs it). With a fallback armed, a provably-dead destination is
// death evidence for the silence clock rather than a caller error.
func (c *Client) flushTx() error {
	c.flushTxBlock()
	if c.fb != nil {
		c.fb.nc.Flush()
	}
	if err := c.stageErr; err != nil {
		c.stageErr = nil
		if c.canDegrade() && deadDestination(err) {
			return nil
		}
		return fmt.Errorf("transport: send: %w", err)
	}
	return nil
}

// deadDestination reports whether a datagram write failed because the
// destination is provably gone — an ICMP unreachable surfaced by the
// connected socket (the aggregator process died and the kernel
// rejects the port) — rather than a local socket error. With a
// fallback armed that is death evidence for the silence detector, not
// a caller error: the datagram counts as lost on the wire, and the
// no-progress clock delivers the degrade verdict.
//
//switchml:allow hotpath -- consulted only after a socket send has failed
func deadDestination(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EHOSTUNREACH) ||
		errors.Is(err, syscall.ENETUNREACH)
}

// sendCtl transmits one control datagram — a report or fence confirm,
// a join, a leave, an adoption request, a probe (idx carries its
// sequence number) — on conn, bypassing the fault injector: on a real
// network control loss is repaired by the handshakes' own repetition
// and the aggregator's sweep-period rebroadcast. A failed send is
// counted; a dead destination is forgiven when someone can take over
// (the silence clock and the modes' give-up rules decide), and any
// other failure fails the call.
func (c *Client) sendCtl(conn *net.UDPConn, kind packet.Kind, gen uint16, idx uint32, off uint64, ver uint8) error {
	p := packet.NewControl(kind, c.cfg.Worker.ID, gen, off, nil)
	p.Idx, p.Ver = idx, ver
	c.cbuf = p.AppendMarshal(c.cbuf[:0])
	if _, err := conn.Write(c.cbuf); err != nil {
		c.sendErrs.Inc()
		if c.canDegrade() && deadDestination(err) {
			return nil
		}
		//switchml:allow hotpath -- cold error return: a failed socket send fails the call
		return fmt.Errorf("transport: send: %w", err)
	}
	c.sent.Inc()
	return nil
}
