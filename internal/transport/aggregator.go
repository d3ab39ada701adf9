// Package transport runs the SwitchML protocol over real UDP
// sockets. It implements the paper's alternative deployment model
// (§6 "Deployment model"): a software "parameter aggregator" — the
// switch state machine of Algorithm 3 hosted on a server — plus the
// worker endpoint that streams tensors to it.
//
// The wire format is packet.Marshal; corrupted datagrams are dropped
// by the checksum, and loss is repaired by the worker-side
// retransmission timers exactly as on the programmable switch.
package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"switchml/internal/core"
	"switchml/internal/faults"
	"switchml/internal/netio"
	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// DefaultBatch is the burst ceiling of every shard loop and client
// window pump: deep enough to amortize the per-wakeup syscall cost,
// shallow enough that one burst's replies fit comfortably in socket
// buffers.
const DefaultBatch = 32

const (
	// minPoolSize is the smallest pool TunePoolSize selects: one receive
	// vector of coalesced trains, and the window every release before
	// the rule ran on.
	minPoolSize = 64
	// inflightBudget is what TunePoolSize lets a job keep in flight
	// toward one socket, in wire bytes. The pool-size sweep over loopback
	// (EXPERIMENTS.md "Figure 2", UDP rows) is flat from 512 slots a
	// worker and loses nothing up to 1,024 datagrams of 32 elements in
	// flight — 2 workers by 512, 4 by 256, 8 by 128 — on a socket whose
	// receive buffer was left at the stock 212,992 bytes; at 2,048 that
	// buffer overruns, every flow of the job having been steered to one
	// shard socket and the datagrams arriving as coalesced trains, the
	// cheapest form the kernel charges them in. The budget is the last
	// size that fit, half the first that did not: what a host that
	// grants no more than its default can carry. (Each endpoint asks for
	// its window's worth regardless — sizeSocket — since a datagram that
	// arrives on its own is charged five times what it is in a train.)
	inflightBudget = 160 << 10
)

// TunePoolSize is the pool size s an aggregator selects when none is
// configured, from the job's worker count and packet size: the largest
// power of two that keeps workers×s update datagrams of slotElems
// elements inside inflightBudget, and never less than minPoolSize.
// That is 512 for 2 workers of 32-element packets, 256 for 4, 128 for 8
// — the paper's choice at 10 Gbps — and 64 from 9 workers up; at the
// packet size TuneShape selects it is 64 for every worker count.
//
// It is §3.6's tuning rule on this substrate's inputs. The pool must
// cover the path's bandwidth-delay product or the workers idle (Fig. 2's
// rising edge), and past that more slots buy nothing. rack.TunePoolSize
// computes the product from a simulated link's rate and latency; over
// loopback sockets the "delay" is syscalls, wake-ups and the three
// actors waiting on each other in lock-step, which grows with the
// window until the receive buffer bounds it, so the rule starts from
// that bound instead.
func TunePoolSize(workers, slotElems int) int {
	perSlot := max(workers, 1) * packet.WireLen(max(slotElems, 1)) // in flight per slot of the pool
	s := minPoolSize
	for 2*s*perSlot <= inflightBudget {
		s *= 2
	}
	return s
}

const (
	// frameMTU and ipUDPHeaders bound an update datagram to one
	// 1,500-byte Ethernet frame under IPv6's 40 header bytes and UDP's 8
	// (IPv4's 20 leave more): the paper's MTU row (Fig. 7), and nothing
	// fragments once the path leaves loopback.
	frameMTU, ipUDPHeaders = 1500, 40 + 8
	// elemAlign is the codec's eight-wide pass: k a multiple of it runs
	// no scalar tail.
	elemAlign = 8
)

// TuneShape is the packet size k an aggregator selects when none is
// configured, from Workers alone: the largest multiple of
// elemAlign that is at least packet.DefaultElems, keeps an update
// datagram inside one frame (frameMTU), and keeps workers×minPoolSize
// such datagrams inside inflightBudget. That is k = 352 for 1 worker,
// 312 for 2, 152 for 4, 72 for 8 and 32 from 16 up; TunePoolSize gives
// each of them s = 64.
//
// A software aggregator has no ALU budget: k = 32 is the Tofino's
// (§5.5), and rack, p4sim and hier keep it. On sockets nearly all of a
// datagram's cost is paid per datagram — the syscall share, the
// checksum call, the aggregator's ingress, the worker's pump — so the
// window's bytes stay where TunePoolSize's budget put them and the
// datagram count falls instead. The budget binds from 2 workers up,
// the frame below.
func TuneShape(workers int) int {
	frame := (frameMTU - ipUDPHeaders - packet.WireLen(0)) / packet.ElemBytes
	window := (inflightBudget/(max(workers, 1)*minPoolSize) - packet.WireLen(0)) / packet.ElemBytes
	return max(min(frame, window)&^(elemAlign-1), packet.DefaultElems)
}

// fillShape fills a pool's zero k and s by the rules, the tuned s
// shared among shards (at least one slot each). Only the aggregator
// decides the shape: a worker adopts it at dial (Client.hello).
func fillShape(c *core.SwitchConfig, shards int) {
	if c.SlotElems == 0 {
		c.SlotElems = TuneShape(c.Workers)
	}
	if c.PoolSize == 0 {
		c.PoolSize = max(TunePoolSize(c.Workers, c.SlotElems)/shards, 1)
	}
}

// BatchOccupancyBuckets bound the batch-occupancy histograms:
// datagrams drained per receive wakeup, up to the two workers' tuned
// windows landing on one shard in one burst and beyond.
var BatchOccupancyBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// AggregatorConfig configures a software aggregator.
type AggregatorConfig struct {
	// Addr is the UDP listen address, e.g. "127.0.0.1:5555" or
	// ":5555".
	Addr string
	// Switch is the aggregation pool configuration; LossRecovery
	// should be true on any real network. A zero PoolSize or SlotElems
	// selects the tuned one (fillShape). A nil Switch.Now selects the
	// aggregator's burst clock: wall-clock nanoseconds read once per
	// receive wakeup by each shard, so slot start times and switch
	// trace events resolve to a burst (tens of microseconds), and a
	// packet costs no clock read of its own.
	Switch core.SwitchConfig
	// Shards is the number of receive goroutines draining the socket,
	// the software analogue of the paper's Flow Director steering
	// (Appendix B: "every CPU core ... uses a disjoint set of
	// aggregation slots"). Zero selects 4. Each shard owns its own
	// SO_REUSEPORT socket where the platform allows, so the kernel
	// itself steers each worker flow to exactly one shard; otherwise
	// the shards share one socket. Per-slot locking inside the sharded
	// switch keeps concurrent handling correct no matter which
	// goroutine a packet lands on. Each shard reads up to DefaultBatch
	// datagrams per wakeup (one recvmmsg on Linux, one datagram per
	// syscall in netio's portable mode), runs every packet to
	// completion, and flushes all replies in one batched send — equal-
	// size result multicasts ride UDP segmentation-offload trains where
	// the kernel supports them.
	Shards int
	// DropResult, when non-nil, is consulted before each result send
	// with the result's header, and drops the result when it returns
	// true. It exists for loss testing on loopback networks that never
	// drop. The header is only valid for the duration of the call.
	DropResult func(h *packet.Header) bool
	// Liveness, when non-nil, enables the failure detector: silent
	// workers are evicted and the survivors are resumed under a new job
	// generation (§5.6). It is also the prerequisite for elastic
	// membership — graceful join and leave need the tracker's
	// draining/departed bookkeeping.
	Liveness *LivenessConfig
	// Absent lists worker ids outside the initial membership: slots
	// reserved in the worker universe (Switch.Workers) for hosts that
	// will join later through the graceful-join fence. Requires
	// Liveness.
	Absent []int
	// Inject, when non-nil, applies seeded loss, duplication and
	// corruption to outgoing result datagrams — chaos testing on
	// loopback networks that never misbehave. Verdicts are drawn per
	// (peer, datagram) as results are staged and flushed, so an
	// injected run uses the same I/O path as a clean one. Control
	// datagrams (reconfig/resume) are sent clean; on a real network
	// they are protected by the sweep-period rebroadcast instead.
	Inject *faults.InjectorConfig
	// Metrics receives the aggregator's counters (datagram traffic and
	// the switch protocol counters). Nil allocates a private registry,
	// available through Registry.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, observes protocol events stamped with
	// wall-clock nanoseconds.
	Tracer telemetry.Tracer
}

// Aggregator is a UDP server hosting one job's aggregation pool (or
// several: NewMultiAggregator). It learns worker addresses from the
// source of their update packets, so no registration step is needed; a
// worker must send before it can receive, which the protocol guarantees.
//
// N shard goroutines drain the socket concurrently; each owns its
// receive buffer, decoded header and wire buffers, so the steady-state
// datagram path performs no heap allocation. Worker
// addresses live in an atomic table (compare-before-store keeps the
// common case write-free), the liveness tracker is internally atomic,
// and the recovery state machine — the only cross-shard state — is
// guarded by mu and touched only on control traffic.
type Aggregator struct {
	cfg AggregatorConfig
	// conns are every socket bound to the listen address: one, or one
	// SO_REUSEPORT socket per shard where the platform allows. The
	// control plane sends on conns[0].
	conns []*net.UDPConn
	reg   *telemetry.Registry

	// job is the one job of an aggregator built by NewAggregator, which
	// every datagram routes to whatever its JobID (the generation); the
	// control plane and the single-job-only Stats, Epoch, Alive,
	// DebugState and Reset act on it. It is nil on a multi-job one.
	job  *job
	jobs atomic.Pointer[jobTable]

	recvd, corrupt, sent *telemetry.Counter
	// unexpected counts well-formed datagrams whose kind the serve
	// loops do not dispatch (workers never originate result/reconfig/
	// resume kinds); a nonzero value means a peer is confused or a new
	// kind is missing its arm.
	unexpected *telemetry.Counter
	// rcvDrops counts datagrams the kernel dropped at a full receive
	// buffer (netio.Conn.RcvbufDrops, summed over the shard sockets): a
	// window larger than the buffer holds, rather than a lossy path.
	// beyondPool counts updates for a slot index the pool does not have
	// — from a worker that took no shape from the dial hello, since the
	// hello refuses a larger pool. bufs is what the sockets were sized
	// to (the least grant among them).
	rcvDrops, beyondPool *telemetry.Counter
	bufs                 sockBuffers
	// sendErrs counts result/control datagrams whose socket send
	// failed. UDP stays best-effort — the protocol's loss recovery
	// owns repair — but a non-zero rate points at dead routes or
	// misconfiguration, so it is surfaced instead of discarded.
	sendErrs *telemetry.Counter
	// shardCtrs[i] counts datagrams drained by shard i, the load view
	// switchml-top derives shard balance from.
	shardCtrs []*telemetry.Counter
	// shardOcc[i] observes shard i's burst occupancy (datagrams per
	// recv wakeup); its quantiles tell how full the batch pipeline
	// actually runs.
	shardOcc []*telemetry.Histogram

	inj *faults.PacketInjector

	// clock is the wall clock; every shard reads it once per receive
	// wakeup into coarse (nanoseconds), the burst clock the switch
	// (cfg.Switch.Now) and the liveness tracker's touches read instead
	// of paying a clock read per datagram. Tests substitute clock to
	// count reads.
	clock  func() time.Time
	coarse *atomic.Int64

	// down simulates the aggregation program dying while the host and
	// its address stay up: every datagram is silently discarded, so
	// workers see pure silence — the failure mode the client-side
	// fallback detects. Toggled by SetDown from chaos tests.
	down atomic.Bool

	mu sync.Mutex // guards the control plane below, lv's bookkeeping and job-table swaps
	lv *liveness  // nil unless cfg.Liveness is set

	// The control plane (rollcall.go). evict, join and adopt are the
	// open roll calls — a §5.6 eviction and an elastic join need lv, a
	// warm-standby adoption does not — and cbuf the buffer their
	// directives and releases are marshalled into, all guarded by mu.
	// rel is the last release, which the shard loops read lock-free to
	// repair one that was lost. adoptions counts committed adoptions.
	evict, join, adopt *rollCall
	cbuf               []byte
	rel                atomic.Pointer[release]
	adoptions          *telemetry.Counter

	// sncs collects the shards' socket views for introspection (I/O
	// mode, burst ceiling, transient-send retry totals), one per shard.
	sncs []*netio.Conn

	wg     sync.WaitGroup
	closed chan struct{}
}

// job is one pool the aggregator serves: what the data path reads for
// a datagram routed to it. peers is the learned worker address table,
// indexed by worker id and written at most once per address change;
// pool is s. epoch is the generation, read lock-free per packet and
// written under mu by recovery — never, on a multi-job aggregator,
// where it stays the job id.
type job struct {
	sw    *core.ShardedSwitch
	peers []atomic.Pointer[netip.AddrPort]
	pool  int
	epoch atomic.Uint32
	// maxReply is the wire length of the largest reply the pool sends,
	// a result of k elements: the room a shard's block keeps for one.
	maxReply int
}

func newJob(sw *core.ShardedSwitch) *job {
	cfg := sw.Config()
	j := &job{sw: sw, peers: make([]atomic.Pointer[netip.AddrPort], cfg.Workers), pool: cfg.PoolSize, maxReply: packet.WireLen(cfg.SlotElems)}
	j.epoch.Store(uint32(cfg.JobID))
	return j
}

func (j *job) gen() uint16 { return uint16(j.epoch.Load()) }

// setPeer records the worker's address, writing only on change so
// the steady-state path stays read-only and allocation-free.
func (j *job) setPeer(w uint16, src netip.AddrPort) {
	if cur := j.peers[w].Load(); cur != nil && *cur == src {
		return
	}
	ap := src
	j.peers[w].Store(&ap)
}

// jobTable is a multi-job aggregator's routing table, replaced whole
// under mu and read without a lock; block is the multicast block the
// largest admitted pool needs.
type jobTable struct {
	byID  map[uint16]*job
	block int
}

// aggShard is one receive goroutine's private working set: with it,
// the datagram-in/datagrams-out cycle touches no shared mutable
// memory beyond the slot being aggregated.
type aggShard struct {
	hdr     packet.Header // the request's header; its elements stay in the receive buffer
	job     *job          // the job hdr routes to
	ctrl    []byte        // marshalled one-off control reply
	mangled []byte        // injector corruption scratch
	// datagrams is this shard's share of the drain load (atomic; one
	// captured pointer, so counting stays allocation-free).
	datagrams *telemetry.Counter

	// nc is the shard's socket view; occ its burst-occupancy histogram.
	// block accumulates the burst's equal-size multicast results, each
	// written into it by the switch straight from the slot's registers,
	// so one flush sends the same bytes to every peer as a segment train
	// (the completed results of a burst are identical for all workers,
	// so the block is built once and addressed W times).
	// blockJob is the job whose results the block holds: it goes to that
	// job's peers only. staged counts the datagrams handed to nc since
	// the last flush, added to the sent counter once per flush.
	nc       *netio.Conn
	occ      *telemetry.Histogram
	block    []byte
	blockSeg int
	blockJob *job
	staged   uint64
	// drops is nc's receive-buffer drop count as last folded into the
	// aggregator's counter.
	drops uint64
}

// NewAggregator binds the socket(s) and starts the serving
// goroutines.
func NewAggregator(cfg AggregatorConfig) (*Aggregator, error) {
	return newAggregator(cfg, time.Now)
}

// newAggregator is NewAggregator over a given wall clock, which has to
// be in place before the shard goroutines start.
func newAggregator(cfg AggregatorConfig, clock func() time.Time) (*Aggregator, error) {
	fillShape(&cfg.Switch, 1)
	a := newServer(cfg, clock)
	sc := cfg.Switch
	sc.Metrics, sc.Tracer = a.reg, cfg.Tracer
	if sc.Now == nil {
		sc.Now = a.coarse.Load
	}
	sw, err := core.NewShardedSwitch(sc)
	if err != nil {
		return nil, err
	}
	a.job = newJob(sw)
	if cfg.Inject != nil {
		if a.inj, err = faults.NewPacketInjector(*cfg.Inject); err != nil {
			return nil, err
		}
	}
	if len(cfg.Absent) > 0 && cfg.Liveness == nil {
		return nil, fmt.Errorf("transport: Absent workers need Liveness (elastic membership rides on the failure detector)")
	}
	if cfg.Liveness != nil {
		lc := *cfg.Liveness
		lc.fillDefaults()
		a.lv = &liveness{
			cfg:       lc,
			tracker:   faults.NewTracker(sc.Workers, int64(lc.SilenceAfter)),
			leavePend: make([]bool, sc.Workers),
			leaveOff:  make([]uint64, sc.Workers),
			maxOff:    make([]atomic.Uint64, sc.Workers),
		}
		if len(cfg.Absent) > 0 {
			active := make([]bool, sc.Workers)
			for i := range active {
				active[i] = true
			}
			for _, w := range cfg.Absent {
				if w < 0 || w >= sc.Workers {
					return nil, fmt.Errorf("transport: absent worker %d out of range [0,%d)", w, sc.Workers)
				}
				// Departed, not dead: the slot is empty by intent, and
				// the graceful-join fence is how it gets filled.
				a.lv.tracker.MarkDeparted(w)
				active[w] = false
			}
			if err := sw.Reconfigure(active, sc.JobID); err != nil {
				return nil, err
			}
		}
	}
	// One burst can complete every slot of the pool: the block holds
	// them all, so they leave in one flush. Every worker's whole window
	// can be in flight toward one socket: the kernel's flow hash may
	// steer them all to the same shard.
	k := sc.SlotElems
	if err := a.listen(aggWireMTU(k), max(DefaultBatch, sc.PoolSize)*packet.WireLen(k), windowBytes(sc.Workers*sc.PoolSize, k)); err != nil {
		return nil, err
	}
	if a.lv != nil {
		a.wg.Add(1)
		go a.sweepLoop()
	}
	return a, nil
}

// newServer builds the job-independent half of an aggregator: registry,
// counters and burst clock, no socket yet.
func newServer(cfg AggregatorConfig, clock func() time.Time) *Aggregator {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	a := &Aggregator{
		cfg:        cfg,
		reg:        reg,
		clock:      clock,
		coarse:     new(atomic.Int64),
		recvd:      reg.Counter("udp_datagrams_received_total", "role", "aggregator"),
		corrupt:    reg.Counter("udp_datagrams_corrupted_total", "role", "aggregator"),
		sent:       reg.Counter("udp_datagrams_sent_total", "role", "aggregator"),
		sendErrs:   reg.Counter("udp_send_errors_total", "role", "aggregator"),
		unexpected: reg.Counter("udp_unexpected_kind_total", "role", "aggregator"),
		rcvDrops:   reg.Counter("udp_rcvbuf_drops_total", "role", "aggregator"),
		beyondPool: reg.Counter("udp_updates_beyond_pool_total", "role", "aggregator"),
		adoptions:  reg.Counter("failover_adoptions_total", "role", "aggregator"),
		closed:     make(chan struct{}),
	}
	a.coarse.Store(clock().UnixNano())
	return a
}

// listen binds the listen address, asks every socket for need bytes of
// buffer, and starts the shard loops over views of mtu-byte datagrams,
// each with a multicast block of the given capacity.
func (a *Aggregator) listen(mtu, block, need int) error {
	conns, err := bindAggSockets(a.cfg.Addr, a.cfg.Shards)
	if err != nil {
		return err
	}
	a.conns = conns
	a.sizeSockets(need)
	for i := 0; i < a.cfg.Shards; i++ {
		nc, err := netio.Wrap(conns[i%len(conns)], netio.Config{
			Batch:       DefaultBatch,
			MTU:         mtu,
			OnSendError: func(err error, n int) { a.sendErrs.Add(uint64(n)) },
		})
		if err != nil {
			// A socket that cannot even expose its fd is broken; stop the
			// shards already serving before returning.
			a.Close()
			return err
		}
		shard := fmt.Sprint(i)
		sh := &aggShard{
			datagrams: a.reg.Counter("agg_shard_datagrams_total", "shard", shard),
			mangled:   make([]byte, 0, mtu),
			nc:        nc,
			occ:       a.reg.Histogram("agg_batch_occupancy", BatchOccupancyBuckets, "shard", shard),
			block:     make([]byte, 0, block),
		}
		a.sncs, a.shardCtrs, a.shardOcc = append(a.sncs, nc), append(a.shardCtrs, sh.datagrams), append(a.shardOcc, sh.occ)
		a.wg.Add(1)
		go a.serve(sh)
	}
	return nil
}

// sizeSockets sizes every shard socket for need bytes each way and
// records the least grant.
func (a *Aggregator) sizeSockets(need int) {
	for i, conn := range a.conns {
		if b := sizeSocket(conn, need); i == 0 || b.rcv < a.bufs.rcv {
			a.bufs = b
		}
	}
}

// aggWireMTU sizes shard arenas from the largest result packet the
// pool can emit, plus wireSlack bytes.
func aggWireMTU(slotElems int) int {
	return max(packet.WireLen(slotElems)+wireSlack, 2048)
}

// jobMTU is the largest datagram a multi-job aggregator carries: its
// shard views exist before any job does, so they are sized for a jumbo
// frame, and AdmitJob refuses packets of more than maxJobElems.
const jobMTU, wireSlack = 9216, 16

var maxJobElems = (jobMTU - wireSlack - packet.WireLen(0)) / packet.ElemBytes

// closeAll releases every bound socket.
func closeAll(conns []*net.UDPConn) {
	for _, c := range conns {
		c.Close()
	}
}

// bindAggSockets binds the listen address. With more than one shard it
// tries one SO_REUSEPORT socket per shard first — the kernel then
// steers each worker flow to exactly one shard socket, the closest
// software analogue of NIC receive-side steering — and falls back to a
// single shared socket where REUSEPORT is unavailable.
func bindAggSockets(addr string, shards int) ([]*net.UDPConn, error) {
	if shards > 1 {
		lc := net.ListenConfig{Control: netio.ControlReusePort}
		if pc, err := lc.ListenPacket(context.Background(), "udp", addr); err == nil {
			conns := []*net.UDPConn{pc.(*net.UDPConn)}
			bound := conns[0].LocalAddr().String()
			ok := true
			for i := 1; i < shards; i++ {
				extra, err := lc.ListenPacket(context.Background(), "udp", bound)
				if err != nil {
					ok = false
					break
				}
				conns = append(conns, extra.(*net.UDPConn))
			}
			if ok {
				return conns, nil
			}
			closeAll(conns)
		}
	}
	ra, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ra)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	return []*net.UDPConn{conn}, nil
}

// Addr returns the bound listen address (useful with ":0").
func (a *Aggregator) Addr() *net.UDPAddr { return a.conns[0].LocalAddr().(*net.UDPAddr) }

// Registry returns the metrics registry backing this aggregator's
// counters — the one from the config, or the private registry
// allocated when none was supplied.
func (a *Aggregator) Registry() *telemetry.Registry { return a.reg }

// Config returns the served pool's configuration, its shape filled in.
func (a *Aggregator) Config() core.SwitchConfig { return a.job.sw.Config() }

// Stats returns the switch state machine counters. The counters are
// atomic, so this is safe to call concurrently with the serving
// goroutines — no lock is taken and packet handling is never stalled
// by monitoring reads.
func (a *Aggregator) Stats() core.SwitchStats { return a.job.sw.Stats() }

// Close shuts the server down and waits for the serving goroutines.
func (a *Aggregator) Close() error {
	select {
	case <-a.closed:
		return nil
	default:
	}
	close(a.closed)
	err := a.conns[0].Close()
	for _, c := range a.conns[1:] {
		c.Close()
	}
	a.wg.Wait()
	return err
}

// serve is one shard's run-to-completion loop — the software analogue
// of one pipeline of the switch: up to DefaultBatch datagrams drained
// per wakeup (one recvmmsg on Linux, with GRO coalescing where the
// kernel offers it; one datagram in netio's portable mode), every
// packet run to completion against the shard's private arena with zero
// channel hops — only its header decoded, its elements read where they
// lie — and all replies flushed in one batched send — the
// burst's equal-size multicast results riding a single
// segmentation-offload train per peer. Control handlers (join/leave/
// report/heartbeat) send immediately on the control socket; only the
// update/result path and in-loop replies are staged. All per-packet
// storage belongs to the shard, so the steady-state cycle is
// allocation-free.
func (a *Aggregator) serve(sh *aggShard) {
	defer a.wg.Done()
	for {
		n, err := sh.nc.Recv()
		if err != nil {
			select {
			case <-a.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue // transient error: keep serving
		}
		a.coarse.Store(a.clock().UnixNano())
		sh.occ.Observe(float64(n))
		a.recvd.Add(uint64(n))
		sh.datagrams.Add(uint64(n))
		foldRcvbufDrops(sh.nc, &sh.drops, a.rcvDrops)
		if a.down.Load() {
			continue // the aggregation program is "dead": pure silence
		}
		tab := a.jobs.Load() // nil on a single-job aggregator
		if tab != nil && cap(sh.block) < tab.block {
			sh.block = make([]byte, 0, tab.block) // a larger pool was admitted
		}
		for i := 0; i < n; i++ {
			m := &sh.nc.Msgs[i]
			payload, err := packet.ParseHeader(&sh.hdr, m.Buf)
			if err != nil {
				a.corrupt.Inc()
				continue // corrupted datagram: drop (§3.4)
			}
			j := a.job
			if j == nil {
				j = tab.byID[sh.hdr.JobID] // several jobs: JobID names the job
			}
			if sh.hdr.Kind != packet.KindProbe && (j == nil || int(sh.hdr.WorkerID) >= len(j.peers)) {
				continue // no such job or worker; handleProbe answers or drops a probe
			}
			sh.job = j
			//switchml:dispatch
			switch sh.hdr.Kind {
			case packet.KindUpdate:
				a.handleUpdate(sh, payload, m.Addr)
			case packet.KindHeartbeat:
				a.touch(&sh.hdr, m.Addr)
			case packet.KindReport:
				a.handleReport(sh, m.Addr)
			case packet.KindProbe:
				a.handleProbe(sh, m.Addr)
			case packet.KindJoin:
				a.handleJoin(sh, m.Addr)
			case packet.KindLeave:
				a.handleLeave(sh, m.Addr)
			case packet.KindAdoptJob:
				a.handleAdopt(sh, m.Addr)
			default:
				// Workers never originate result/reconfig/resume kinds;
				// count the drop so a confused peer is visible.
				a.unexpected.Inc()
			}
		}
		a.flushShard(sh)
	}
}

// stageMulticast keeps the multicast result the switch just wrote at
// block[start:] on the burst's block. Completed slot results are
// byte-identical for every worker of a job, so the shard builds the
// block once and flushShard addresses it to each of the job's peers as
// one segment train. A result of another job or another size cannot
// ride the block's train: the block before it is flushed first and the
// result moved to the front — correctness never depends on the burst
// boundary.
//
//switchml:hotpath
func (a *Aggregator) stageMulticast(sh *aggShard, start int) {
	size := len(sh.block) - start
	if sh.blockSeg != 0 && (sh.blockJob != sh.job || sh.blockSeg != size) {
		seg := sh.block[start:]
		sh.block = sh.block[:start]
		a.flushShard(sh)
		// A move within the block's storage, which the flush left
		// untouched past start.
		sh.block = sh.block[:size]
		copy(sh.block, seg)
	}
	sh.blockJob, sh.blockSeg = sh.job, size
}

// flushShard fans the accumulated multicast block out to every known
// peer of its job as a segment train and pushes all staged datagrams
// to the kernel in one batched send.
//
//switchml:hotpath
func (a *Aggregator) flushShard(sh *aggShard) {
	if len(sh.block) > 0 {
		peers := sh.blockJob.peers
		for i := range peers {
			ap := peers[i].Load()
			if ap == nil {
				continue
			}
			if a.inj != nil {
				a.trainInjected(sh, *ap)
				continue
			}
			sh.nc.AppendTrain(sh.block, sh.blockSeg, *ap)
			sh.staged += uint64(len(sh.block) / sh.blockSeg)
		}
	}
	if sh.staged != 0 {
		a.sent.Add(sh.staged)
		sh.staged = 0
	}
	sh.nc.Flush()
	// Reset only after Flush returns: in GSO mode the staged train
	// sends directly from sh.block's storage, so the block must stay
	// untouched until the kernel has copied it out.
	sh.block = sh.block[:0]
	sh.blockSeg = 0
}

// trainInjected addresses the shard block to one peer under the fault
// injector. Every segment draws its own verdict, and the block leaves
// as the contiguous runs between the segments that are not delivered
// intact — each run still a zero-copy train from the block's storage.
// A corrupted segment goes out as a mangled copy, a duplicated one
// stays in its run and is followed by one extra copy.
//
//switchml:hotpath
func (a *Aggregator) trainInjected(sh *aggShard, peer netip.AddrPort) {
	seg := sh.blockSeg
	run := 0 // start of the current intact run
	for off := 0; off+seg <= len(sh.block); off += seg {
		switch a.inj.Judge() {
		case faults.Pass:
			continue
		case faults.Duplicate:
			sh.nc.AppendTo(sh.block[off:off+seg], peer)
			sh.staged++
			continue
		case faults.Corrupt:
			sh.nc.AppendTo(a.mangle(sh, sh.block[off:off+seg]), peer)
			sh.staged++
		}
		sh.nc.AppendTrain(sh.block[run:off], seg, peer)
		sh.staged += uint64((off - run) / seg)
		run = off + seg
	}
	sh.nc.AppendTrain(sh.block[run:], seg, peer)
	sh.staged += uint64((len(sh.block) - run) / seg)
}

// reply stages a control datagram back to a packet's source on the
// shard's socket for the burst's flush. AppendTo copies the payload,
// so the shard's ctrl scratch can be reused immediately.
func (a *Aggregator) reply(sh *aggShard, wire []byte, to netip.AddrPort) {
	sh.nc.AppendTo(wire, to)
	sh.staged++
}

// writeCtrl sends one control datagram on the shared socket. Failures
// are counted, not retried: UDP control traffic is already protected
// by the sweep-period rebroadcast and worker retransmission.
func (a *Aggregator) writeCtrl(wire []byte, to netip.AddrPort) {
	if _, err := a.conns[0].WriteToUDPAddrPort(wire, to); err != nil {
		a.sendErrs.Inc()
		return
	}
	a.sent.Inc()
}

// handleUpdate feeds one model-update into the pool: sh.hdr is its
// header and payload its elements, still in the receive buffer. With a
// liveness detector attached it also polices membership: traffic from
// a retired worker is answered with the reconfigure directive (so a
// merely-slow worker learns it was evicted and can fail fast), and
// traffic from a live worker under another generation than the last
// release's means that release was lost — it is re-sent instead of
// feeding the pool. The clean path — touch the tracker, aggregate from
// the payload, and take the result the switch wrote onto the shard's
// block — takes no lock beyond the packet's slot and reads no clock:
// liveness and the switch stamp from the burst clock, and the release
// is read lock-free.
//
//switchml:hotpath
func (a *Aggregator) handleUpdate(sh *aggShard, payload []byte, src netip.AddrPort) {
	h, j := &sh.hdr, sh.job
	w := int(h.WorkerID)
	if a.lv != nil {
		if a.lv.tracker.Dead(w) {
			a.mu.Lock()
			vec := a.membersLocked(-1)
			a.mu.Unlock()
			sh.ctrl = packet.NewControl(packet.KindReconfig, h.WorkerID, j.gen(), 0, vec).AppendMarshal(sh.ctrl[:0])
			a.reply(sh, sh.ctrl, src)
			return
		}
		a.lv.tracker.Touch(w, a.coarse.Load())
		if a.lv.leaveArmed.Load() {
			// A drain is pending: this update is the progress evidence
			// its commit waits on (elastic.go).
			a.lv.bumpMaxOff(w, h.Off)
		}
		if r := a.rel.Load(); r != nil && h.JobID != r.gen {
			a.rerelease(sh, src)
			return
		}
	}
	j.setPeer(h.WorkerID, src)
	if int(h.Idx) >= j.pool {
		a.beyondPool.Inc() // and the switch rejects it
	}
	// The switch appends its reply to the block; room for the largest
	// one the pool can send is made first, so the append never grows it.
	if len(sh.block)+j.maxReply > cap(sh.block) {
		a.flushShard(sh)
	}
	start := len(sh.block)
	var multicast bool
	sh.block, multicast = j.sw.HandleWire(h, payload, sh.block)
	if len(sh.block) == start {
		return
	}
	if a.cfg.DropResult != nil && a.dropResult(sh.block[start:]) {
		sh.block = sh.block[:start]
		return
	}
	if multicast {
		a.stageMulticast(sh, start)
		return
	}
	// Off the block: a unicast repair, staged by copy before anything
	// else is appended where it lies.
	wire := sh.block[start:]
	sh.block = sh.block[:start]
	if ap := j.peers[h.WorkerID].Load(); ap != nil {
		a.write(sh, wire, *ap)
	}
}

// dropResult asks cfg.DropResult about the result datagram wire.
func (a *Aggregator) dropResult(wire []byte) bool {
	var h packet.Header
	if _, err := packet.ParseHeader(&h, wire); err != nil {
		return false
	}
	return a.cfg.DropResult(&h)
}

// handleProbe answers a probe. A hello (Ver 1) is a worker dialing: the
// ack carries the job's s, k and n (Client.hello), and answering only
// reads — no member, generation or liveness clock moves.
//
// Any other probe is a degraded worker asking whether the aggregator
// is back. It carries the generation the workers will fail back under;
// seeing a newer generation than our own means an outage happened
// (possibly a restart that lost the bump), so the pool is wiped under
// the proposed generation before answering — the fence that keeps
// anything aggregated before the outage from leaking into post-failback
// slots. The ack echoes the probe sequence so the worker can match it
// to its probation window. A multi-job aggregator drops these: the
// generation + 1 one proposes is another job's id.
func (a *Aggregator) handleProbe(sh *aggShard, src netip.AddrPort) {
	p, j := &sh.hdr, sh.job
	var shape []int32
	switch {
	case p.Ver == 1 && j == nil:
		// A hello for a job never admitted: the ack without a shape fails
		// the dial with ErrShape at once, not after the dial's timeout.
	case p.Ver == 1:
		c := j.sw.Config()
		shape = []int32{int32(j.pool), int32(c.SlotElems), int32(c.Workers)}
	case a.job == nil || int(p.WorkerID) >= len(j.peers):
		return
	default:
		if a.lv != nil {
			if a.lv.tracker.Dead(int(p.WorkerID)) {
				return
			}
			// Probes are liveness: a worker on the mesh is silent on the
			// update path but very much alive.
			a.lv.tracker.Touch(int(p.WorkerID), a.coarse.Load())
		}
		j.setPeer(p.WorkerID, src)
		if int16(p.JobID-j.gen()) > 0 {
			a.mu.Lock()
			if int16(p.JobID-j.gen()) > 0 {
				_ = a.installLocked(nil, p.JobID) // keeping the membership cannot fail
			}
			a.mu.Unlock()
		}
	}
	gen := p.JobID
	if j != nil {
		gen = j.gen()
	}
	ack := packet.NewControl(packet.KindProbeAck, p.WorkerID, gen, 0, shape)
	ack.Idx, ack.Ver = p.Idx, p.Ver
	sh.ctrl = ack.AppendMarshal(sh.ctrl[:0])
	a.reply(sh, sh.ctrl, src)
}

// SetDown "kills" (or revives) the aggregation program while the
// socket stays bound: every inbound datagram is silently discarded,
// exactly what workers observe when the switch program dies under a
// live crossbar. Chaos tests drive it; revival needs no state reset —
// the probe fence wipes the pool under a fresh generation before any
// worker fails back.
func (a *Aggregator) SetDown(down bool) { a.down.Store(down) }

// write stages one marshalled result datagram to one peer on the
// shard's socket, consulting the fault injector.
func (a *Aggregator) write(sh *aggShard, wire []byte, peer netip.AddrPort) {
	out, copies := wire, 1
	if a.inj != nil {
		switch a.inj.Judge() {
		case faults.Drop:
			return
		case faults.Corrupt:
			out = a.mangle(sh, out)
		case faults.Duplicate:
			copies = 2
		}
	}
	for i := 0; i < copies; i++ {
		sh.nc.AppendTo(out, peer)
		sh.staged++
	}
}

// mangle returns a corrupted shard-local copy of wire: the original may
// be a segment of the multicast block, shared across peers, and must
// stay intact.
//
//switchml:hotpath
func (a *Aggregator) mangle(sh *aggShard, wire []byte) []byte {
	sh.mangled = append(sh.mangled[:0], wire...) //switchml:allow hotpath -- append into a :0 re-slice preallocated to the wire MTU
	a.inj.Mangle(sh.mangled)
	return sh.mangled
}

// Reset clears the aggregation pools and forgets worker addresses,
// preparing the aggregator for a restarted job (§3.2: worker failures
// are handled by the framework restarting the job). In-flight
// datagrams from the dead job are rejected by the fresh state.
func (a *Aggregator) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.job.sw.Reset()
	for i := range a.job.peers {
		a.job.peers[i].Store(nil)
	}
	a.evict, a.join, a.adopt = nil, nil, nil
	a.rel.Store(nil)
	if a.lv != nil {
		// Back to "never seen" for every worker, so a host that does
		// not rejoin the restarted job is simply ignored rather than
		// suspected.
		a.lv.tracker.Reset()
		for i := range a.lv.leavePend {
			a.lv.leavePend[i] = false
			a.lv.leaveOff[i] = 0
			a.lv.maxOff[i].Store(0)
		}
		a.lv.leaveArmed.Store(false)
	}
}
