package switchml

import (
	"errors"
	"fmt"
	"time"

	"switchml/internal/core"
	"switchml/internal/quant"
	"switchml/internal/telemetry"
	"switchml/internal/transport"
)

// This file exposes the real-network deployment: a software
// "parameter aggregator" (the paper's §6 alternative deployment
// model) and worker clients, both speaking the SwitchML wire format
// over UDP.

// Aggregator is a UDP software aggregator hosting one job's pool.
type Aggregator struct {
	inner      *transport.Aggregator
	rec        *telemetry.FlightRecorder
	debugClose func() error
}

// AggregatorParams configures ListenAggregator.
type AggregatorParams struct {
	// Workers is n; every slot completes after n contributions.
	Workers int
	// PoolSize is s, the slots of the pool and so the window each worker
	// keeps in flight. Zero selects the tuned size — §3.6's rule on this
	// transport: the largest power of two that keeps Workers×s datagrams
	// of SlotElems elements inside what a stock socket buffer carries,
	// and never under 64. At the tuned SlotElems that is 64 (DESIGN.md
	// "Pool size s vs BDP"); at k = 32 it is 512 for 2 workers, 256 for
	// 4, 128 for 8 and 64 from 9 up. Workers are told it when they dial.
	PoolSize int
	// SlotElems is k, the elements a packet carries. Zero selects the
	// tuned size (transport.TuneShape): the largest multiple of 8 whose
	// update datagram fits one 1,500-byte Ethernet frame and of which
	// Workers×64 datagrams fit the same budget — 352 for 1 worker, 312
	// for 2, 152 for 4, 72 for 8, and the Tofino's 32 from 16 up.
	// Workers are told it when they dial.
	SlotElems int
	// JobID tags the pool for multi-tenancy.
	JobID uint16
	// Liveness, when non-nil, enables the failure detector: silent
	// workers are evicted and survivors are resumed from the global
	// progress frontier under a new job generation (§5.6). Idle
	// workers should send heartbeats (PeerParams.Heartbeat). It is
	// also the prerequisite for elastic membership (Absent,
	// Peer.JoinCluster, Peer.Drain).
	Liveness *LivenessParams
	// Quorum, when in [1, Workers), enables straggler mitigation: a
	// slot completes once this many distinct workers contributed;
	// stragglers' late updates are handled per LatePolicy. Zero (or
	// Workers) selects full participation.
	Quorum int
	// LatePolicy selects the fate of a straggler's update arriving
	// after its slot completed at quorum (LateDrop or LateReconcile).
	LatePolicy LatePolicy
	// Absent lists worker ids outside the initial membership: slots
	// complete without them, and they enter later through the join
	// fence (Peer.JoinCluster). Requires Liveness.
	Absent []int
	// Inject, when non-nil, applies seeded loss, duplication and
	// corruption to outgoing result datagrams (chaos testing). It does
	// not change the I/O path: verdicts are applied as datagrams are
	// staged for the batched send.
	Inject *FaultInjection
	// Flight, when non-nil, arms a fault flight recorder: the last N
	// protocol events are retained, and every fault transition
	// (failure detection, reconfigure) dumps a self-contained JSON
	// incident file — recent events, metric snapshot and delta, and
	// the pool's per-slot state — into Flight.Dir.
	Flight *FlightParams
}

// FlightParams configures a fault flight recorder on a daemon (see
// AggregatorParams.Flight and PeerParams.Flight).
type FlightParams struct {
	// Dir receives one uniquely named incident file per dump. The
	// recorder keeps the last 4,096 events, and dumps at most one
	// incident a second: a fault cascade yields one, not one per
	// transition.
	Dir string
}

// config builds the recorder configuration; prefix names the emitting
// process in Dir-mode filenames so an aggregator and its workers can
// share one incident directory without overwriting each other.
func (f *FlightParams) config(reg *telemetry.Registry, prefix string) telemetry.FlightConfig {
	return telemetry.FlightConfig{
		Dir:        f.Dir,
		FilePrefix: prefix,
		Debounce:   time.Second,
		Registry:   reg,
	}
}

// ListenAggregator binds addr (e.g. ":5555" or "127.0.0.1:0") and
// serves aggregation until Close.
func ListenAggregator(addr string, params AggregatorParams) (*Aggregator, error) {
	cfg := transport.AggregatorConfig{
		Addr: addr,
		Switch: core.SwitchConfig{
			Workers:      params.Workers,
			PoolSize:     params.PoolSize,
			SlotElems:    params.SlotElems,
			LossRecovery: true,
			JobID:        params.JobID,
			Quorum:       params.Quorum,
			LatePolicy:   params.LatePolicy.internal(),
		},
		Liveness: params.Liveness.transport(),
		Absent:   append([]int(nil), params.Absent...),
		Inject:   params.Inject.internal(),
	}
	var rec *telemetry.FlightRecorder
	if params.Flight != nil {
		cfg.Metrics = telemetry.NewRegistry()
		rec = telemetry.NewFlightRecorder(params.Flight.config(cfg.Metrics, "agg-incident-"))
		cfg.Tracer = rec
	}
	inner, err := transport.NewAggregator(cfg)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		inner := inner
		rec.SetState(func() any { return inner.DebugState(true) })
	}
	return &Aggregator{inner: inner, rec: rec}, nil
}

// PoolSize returns s, as configured or as tuned.
func (a *Aggregator) PoolSize() int { return a.inner.Config().PoolSize }

// SlotElems returns k, as configured or as tuned.
func (a *Aggregator) SlotElems() int { return a.inner.Config().SlotElems }

// Addr returns the bound address, "host:port".
func (a *Aggregator) Addr() string { return a.inner.Addr().String() }

// ServeDebug starts an HTTP introspection listener on addr (e.g.
// "localhost:6060" or ":0") serving /metrics (Prometheus text),
// /debug/vars (expvar), /debug/pprof/, /debug/state (the aggregator's
// deep introspection document: per-shard loads, per-slot pool state,
// worker liveness), /debug/series (sampled time series; a one-second
// sampler starts with the listener) and — when AggregatorParams.Flight
// is set — /debug/flightrecorder. It returns the bound address; the
// listener stops when the aggregator is closed. Call at most once.
func (a *Aggregator) ServeDebug(addr string) (string, error) {
	reg := a.inner.Registry()
	smp := telemetry.NewSampler(reg, telemetry.SamplerConfig{})
	inner := a.inner
	smp.AddProbe("agg_pool_occupancy", func() float64 {
		return inner.DebugState(false).Pool.Occupancy
	})
	stop := smp.Start(time.Second)
	bound, closeFn, err := telemetry.ServeDebugOpts(addr, telemetry.DebugOptions{
		Registry: reg,
		Sampler:  smp,
		Recorder: a.rec,
		State:    func() any { return inner.DebugState(false) },
	})
	if err != nil {
		stop()
		return "", err
	}
	a.debugClose = func() error {
		stop()
		return closeFn()
	}
	return bound, nil
}

// Close stops serving (and the debug listener, if one was started).
func (a *Aggregator) Close() error {
	if a.debugClose != nil {
		a.debugClose()
		a.debugClose = nil
	}
	return a.inner.Close()
}

// Stats returns the aggregation pool's protocol counters.
func (a *Aggregator) Stats() AggregatorStats { return aggregatorStats(a.inner.Stats()) }

// aggregatorStats is the public view of a pool's counters.
func aggregatorStats(st core.SwitchStats) AggregatorStats {
	return AggregatorStats{
		Updates:               st.Updates,
		Completions:           st.Completions,
		IgnoredDuplicates:     st.IgnoredDuplicates,
		ResultRetransmissions: st.ResultRetransmissions,
		StaleUpdates:          st.StaleUpdates,
		Rejected:              st.Rejected,
		QuorumCompletions:     st.QuorumCompletions,
		LateDropped:           st.LateDropped,
		LateReconciled:        st.LateReconciled,
		GoneReplies:           st.GoneReplies,
	}
}

// Reset clears the pool and forgets worker addresses, preparing the
// aggregator for a restarted job.
func (a *Aggregator) Reset() { a.inner.Reset() }

// Alive reports whether worker w is still part of the job; without
// AggregatorParams.Liveness every configured worker counts as alive.
func (a *Aggregator) Alive(w int) bool { return a.inner.Alive(w) }

// Epoch returns the current job generation; it starts at JobID and is
// bumped by every recovery.
func (a *Aggregator) Epoch() uint16 { return a.inner.Epoch() }

// Departed reports whether worker w left the job gracefully (a drain,
// not an eviction); monitoring can tell a clean exit from a crash.
func (a *Aggregator) Departed(w int) bool { return a.inner.Departed(w) }

// Draining reports whether worker w has announced a graceful leave
// and is finishing its in-flight window.
func (a *Aggregator) Draining(w int) bool { return a.inner.Draining(w) }

// SetDown "kills" (or revives) the aggregation program while the
// socket stays bound: every inbound datagram is silently discarded,
// exactly what workers observe when a switch's aggregation program
// dies under a live crossbar. Chaos tests and failover drills drive
// it; revival needs no reset — the workers' probe fence wipes the
// pool under a fresh generation before anyone fails back.
func (a *Aggregator) SetDown(down bool) { a.inner.SetDown(down) }

// AggregatorStats are the switch-side protocol counters.
type AggregatorStats struct {
	// Updates is the number of update packets processed.
	Updates uint64
	// Completions is the number of finished slot aggregations.
	Completions uint64
	// IgnoredDuplicates counts retransmitted updates for slots still
	// aggregating.
	IgnoredDuplicates uint64
	// ResultRetransmissions counts unicast result replies served from
	// the shadow copy.
	ResultRetransmissions uint64
	// StaleUpdates counts old-phase packets dropped by the
	// monotonic-offset hardening.
	StaleUpdates uint64
	// Rejected counts malformed packets.
	Rejected uint64
	// QuorumCompletions counts slots completed at the quorum
	// threshold before the full membership contributed.
	QuorumCompletions uint64
	// LateDropped and LateReconciled count straggler updates arriving
	// after a quorum completion, per the configured LatePolicy.
	LateDropped    uint64
	LateReconciled uint64
	// GoneReplies counts "gone" replies to stragglers whose phase was
	// already evicted; those workers self-complete from their local
	// update.
	GoneReplies uint64
}

// Peer is a worker endpoint attached to a remote Aggregator.
type Peer struct {
	inner *transport.Client
	scale *quant.FixedPoint
	// qbuf holds the float32 path's quantized inputs, grown on demand
	// (a Peer runs one all-reduce at a time). Two buffers alternate:
	// the worker keeps the last completed tensor's update, qbuf[qi],
	// for a recovery that re-opens it at the next call, so that one
	// must survive quantizing this call's.
	qbuf [2][]int32
	qi   int
	// failed is the float32 input of the last call that failed, whose
	// quantized copy qbuf[qi^1] may still be open for a retry.
	failed     []float32
	rec        *telemetry.FlightRecorder
	debugClose func() error
}

// PeerParams configures DialAggregator. The pool size s and the packet
// size k are the aggregator's: DialAggregator asks it for them.
type PeerParams struct {
	// ID is this worker's rank in [0, Workers).
	ID int
	// Workers is n; a dial to a job of another size fails with
	// ErrShape.
	Workers int
	// JobID names the job on the aggregator and tags packets for
	// multi-tenancy.
	JobID uint16
	// Scale is the fixed-point factor for float32 all-reduce; zero
	// disables the float32 methods.
	Scale float64
	// RTO is the retransmission timeout (default 50 ms): the backstop,
	// not the operating point. Mid-tensor a loss is repaired off the
	// ack clock, within about one trip round the slot window; in the
	// drained tail of a tensor, or a tensor of one window, within a
	// probe timeout of a few measured round trips. The timer is left
	// with a loss whose probes were lost too, a path not measured yet,
	// and a silent aggregator.
	RTO time.Duration
	// Timeout bounds each all-reduce call (default 30 s).
	Timeout time.Duration
	// Heartbeat, when positive, starts a background liveness beacon so
	// an aggregator-side failure detector does not mistake a worker
	// idle between tensors for a dead one. Set it well below the
	// aggregator's LivenessParams.SilenceAfter.
	Heartbeat time.Duration
	// Inject, when non-nil, applies seeded loss, duplication and
	// corruption to outgoing update datagrams (chaos testing). It does
	// not change the I/O path: verdicts are applied as datagrams are
	// staged for the batched send.
	Inject *FaultInjection
	// AdaptiveRTO replaces the fixed RTO with a Jacobson/Karn
	// estimator (SRTT + 4·RTTVAR, clamped to [RTO, 64×RTO], samples
	// only from never-retransmitted packets), so the retransmission
	// timer tracks the deployment's real latency instead of a guess.
	// The round trip is measured with or without it: the probe timeout
	// is always adaptive.
	AdaptiveRTO bool
	// Standbys ranks warm-standby aggregator addresses behind the
	// primary: when the silence detector trips, the worker walks this
	// ladder in order — re-homing the job onto the first rung that
	// answers the adoption roll call (pool wiped under a bumped
	// generation, resumed at the collective chunk frontier) — and only
	// drops to the Fallback mesh when every rung is silent. While homed
	// on a standby, per-tensor probes of the primary run the Fallback
	// probation window, so the job climbs back to rank 0 once the
	// primary recovers. Every worker of a job must rank the same
	// standbys in the same order. Requires Fallback (the silence
	// detector and probation knobs live there).
	Standbys []string
	// Fallback, when non-nil, arms the degradation controller: if the
	// aggregator goes silent mid-tensor the worker finishes the tensor
	// by ring all-reduce over a peer-to-peer UDP mesh, keeps the job
	// on the mesh while probing the aggregator, and fails back after
	// Probation consecutive answered probes. All workers of a job must
	// either arm it or not.
	Fallback *FallbackParams
	// Flight, when non-nil, arms a fault flight recorder on this
	// worker: fault transitions (degrade, failback, resume) dump
	// incident files into Flight.Dir.
	Flight *FlightParams
}

// FallbackParams configures the worker-side host-all-reduce fallback
// (see PeerParams.Fallback). The mesh listens on an ephemeral UDP
// port (Peer.MeshAddr); exchange the addresses out of band and
// install them with Peer.SetMeshPeers before the first all-reduce, or
// list them here. The ring sends 256-element segments, 32 in flight.
type FallbackParams struct {
	// Listen is the mesh socket's listen address (e.g. ":7001");
	// empty binds a wildcard ephemeral port. Multi-machine deployments
	// should fix it so Peers can be listed up front.
	Listen string
	// Peers lists every worker's mesh address, indexed by rank (this
	// worker's own entry is ignored). Leave nil to install later with
	// SetMeshPeers.
	Peers []string
	// SuspectAfter is how long the aggregator may stay silent — with a
	// tensor in flight — before the worker degrades; zero selects
	// 8×RTO. It must comfortably exceed the workers' mutual skew: the
	// degrade is collective (the probe fence wipes the pool), so one
	// jumpy worker degrades the job.
	SuspectAfter time.Duration
	// Probation is the number of consecutive answered probes required
	// before failing back; zero selects 3, negative pins the job on
	// the mesh forever.
	Probation int
}

func (f *FallbackParams) transport() *transport.FallbackConfig {
	if f == nil {
		return nil
	}
	return &transport.FallbackConfig{
		Listen:       f.Listen,
		Peers:        append([]string(nil), f.Peers...),
		SuspectAfter: f.SuspectAfter,
		Probation:    f.Probation,
	}
}

// FailoverStats counts the warm-standby ladder's activity (see
// PeerParams.Standbys). All zero when no standbys are configured.
type FailoverStats struct {
	// Rehomes counts re-homings of the job between ladder rungs,
	// descents and fail-up climbs alike.
	Rehomes uint64
	// AdoptRequests counts adoption roll-call solicitations sent.
	AdoptRequests uint64
	// Probes and ProbeAcks count fail-up probes of the primary sent
	// and answered while the job lives on a standby.
	Probes, ProbeAcks uint64
	// Failbacks counts successful climbs back to the primary (rank 0).
	Failbacks uint64
}

// FallbackStats counts the degradation controller's activity.
type FallbackStats struct {
	// Degrades counts SWITCH → DEGRADED transitions.
	Degrades uint64
	// Probes and ProbeAcks count health probes sent and answered.
	Probes, ProbeAcks uint64
	// Failbacks counts DEGRADED → SWITCH transitions.
	Failbacks uint64
	// HostRounds and HostElems count tensors (and elements) aggregated
	// by the mesh ring instead of the switch.
	HostRounds, HostElems uint64
	// MeshRetransmits counts go-back-N replays on the mesh.
	MeshRetransmits uint64
}

// ErrShape is returned by a dial whose worker the aggregator's job
// cannot serve: its Workers differ, or the aggregator answered without a
// shape (a release older than the dial's hello). Test with errors.Is.
var ErrShape = transport.ErrShape

// DialAggregator connects a worker to an aggregator and takes the job's
// pool size and packet size from it; one silent for the Timeout fails
// the dial with ErrSwitchUnavailable (standbys wait for the first call).
func DialAggregator(addr string, params PeerParams) (*Peer, error) {
	var scale *quant.FixedPoint
	if params.Scale != 0 {
		var err error
		scale, err = quant.NewFixedPoint(params.Scale)
		if err != nil {
			return nil, err
		}
	}
	cfg := transport.ClientConfig{
		Aggregator: addr,
		Worker: core.WorkerConfig{
			ID:           uint16(params.ID),
			Workers:      params.Workers,
			LossRecovery: true,
			JobID:        params.JobID,
		},
		RTO:         params.RTO,
		Timeout:     params.Timeout,
		Heartbeat:   params.Heartbeat,
		Inject:      params.Inject.internal(),
		AdaptiveRTO: params.AdaptiveRTO,
		Standbys:    append([]string(nil), params.Standbys...),
		Fallback:    params.Fallback.transport(),
	}
	var rec *telemetry.FlightRecorder
	if params.Flight != nil {
		cfg.Metrics = telemetry.NewRegistry()
		rec = telemetry.NewFlightRecorder(params.Flight.config(cfg.Metrics,
			fmt.Sprintf("worker%d-incident-", params.ID)))
		cfg.Tracer = rec
	}
	inner, err := transport.NewClient(cfg)
	if err != nil {
		return nil, fabricErr(err)
	}
	if rec != nil {
		inner := inner
		rec.SetState(func() any { return inner.DebugState() })
	}
	return &Peer{inner: inner, scale: scale, rec: rec}, nil
}

// PoolSize returns s, as the aggregator told it at dial.
func (p *Peer) PoolSize() int { return p.inner.WorkerConfig().PoolSize }

// SlotElems returns k, as the aggregator told it at dial.
func (p *Peer) SlotElems() int { return p.inner.WorkerConfig().SlotElems }

// ServeDebug starts an HTTP introspection listener on addr serving
// /metrics (Prometheus text), /debug/vars, /debug/pprof/,
// /debug/state (this worker's introspection document: health state,
// RTT estimator, progress frontier, fallback counters),
// /debug/series (sampled time series) and — when PeerParams.Flight is
// set — /debug/flightrecorder. It returns the bound address; the
// listener stops when the peer is closed. Call at most once.
func (p *Peer) ServeDebug(addr string) (string, error) {
	reg := p.inner.Registry()
	smp := telemetry.NewSampler(reg, telemetry.SamplerConfig{})
	stop := smp.Start(time.Second)
	inner := p.inner
	bound, closeFn, err := telemetry.ServeDebugOpts(addr, telemetry.DebugOptions{
		Registry: reg,
		Sampler:  smp,
		Recorder: p.rec,
		State:    func() any { return inner.DebugState() },
	})
	if err != nil {
		stop()
		return "", err
	}
	p.debugClose = func() error {
		stop()
		return closeFn()
	}
	return bound, nil
}

// Close releases the socket (and the debug listener, if one was
// started).
func (p *Peer) Close() error {
	if p.debugClose != nil {
		p.debugClose()
		p.debugClose = nil
	}
	return p.inner.Close()
}

// MeshAddr returns the fallback mesh's bound "host:port", or "" when
// PeerParams.Fallback was not set. The port is ephemeral; publish it
// to the other workers (SetMeshPeers) before the first all-reduce.
func (p *Peer) MeshAddr() string {
	a := p.inner.MeshAddr()
	if a == nil {
		return ""
	}
	return a.String()
}

// SetMeshPeers installs the job's mesh addresses, indexed by rank
// (this worker's own entry is ignored). It replaces any list given in
// PeerParams.Fallback.Peers and must complete on every worker before
// a degrade can be ridden out.
func (p *Peer) SetMeshPeers(addrs []string) error {
	return p.inner.SetMeshPeers(addrs)
}

// Degraded reports whether the job currently runs on the host mesh
// instead of the switch path.
func (p *Peer) Degraded() bool { return p.inner.Degraded() }

// ErrDrained is returned by all-reduce calls on a peer that has
// gracefully left the job (Drain). Test with errors.Is.
var ErrDrained = transport.ErrDrained

// Drain announces a graceful leave: the aggregator marks this worker
// draining (its coming silence is excused from failure detection),
// waits for the rest of the membership to pass this worker's stream
// frontier, and retires it as departed — not dead. After Drain
// returns, all-reduce calls fail with ErrDrained. The drain needs an
// aggregator-side failure detector (AggregatorParams.Liveness) and at
// least one other live worker; it commits only while the survivors
// keep training (their updates are the evidence the drain boundary
// was passed).
func (p *Peer) Drain() error { return p.inner.Drain() }

// JoinCluster admits this worker into a running job through the
// membership fence: the incumbents hold at their common tensor
// boundary, the pool is wiped under a bumped generation with this
// worker in the membership, and everyone resumes at the global
// frontier. The returned snapshot is the model state fetched from a
// holding incumbent over the fallback mesh (nil unless both sides
// armed Fallback and an incumbent installed SetStateProvider). The
// job must be actively training: only workers inside an all-reduce
// drive the fence.
func (p *Peer) JoinCluster() ([]int32, error) { return p.inner.JoinCluster() }

// SetStateProvider installs the snapshot callback served to joiners:
// while this worker holds at a join fence it answers state-fetch
// requests over the mesh with the returned vector (taken once per
// fence, at the hold boundary — so the snapshot is step-aligned).
func (p *Peer) SetStateProvider(f func() []int32) { p.inner.SetStateProvider(f) }

// Frontier returns the global stream offset this worker has
// completed through — after JoinCluster, the offset training resumes
// from.
func (p *Peer) Frontier() uint64 { return p.inner.Frontier() }

// Drained reports whether this peer has gracefully left the job.
func (p *Peer) Drained() bool { return p.inner.Drained() }

// HomeRank reports the failover-ladder rung currently serving this
// worker's job: 0 is the primary aggregator, higher ranks index
// PeerParams.Standbys (1-based). Safe for monitoring goroutines.
func (p *Peer) HomeRank() int { return p.inner.HomeRank() }

// FailoverStats snapshots the warm-standby ladder counters; safe to
// call concurrently with a running all-reduce.
func (p *Peer) FailoverStats() FailoverStats {
	st := p.inner.FailoverStats()
	return FailoverStats{
		Rehomes:       st.Rehomes,
		AdoptRequests: st.AdoptRequests,
		Probes:        st.Probes,
		ProbeAcks:     st.ProbeAcks,
		Failbacks:     st.Failbacks,
	}
}

// FallbackStats snapshots the degradation controller's counters; it
// is safe to call concurrently with a running all-reduce.
func (p *Peer) FallbackStats() FallbackStats {
	st := p.inner.FallbackStats()
	return FallbackStats{
		Degrades:        st.Degrades,
		Probes:          st.Probes,
		ProbeAcks:       st.ProbeAcks,
		Failbacks:       st.Failbacks,
		HostRounds:      st.HostRounds,
		HostElems:       st.HostElems,
		MeshRetransmits: st.MeshRetransmits,
	}
}

// ErrTensorOpen is returned by an all-reduce call made, after a call
// that failed, with a different tensor while the failed call's tensor
// is still open on the peer: only a retry with the same slice may
// continue it. Test with errors.Is.
var ErrTensorOpen = transport.ErrTensorOpen

// AllReduceInt32 sums u across all workers of the job. If the
// aggregator dies mid-tensor and no fallback is armed, the error
// matches ErrSwitchUnavailable (retryable — the input was fine).
//
// A failed call may leave its tensor open, part of it aggregated. Retry
// it by calling again with the same slice, unchanged: the call
// continues that tensor, re-sending every outstanding chunk, and the
// aggregator discards the contributions it already holds. Any other
// slice returns ErrTensorOpen while the tensor is open.
//
// u is borrowed, not copied, and past the return: the worker reads it
// at every send and retransmission, and a membership recovery that
// re-opens this tensor after it completed here re-reads it during the
// next call. Leave u unchanged until the next AllReduceInt32 or
// AllReduceFloat32 on this peer returns; a training loop that refills
// one gradient buffer every step must alternate two.
// AllReduceFloat32 needs no such care: it hands the worker its own
// quantized copy, double-buffered for exactly this reason (qbuf).
func (p *Peer) AllReduceInt32(u []int32) ([]int32, error) {
	out, err := p.inner.AllReduceInt32(u)
	return out, fabricErr(err)
}

// AllReduceFloat32 sums u across all workers via fixed-point
// quantization (requires PeerParams.Scale). A failed call is retried
// as AllReduceInt32's is: with the same slice, unchanged.
func (p *Peer) AllReduceFloat32(u []float32) ([]float32, error) {
	if p.scale == nil {
		return nil, errNoScale
	}
	next := p.qi ^ 1
	// A retry finds its quantized copy in qbuf[next], open in the
	// worker; any other input must not overwrite it.
	retry := p.inner.TensorOpen()
	if retry && !transport.SameSlice(u, p.failed) {
		return nil, ErrTensorOpen
	}
	if cap(p.qbuf[next]) < len(u) {
		p.qbuf[next] = make([]int32, len(u))
	}
	q := p.qbuf[next][:len(u)]
	if !retry {
		if sat := p.scale.Quantize(q, u); sat > 0 {
			return nil, errQuantize(sat)
		}
	}
	// The sum is the worker's own aggregate buffer: dequantized here,
	// before the next call can overwrite it, it needs no copy.
	sum, err := p.inner.AllReduceInt32View(q)
	if err != nil {
		p.failed = u
		return nil, fabricErr(err)
	}
	p.failed = nil
	p.qi = next // the worker now holds q as its last update
	out := make([]float32, len(u))
	p.scale.Dequantize(out, sum)
	return out, nil
}

var errNoScale = errors.New("switchml: float32 all-reduce needs PeerParams.Scale")

// errQuantize is the float entry points' refusal of a tensor in which
// n elements did not quantize: out of the int32 range at the scale, or
// NaN. Nothing has been sent when it is returned.
func errQuantize(n int) error {
	return fmt.Errorf("switchml: %d elements saturated or NaN during quantization; lower the scale (see MaxSafeScale) or drop the NaNs", n)
}
