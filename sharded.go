package switchml

import (
	"fmt"
	"sync"
	"time"

	"switchml/internal/core"
	"switchml/internal/quant"
	"switchml/internal/telemetry"
	"switchml/internal/transport"
)

// This file implements the multi-core worker of the paper's
// Appendix B over UDP: "we use multiple CPU cores ... Every CPU core
// runs an I/O loop that processes every batch of packets in a
// run-to-completion fashion and uses a disjoint set of aggregation
// slots ... we partition the tensor into as many contiguous memory
// regions as the number of cores", with Flow Director steering each
// core's traffic to its own queue. Here each shard owns a socket, a
// worker state machine, and a disjoint aggregator pool (a job id per
// shard), which is the same no-shared-state property.

// MultiAggregator is a UDP software aggregator hosting several
// disjoint pools: one per tenant job (§6 "Multi-job") or one per
// worker core shard.
type MultiAggregator struct {
	inner      *transport.MultiAggregator
	debugClose func() error
}

// ListenMultiAggregator binds addr with the given register-memory
// budget in bytes (0 = unlimited); jobs are admitted with AdmitJob.
func ListenMultiAggregator(addr string, memoryBudget int) (*MultiAggregator, error) {
	inner, err := transport.NewMultiAggregator(addr, memoryBudget)
	if err != nil {
		return nil, err
	}
	return &MultiAggregator{inner: inner}, nil
}

// Addr returns the bound address.
func (m *MultiAggregator) Addr() string { return m.inner.Addr().String() }

// ServeDebug starts an HTTP introspection listener on addr serving
// /metrics, /debug/vars and /debug/pprof/ with every admitted job's
// counters (labeled job="<id>"). It returns the bound address; the
// listener stops when the aggregator is closed. Call at most once.
func (m *MultiAggregator) ServeDebug(addr string) (string, error) {
	bound, closeFn, err := telemetry.ServeDebug(addr, m.inner.Registry())
	if err != nil {
		return "", err
	}
	m.debugClose = closeFn
	return bound, nil
}

// Close stops serving (and the debug listener, if one was started).
func (m *MultiAggregator) Close() error {
	if m.debugClose != nil {
		m.debugClose()
		m.debugClose = nil
	}
	return m.inner.Close()
}

// AdmitJob allocates a pool for one job. A zero params.PoolSize or
// params.SlotElems selects the size ListenAggregator does; a Peer dialed
// with the job's id is told the shape. An explicit SlotElems above what
// the aggregator's datagrams carry (2,294) is refused.
func (m *MultiAggregator) AdmitJob(job uint16, params AggregatorParams) error {
	return m.AdmitShardedJob(job, 1, params)
}

// AdmitShardedJob allocates the pools of a ShardedPeer of shards shards,
// job ids jobBase..jobBase+shards-1. A zero params.PoolSize gives each
// its share of ListenAggregator's, at least one slot (16 a shard for 2
// workers of 4), so that the shards keep one job's window in flight.
func (m *MultiAggregator) AdmitShardedJob(jobBase uint16, shards int, params AggregatorParams) error {
	return m.inner.AdmitShardedJob(jobBase, shards, core.SwitchConfig{
		Workers:      params.Workers,
		PoolSize:     params.PoolSize,
		SlotElems:    params.SlotElems,
		LossRecovery: true,
	})
}

// PoolSize returns an admitted job's s, as configured or as tuned; 0
// for a job that was not admitted.
func (m *MultiAggregator) PoolSize(job uint16) int { return m.inner.PoolSize(job) }

// SlotElems returns an admitted job's k, as configured or as tuned; 0
// for a job that was not admitted.
func (m *MultiAggregator) SlotElems(job uint16) int { return m.inner.SlotElems(job) }

// ReleaseJob frees one job's pool.
func (m *MultiAggregator) ReleaseJob(job uint16) error { return m.inner.ReleaseJob(job) }

// JobStats returns one admitted job's protocol counters.
func (m *MultiAggregator) JobStats(job uint16) (AggregatorStats, bool) {
	st, ok := m.inner.JobStats(job)
	return aggregatorStats(st), ok
}

// ShardedPeer is a multi-core worker endpoint: the tensor is
// partitioned into contiguous regions, each streamed by its own
// socket and state machine to its own aggregator pool, concurrently.
type ShardedPeer struct {
	peers []*transport.Client
	scale *quant.FixedPoint
	// retry is what the last call left for its retry when it failed
	// with a region finished or open; nil otherwise.
	retry *shardedRetry
}

// shardedRetry is a failed ShardedPeer call's per-shard outcome. Its
// retry calls only the shards in !done, and holds the others' results.
type shardedRetry struct {
	u    []int32   // the call's input
	f    []float32 // the float32 input u quantizes, on that path
	out  []int32   // the result, filled where a shard finished
	done []bool    // the shards whose region finished
}

// ShardedPeerParams configures DialSharded.
type ShardedPeerParams struct {
	// ID is this worker's rank.
	ID int
	// Workers is n.
	Workers int
	// Shards is the core count; each shard gets its own socket,
	// worker state machine and pool. Zero selects 4 (§5.1).
	Shards int
	// JobBase is the first shard's job id (AdmitShardedJob's jobBase);
	// shard s dials JobBase+s and is told that job's shape.
	JobBase uint16
	// Scale enables float32 all-reduce.
	Scale float64
	// RTO and Timeout as in PeerParams.
	RTO     time.Duration
	Timeout time.Duration
}

// DialSharded connects a multi-core worker to a MultiAggregator.
func DialSharded(addr string, params ShardedPeerParams) (*ShardedPeer, error) {
	if params.Shards == 0 {
		params.Shards = 4
	}
	if params.Shards < 0 {
		return nil, fmt.Errorf("switchml: shard count must be positive, got %d", params.Shards)
	}
	sp := &ShardedPeer{}
	if params.Scale != 0 {
		fx, err := quant.NewFixedPoint(params.Scale)
		if err != nil {
			return nil, err
		}
		sp.scale = fx
	}
	for s := 0; s < params.Shards; s++ {
		c, err := transport.NewClient(transport.ClientConfig{
			Aggregator: addr,
			Worker: core.WorkerConfig{
				ID:           uint16(params.ID),
				Workers:      params.Workers,
				LossRecovery: true,
				JobID:        params.JobBase + uint16(s),
			},
			RTO:     params.RTO,
			Timeout: params.Timeout,
		})
		if err != nil {
			sp.Close()
			return nil, fabricErr(err)
		}
		sp.peers = append(sp.peers, c)
	}
	return sp, nil
}

// Close releases all shard sockets.
func (sp *ShardedPeer) Close() error {
	var first error
	for _, p := range sp.peers {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Shards returns the shard count.
func (sp *ShardedPeer) Shards() int { return len(sp.peers) }

// AllReduceInt32 sums u across all workers, splitting the tensor into
// contiguous per-shard regions aggregated concurrently.
//
// A failed call is retried as Peer.AllReduceInt32's is, with the same
// slice. The retry calls only the shards whose region did not finish
// and takes the rest from the failed call: calling a finished shard
// again would open a tensor the other workers never join. While a
// failed call has a region finished or open, any other slice returns
// ErrTensorOpen.
func (sp *ShardedPeer) AllReduceInt32(u []int32) ([]int32, error) {
	if len(u) == 0 {
		return nil, nil
	}
	shards := len(sp.peers)
	r := sp.retry
	if r == nil {
		r = &shardedRetry{u: u, out: make([]int32, len(u)), done: make([]bool, shards)}
	} else if !transport.SameSlice(u, r.u) {
		return nil, ErrTensorOpen
	}
	var wg sync.WaitGroup
	errs := make([]error, shards)
	for s := 0; s < shards; s++ {
		lo, hi := s*len(u)/shards, (s+1)*len(u)/shards
		if lo == hi || r.done[s] {
			continue
		}
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each shard's results are decoded straight into its region.
			if err := sp.peers[s].AllReduceInt32Into(r.out[lo:hi], u[lo:hi]); err != nil {
				errs[s] = fmt.Errorf("switchml: shard %d: %w", s, err)
				return
			}
			r.done[s] = true
		}()
	}
	wg.Wait()
	sp.retry = nil
	for _, err := range errs {
		if err != nil {
			if sp.leftOpen(r) {
				sp.retry = r
			}
			return nil, err
		}
	}
	return r.out, nil
}

// leftOpen reports whether a failed call leaves anything a retry must
// finish: a region finished, or a shard's tensor open.
func (sp *ShardedPeer) leftOpen(r *shardedRetry) bool {
	for s, p := range sp.peers {
		if r.done[s] || p.TensorOpen() {
			return true
		}
	}
	return false
}

// AllReduceFloat32 sums u across all workers via fixed-point
// quantization (requires Scale). A failed call is retried as
// AllReduceInt32's is: with the same slice, unchanged.
func (sp *ShardedPeer) AllReduceFloat32(u []float32) ([]float32, error) {
	if sp.scale == nil {
		return nil, errNoScale
	}
	var q []int32
	if r := sp.retry; r != nil {
		if !transport.SameSlice(u, r.f) {
			return nil, ErrTensorOpen
		}
		q = r.u
	} else {
		q = make([]int32, len(u))
		if sat := sp.scale.Quantize(q, u); sat > 0 {
			return nil, errQuantize(sat)
		}
	}
	sum, err := sp.AllReduceInt32(q)
	if err != nil {
		if sp.retry != nil {
			sp.retry.f = u
		}
		return nil, err
	}
	out := make([]float32, len(u))
	sp.scale.Dequantize(out, sum)
	return out, nil
}

var _ Collective = (*ShardedPeer)(nil)
