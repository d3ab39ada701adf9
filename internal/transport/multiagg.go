package transport

import (
	"fmt"
	"net"
	"time"

	"switchml/internal/core"
	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// MultiAggregator is a UDP software aggregator serving several
// concurrent jobs, the multi-tenant scenario of §6: every job owns a
// disjoint pool and an admission check bounds total register memory. It
// is one Aggregator whose shard loops route each datagram by its JobID,
// which names the job here; a job's generation stays its id.
type MultiAggregator struct {
	agg *Aggregator
	ms  *core.MultiSwitch // guarded by agg.mu
}

// SlotElemsError refuses a job whose packets of SlotElems elements
// would not fit a multi-job aggregator's datagrams; Max is the largest
// k it admits.
type SlotElemsError struct{ SlotElems, Max int }

func (e *SlotElemsError) Error() string {
	return fmt.Sprintf("transport: %d elements a packet exceed the %d a multi-job aggregator's %d-byte datagrams carry", e.SlotElems, e.Max, jobMTU)
}

// NewMultiAggregator binds addr and serves with the given register
// memory budget in bytes (0 = unlimited).
func NewMultiAggregator(addr string, memoryBudget int) (*MultiAggregator, error) {
	return newMultiAggregator(AggregatorConfig{Addr: addr}, memoryBudget)
}

// newMultiAggregator is NewMultiAggregator on cfg's address and shards.
func newMultiAggregator(cfg AggregatorConfig, memoryBudget int) (*MultiAggregator, error) {
	a := newServer(cfg, time.Now)
	a.jobs.Store(&jobTable{})
	if err := a.listen(jobMTU, 0, 0); err != nil {
		return nil, err
	}
	return &MultiAggregator{agg: a, ms: core.NewMultiSwitch(memoryBudget)}, nil
}

// Addr returns the bound listen address.
func (m *MultiAggregator) Addr() *net.UDPAddr { return m.agg.Addr() }

// Registry returns the registry holding every admitted job's switch
// counters (labeled job="<id>") plus the shared datagram counters.
func (m *MultiAggregator) Registry() *telemetry.Registry { return m.agg.reg }

// AdmitJob allocates a pool for a job, failing when the memory budget
// would be exceeded (the admission mechanism of §6) or its packets
// would not fit (SlotElemsError), its zero shape tuned as NewAggregator's.
func (m *MultiAggregator) AdmitJob(cfg core.SwitchConfig) error {
	return m.AdmitShardedJob(cfg.JobID, 1, cfg)
}

// AdmitShardedJob admits the jobs jobBase..jobBase+shards-1 a ShardedPeer
// streams through at once, each with its share of a tuned PoolSize: every
// shard's window reaches the aggregator's sockets at once.
func (m *MultiAggregator) AdmitShardedJob(jobBase uint16, shards int, cfg core.SwitchConfig) error {
	if shards <= 0 {
		return fmt.Errorf("transport: shard count must be positive, got %d", shards)
	}
	fillShape(&cfg, shards)
	if cfg.SlotElems > maxJobElems {
		return &SlotElemsError{SlotElems: cfg.SlotElems, Max: maxJobElems}
	}
	a := m.agg
	a.mu.Lock()
	defer a.mu.Unlock()
	defer m.retableLocked()
	cfg.Metrics = a.reg
	if cfg.Now == nil {
		cfg.Now = a.coarse.Load
	}
	for s := range shards {
		cfg.JobID = jobBase + uint16(s)
		if _, err := m.ms.AdmitJob(cfg); err != nil {
			return err
		}
	}
	return nil
}

// ReleaseJob frees a job's pool.
func (m *MultiAggregator) ReleaseJob(job uint16) error {
	m.agg.mu.Lock()
	defer m.agg.mu.Unlock()
	if err := m.ms.ReleaseJob(job); err != nil {
		return err
	}
	m.retableLocked()
	return nil
}

// retableLocked swaps in a table of the admitted jobs (a fresh record
// for a newcomer) and sizes every shard socket for all their windows at
// once: the kernel's flow hash may steer every flow to one shard.
func (m *MultiAggregator) retableLocked() {
	old := m.agg.jobs.Load()
	t := &jobTable{byID: make(map[uint16]*job)}
	need := 0
	for _, id := range m.ms.Jobs() {
		j := old.byID[id]
		if j == nil {
			j = newJob(core.ShardSwitch(m.ms.Job(id)))
		}
		t.byID[id] = j
		c := j.sw.Config()
		need += windowBytes(c.Workers*c.PoolSize, c.SlotElems)
		t.block = max(t.block, max(DefaultBatch, c.PoolSize)*packet.WireLen(c.SlotElems))
	}
	m.agg.sizeSockets(need)
	m.agg.jobs.Store(t)
}

// PoolSize returns an admitted job's pool size s, 0 for a job that was
// not admitted.
func (m *MultiAggregator) PoolSize(job uint16) int {
	if j := m.agg.jobs.Load().byID[job]; j != nil {
		return j.pool
	}
	return 0
}

// SlotElems returns an admitted job's k, 0 for a job that was not
// admitted.
func (m *MultiAggregator) SlotElems(job uint16) int {
	if j := m.agg.jobs.Load().byID[job]; j != nil {
		return j.sw.Config().SlotElems
	}
	return 0
}

// MemoryBytes returns the admitted jobs' total register memory.
func (m *MultiAggregator) MemoryBytes() int {
	m.agg.mu.Lock()
	defer m.agg.mu.Unlock()
	return m.ms.MemoryBytes()
}

// Jobs returns the admitted job ids.
func (m *MultiAggregator) Jobs() []uint16 {
	m.agg.mu.Lock()
	defer m.agg.mu.Unlock()
	return m.ms.Jobs()
}

// JobStats returns one admitted job's switch counters.
func (m *MultiAggregator) JobStats(job uint16) (core.SwitchStats, bool) {
	if j := m.agg.jobs.Load().byID[job]; j != nil {
		return j.sw.Stats(), true
	}
	return core.SwitchStats{}, false
}

// Close shuts the server down.
func (m *MultiAggregator) Close() error { return m.agg.Close() }
