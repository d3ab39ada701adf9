package core

import (
	"fmt"
	"sort"
)

// MultiSwitch hosts several jobs' aggregation pools on one switch,
// the multi-tenant scenario of §6 ("Multi-job"). Every job owns a
// disjoint pool; an admission check bounds total register memory, the
// scarce dataplane resource. Routing by JobID is the host's.
type MultiSwitch struct {
	// memoryBudget caps the sum of per-job MemoryBytes; zero means
	// unlimited.
	memoryBudget int
	jobs         map[uint16]*Switch
}

// NewMultiSwitch returns a multi-tenant switch with the given
// register memory budget in bytes (0 = unlimited).
func NewMultiSwitch(memoryBudget int) *MultiSwitch {
	return &MultiSwitch{memoryBudget: memoryBudget, jobs: make(map[uint16]*Switch)}
}

// AdmitJob allocates a pool for a job. It fails if the job id is
// taken or the additional pools would exceed the memory budget.
func (m *MultiSwitch) AdmitJob(cfg SwitchConfig) (*Switch, error) {
	if _, ok := m.jobs[cfg.JobID]; ok {
		return nil, fmt.Errorf("core: job %d already admitted", cfg.JobID)
	}
	sw, err := NewSwitch(cfg)
	if err != nil {
		return nil, err
	}
	if m.memoryBudget > 0 && m.MemoryBytes()+sw.MemoryBytes() > m.memoryBudget {
		return nil, fmt.Errorf("core: job %d needs %d bytes, only %d of %d available",
			cfg.JobID, sw.MemoryBytes(), m.memoryBudget-m.MemoryBytes(), m.memoryBudget)
	}
	m.jobs[cfg.JobID] = sw
	return sw, nil
}

// ReleaseJob frees a job's pools.
func (m *MultiSwitch) ReleaseJob(job uint16) error {
	if _, ok := m.jobs[job]; !ok {
		return fmt.Errorf("core: job %d not admitted", job)
	}
	delete(m.jobs, job)
	return nil
}

// Job returns the per-job switch, or nil.
func (m *MultiSwitch) Job(job uint16) *Switch { return m.jobs[job] }

// Jobs returns the admitted job ids in ascending order.
func (m *MultiSwitch) Jobs() []uint16 {
	ids := make([]uint16, 0, len(m.jobs))
	//switchml:allow determinism -- collect-then-sort: the ids are sorted before anything order-sensitive sees them
	for id := range m.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// MemoryBytes returns the total register memory of all admitted jobs.
func (m *MultiSwitch) MemoryBytes() int {
	total := 0
	//switchml:allow determinism -- commutative integer sum; iteration order cannot change the total
	for _, sw := range m.jobs {
		total += sw.MemoryBytes()
	}
	return total
}
