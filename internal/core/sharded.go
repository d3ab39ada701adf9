package core

import (
	"sync"

	"switchml/internal/packet"
)

// ShardedSwitch wraps a Switch for concurrent packet handling,
// mirroring the paper's multi-core aggregation host: Flow Director
// steers each slot's traffic to one core, so slots are independent
// and only membership changes need global coordination (Appendix B,
// "every CPU core ... uses a disjoint set of aggregation slots").
//
// Concurrency model:
//
//   - Each slot index owns a mutex covering both pool versions at
//     that index (Algorithm 3 reads the shadow copy of the same
//     index, never a different slot). Packets for different slots
//     aggregate fully in parallel.
//   - Membership and generation changes (Reconfigure, Reset) take a
//     write lock that excludes all packet handling; per-packet work
//     takes the read side, which is uncontended in steady state.
//   - The switch's counters are atomic, and codec scratch buffers
//     are pooled per call, so handlers share no mutable state beyond
//     the slot they lock.
type ShardedSwitch struct {
	sw *Switch
	// mu is the membership lock: Handle paths hold it for reading,
	// Reconfigure/Reset for writing.
	mu sync.RWMutex
	// locks[i] guards pools[0][i] and pools[1][i]. Each lock is padded
	// to its own cache line so adjacent slots do not false-share.
	locks []slotLock
	// scratch pools codec-expansion buffers; only used when the codec
	// is non-nil.
	scratch sync.Pool
}

// slotLock pads a mutex to a 64-byte cache line.
type slotLock struct {
	mu sync.Mutex
	_  [56]byte
}

// NewShardedSwitch allocates the pools for one job behind a
// concurrency-safe facade.
func NewShardedSwitch(cfg SwitchConfig) (*ShardedSwitch, error) {
	sw, err := NewSwitch(cfg)
	if err != nil {
		return nil, err
	}
	return ShardSwitch(sw), nil
}

// ShardSwitch puts an existing switch, such as one MultiSwitch admitted,
// behind the facade; sw must not handle packets directly afterwards.
func ShardSwitch(sw *Switch) *ShardedSwitch {
	ss := &ShardedSwitch{
		sw:    sw,
		locks: make([]slotLock, sw.cfg.PoolSize),
	}
	elems := scratchLen(&sw.cfg, sw.ratio())
	ss.scratch.New = func() any {
		b := make([]int32, elems)
		return &b
	}
	return ss
}

// Switch returns the wrapped state machine. Callers must not invoke
// its Handle methods directly while shard goroutines are running.
func (ss *ShardedSwitch) Switch() *Switch { return ss.sw }

// Handle processes one update packet, locking only the packet's slot.
// It allocates the response packet; use HandleInto on the hot path.
func (ss *ShardedSwitch) Handle(p *packet.Packet) Response {
	return ss.HandleInto(p, nil)
}

// HandleInto processes one update packet with caller-borrowed
// response storage (see Switch.HandleInto). Safe for concurrent use:
// packets for distinct slot indices proceed in parallel.
//
//switchml:hotpath
func (ss *ShardedSwitch) HandleInto(p *packet.Packet, out *packet.Packet) Response {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	// Admission rejects out-of-range indices inside handleWith; the
	// modulus only keeps the lock lookup in bounds until it does.
	lk := &ss.locks[int(p.Idx)%len(ss.locks)]
	scratch, sp := ss.getScratch()
	lk.mu.Lock()
	resp := ss.sw.handleWith(p, scratch, out)
	lk.mu.Unlock()
	ss.putScratch(sp)
	return resp
}

// HandleWire is HandleInto for an update still in its datagram, the
// form the UDP aggregator holds: h is the header packet.ParseHeader
// decoded and payload the elements it returned, where they lie. The
// elements move once, from the payload into the slot's registers, and
// a reply, if the update produces one, is appended to dst in wire form
// straight from the registers; the extended slice comes back, with
// multicast true for a completion's result and false for a unicast
// reply to h.WorkerID (dst is returned as given when there is none).
// Nothing else is staged, and with capacity in dst nothing allocates.
// The reply is appended inside the slot's critical section: it reads
// the slot's registers, which the next update for the slot may
// overwrite the moment the lock is released.
//
//switchml:hotpath
func (ss *ShardedSwitch) HandleWire(h *packet.Header, payload, dst []byte) ([]byte, bool) {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	lk := &ss.locks[int(h.Idx)%len(ss.locks)]
	scratch, sp := ss.getScratch()
	lk.mu.Lock()
	dst, multicast := ss.sw.handleWire(h, payload, dst, scratch)
	lk.mu.Unlock()
	ss.putScratch(sp)
	return dst, multicast
}

// getScratch takes a codec buffer from the pool, none without a codec.
func (ss *ShardedSwitch) getScratch() ([]int32, *[]int32) {
	if ss.sw.cfg.Codec == nil {
		return nil, nil
	}
	sp := ss.scratch.Get().(*[]int32)
	return *sp, sp
}

// putScratch returns getScratch's buffer to the pool.
func (ss *ShardedSwitch) putScratch(sp *[]int32) {
	if sp != nil {
		ss.scratch.Put(sp)
	}
}

// Stats returns a snapshot of the switch counters (atomic; no lock).
func (ss *ShardedSwitch) Stats() SwitchStats { return ss.sw.Stats() }

// Config returns the switch configuration.
func (ss *ShardedSwitch) Config() SwitchConfig { return ss.sw.Config() }

// MemoryBytes returns the pools' register memory (see
// Switch.MemoryBytes).
func (ss *ShardedSwitch) MemoryBytes() int { return ss.sw.MemoryBytes() }

// Required returns the current required contribution count.
func (ss *ShardedSwitch) Required() int {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return ss.sw.Required()
}

// Active reports whether worker wid is part of the current
// membership.
func (ss *ShardedSwitch) Active(wid int) bool {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return ss.sw.Active(wid)
}

// ActiveWorkers lists the current membership in id order.
func (ss *ShardedSwitch) ActiveWorkers() []int {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return ss.sw.ActiveWorkers()
}

// JobID returns the current job generation.
func (ss *ShardedSwitch) JobID() uint16 {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return ss.sw.JobID()
}

// Reconfigure installs a new membership and generation, excluding
// all packet handling for the duration (see Switch.Reconfigure).
func (ss *ShardedSwitch) Reconfigure(active []bool, jobID uint16) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.sw.Reconfigure(active, jobID)
}

// Reset clears all pool state, excluding all packet handling.
func (ss *ShardedSwitch) Reset() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.sw.Reset()
}

// DebugSlot reports a slot's internal state under its lock.
func (ss *ShardedSwitch) DebugSlot(ver uint8, idx uint32) (count int, off int64, elems int, seen uint64) {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	lk := &ss.locks[int(idx)%len(ss.locks)]
	lk.mu.Lock()
	defer lk.mu.Unlock()
	return ss.sw.DebugSlot(ver, idx)
}
