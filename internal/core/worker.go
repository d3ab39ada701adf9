package core

import (
	"fmt"

	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// WorkerConfig describes one worker's view of the aggregation job.
type WorkerConfig struct {
	// ID is this worker's id in [0, Workers).
	ID uint16
	// Workers is n, the job's worker count.
	Workers int
	// PoolSize is s, the number of aggregator slots; it bounds the
	// worker's in-flight window (§3.6).
	PoolSize int
	// SlotElems is k, the elements per packet.
	SlotElems int
	// JobID is stamped on every packet.
	JobID uint16
	// LossRecovery must match the switch's setting; when false the
	// worker always sends version 0 (Algorithm 2).
	LossRecovery bool
	// Metrics optionally registers the worker's counters in a shared
	// telemetry registry, labeled worker="<ID>"; nil keeps standalone
	// counters. Either way the counters are atomic, so Stats() may be
	// called concurrently with protocol handling.
	Metrics *telemetry.Registry
}

func (c *WorkerConfig) validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("core: worker count must be positive, got %d", c.Workers)
	}
	if int(c.ID) >= c.Workers {
		return fmt.Errorf("core: worker id %d out of range [0,%d)", c.ID, c.Workers)
	}
	if c.PoolSize <= 0 {
		return fmt.Errorf("core: pool size must be positive, got %d", c.PoolSize)
	}
	if c.SlotElems <= 0 {
		return fmt.Errorf("core: slot elements must be positive, got %d", c.SlotElems)
	}
	return nil
}

// pendingSlot tracks one in-flight aggregation on a worker.
type pendingSlot struct {
	// off is the stream offset of the in-flight chunk.
	off uint64
	// seq is the worker-wide send number of the packet last produced
	// for this chunk (sendChunk or Retransmit); retx marks that the
	// chunk has been retransmitted, so a result for it may answer an
	// earlier copy and proves nothing about seq (Karn's rule). lapped
	// marks that Lapped reported this send, so each send is reported
	// once; probed marks that the Pump reported it on overtake or
	// tail-probe evidence. Retransmit reads both to tell which recovery
	// it is serving, and clears them.
	seq uint64
	// elems is the in-flight chunk length.
	elems int
	// prev and next link the active slots into the worker's send queue
	// (Worker.oldest, Worker.newest); -1 ends it.
	prev, next int32
	active     bool
	// ver is the pool version the chunk was sent with.
	ver                  uint8
	retx, lapped, probed bool
}

// workerCounters are the worker's live atomic counters; WorkerStats
// is their snapshot view.
type workerCounters struct {
	sent, retransmissions, results, staleResults *telemetry.Counter
	selfCompletions, earlyRetransmissions        *telemetry.Counter
	probeRetransmissions                         *telemetry.Counter
}

// newWorkerCounters binds the counters into reg when non-nil (labeled
// by worker id) and allocates standalone ones otherwise.
func newWorkerCounters(reg *telemetry.Registry, id uint16) workerCounters {
	if reg == nil {
		return workerCounters{
			sent: &telemetry.Counter{}, retransmissions: &telemetry.Counter{},
			results: &telemetry.Counter{}, staleResults: &telemetry.Counter{},
			selfCompletions: &telemetry.Counter{}, earlyRetransmissions: &telemetry.Counter{},
			probeRetransmissions: &telemetry.Counter{},
		}
	}
	label := []string{"worker", fmt.Sprintf("%d", id)}
	return workerCounters{
		sent:                 reg.Counter("worker_sent_total", label...),
		retransmissions:      reg.Counter("worker_retransmissions_total", label...),
		earlyRetransmissions: reg.Counter("worker_early_retransmissions_total", label...),
		probeRetransmissions: reg.Counter("worker_probe_retransmissions_total", label...),
		results:              reg.Counter("worker_results_total", label...),
		staleResults:         reg.Counter("worker_stale_results_total", label...),
		selfCompletions:      reg.Counter("worker_self_completions_total", label...),
	}
}

// WorkerStats counts protocol events on a worker.
type WorkerStats struct {
	// Sent counts update packets produced (excluding retransmissions).
	Sent uint64
	// Retransmissions counts packets re-produced by Retransmit, for
	// whichever reason.
	Retransmissions uint64
	// EarlyRetransmissions counts the subset of Retransmissions made
	// for a slot Lapped had reported: recovery riding the ack clock
	// rather than the host's timer.
	EarlyRetransmissions uint64
	// ProbeRetransmissions counts the subset made for a slot the Pump
	// had reported as overtaken in time or as the tail probe: recovery
	// a probe timeout after the loss where nothing was left to lap it.
	// What remains of Retransmissions after both subsets is the timer's.
	ProbeRetransmissions uint64
	// Results counts accepted result packets.
	Results uint64
	// StaleResults counts ignored results (duplicates from a multicast
	// racing a unicast retransmission, or leftovers from an earlier
	// tensor).
	StaleResults uint64
	// SelfCompletions counts chunks completed from the local update
	// after the switch answered with an empty "gone" result — quorum
	// mode evicted the phase before this worker's contribution landed.
	SelfCompletions uint64
}

// Worker is the end-host aggregation state machine of Algorithms 2
// and 4. One Worker aggregates a stream of tensors; per the paper's
// implementation (Appendix B), consecutive tensors form one
// continuous stream so pool-version alternation carries across tensor
// boundaries — resetting versions between tensors would break the
// shadow-copy invariant.
//
// The Worker performs no I/O and keeps no timers. Hosts call Start to
// get the initial window, feed results to HandleResult (sending the
// returned follow-up packet, if any), and call Retransmit for slots
// whose timers expire — and, to recover a loss without waiting for
// the timer, for slots Lapped reports. A Pump does the second half for
// a host: it keeps the stamps and timers and says which slots are due.
type Worker struct {
	cfg WorkerConfig
	// u is the tensor being aggregated (the local model update).
	u []int32
	// a receives the aggregated values: own, the Worker's buffer, or
	// while lent is set a buffer the host lent for the tensor (Lend).
	// loan is the buffer lent for the next tensor opened, not yet
	// taken.
	a, own, loan []int32
	lent         bool
	// base is the stream offset of u[0]; offsets carried in packets
	// are stream-global so stale packets can never alias.
	base uint64
	// remaining counts elements of a not yet received.
	remaining int
	// pend tracks the in-flight chunk per slot; inflight counts the
	// active ones.
	pend     []pendingSlot
	inflight int
	// ver is the next pool version to use per slot, persisting across
	// tensors.
	ver []uint8
	// chunkDone marks which chunks of the current tensor have their
	// aggregate; the failure-recovery resume path re-sends from the
	// first gap.
	chunkDone []bool
	// seq numbers every update this worker produces; acked is the
	// highest number a result has vouched for (see Lapped).
	seq, acked uint64
	// oldest and newest end the send queue: the active slots linked in
	// the order of their packets' numbers, or of their stamps where a
	// host stamps out of that order (Pump.Sent); -1: nothing in flight.
	// Every send joins at the newest end and a result unlinks its slot
	// wherever it stands, so the rules that ask which pending packets
	// are old enough — Lapped here, a Pump's timeout, overtake and tail
	// probe — walk in from one end and stop at the first that is not:
	// they cost what is overdue, never what the pool could hold.
	oldest, newest int32
	// initNext and initEnd are the slots of the initial window that Next
	// has yet to hand out (Open).
	initNext, initEnd int
	// examined counts the queue entries Lapped and a Pump's walks have
	// looked at. Nothing reads it but the test that holds their cost
	// independent of the pool size: a count, where a timing would be
	// noise.
	examined uint64
	// window counts the times everything in flight was discarded
	// (Resume, JoinAt, InstallHostAggregate): a Pump's per-slot state
	// belongs to one window and is dropped with it.
	window uint64
	ctr    workerCounters
	// out is the Send that NextSend, RetransmitSend and a result's
	// follow-up hand out.
	out Send
}

// NewWorker returns a worker ready for its first Start call.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Worker{
		cfg:    cfg,
		pend:   make([]pendingSlot, cfg.PoolSize),
		ver:    make([]uint8, cfg.PoolSize),
		oldest: -1,
		newest: -1,
		ctr:    newWorkerCounters(cfg.Metrics, cfg.ID),
	}, nil
}

// Config returns the worker's configuration.
func (w *Worker) Config() WorkerConfig { return w.cfg }

// Stats returns a snapshot of the worker's counters. The counters
// are atomic, so the snapshot is safe to take from another goroutine
// while the worker handles packets.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		Sent:                 w.ctr.sent.Value(),
		Retransmissions:      w.ctr.retransmissions.Value(),
		EarlyRetransmissions: w.ctr.earlyRetransmissions.Value(),
		ProbeRetransmissions: w.ctr.probeRetransmissions.Value(),
		Results:              w.ctr.results.Value(),
		StaleResults:         w.ctr.staleResults.Value(),
		SelfCompletions:      w.ctr.selfCompletions.Value(),
	}
}

// Busy reports whether an aggregation is in progress.
func (w *Worker) Busy() bool { return w.remaining > 0 }

// Aggregate returns the output buffer of the last completed (or
// in-progress) aggregation.
func (w *Worker) Aggregate() []int32 { return w.a }

// Lend makes a the aggregate buffer of the next tensor Open or
// StartHosted opens, if a is that tensor's length: results are written
// straight into it, and the Worker's own buffer is not touched. A nil a
// withdraws a loan not yet taken. A loan taken lasts until Reclaim,
// across a failed call's retry and any §5.6 re-open meanwhile.
func (w *Worker) Lend(a []int32) { w.loan = a }

// Reclaim ends a loan: one not yet taken is withdrawn, and a buffer the
// aggregate is in is given back — the Worker keeps no reference to it
// and takes its own buffer again, sized to the tensor. A §5.6 recovery
// that re-opens the tensor afterwards (Resume) re-aggregates from its
// frontier into the Worker's own buffer, so it never writes a slice the
// host has handed on; the chunks before the frontier are not restored
// there, and such a re-open's Aggregate holds them only from the
// frontier on.
func (w *Worker) Reclaim() {
	w.loan = nil
	if w.lent {
		w.lent = false
		w.a = w.ownSized(len(w.a))
	}
}

// ownSized returns the Worker's own aggregate buffer at length n,
// grown if it is shorter.
func (w *Worker) ownSized(n int) []int32 {
	if cap(w.own) < n {
		w.own = make([]int32, n)
	}
	w.own = w.own[:n]
	return w.own
}

// Start begins aggregating the tensor u and returns the initial
// window of update packets (Algorithm 4 lines 1-8): one packet per
// slot, or fewer if the tensor is smaller than s·k elements. The
// caller must arm a retransmission timer per returned packet. Start
// panics if an aggregation is already in progress, which indicates a
// host sequencing bug. Hosts that transmit synchronously use Open and
// Next instead, and hold one packet at a time.
func (w *Worker) Start(u []int32) []*packet.Packet {
	n := w.Open(u)
	if n == 0 {
		return nil
	}
	pkts := make([]*packet.Packet, 0, n)
	for p := w.Next(); p != nil; p = w.Next() {
		pkts = append(pkts, p)
	}
	return pkts
}

// Open is Start without the slice: it begins aggregating u and returns
// the length of the initial window, which Next then hands out one
// pooled packet at a time, so a host that marshals each packet and
// returns it to the pool before asking for the next allocates nothing
// and never holds a window of packets — whatever the pool size. The
// whole window must be taken before the first result is fed back.
//
// The Worker borrows u rather than copying it, and for longer than the
// aggregation: it reads u at every send of a chunk (the window, each
// follow-up, every retransmission) and when a quorum "gone" reply
// completes a chunk from it, and it keeps u after the tensor completes,
// because a §5.6 recovery may re-open a tensor that completed locally
// (Resume) and re-send its chunks from u. The caller must leave u
// unchanged until the next Open, StartHosted or JoinAt replaces it.
func (w *Worker) Open(u []int32) int {
	if w.remaining > 0 {
		panic("core: Start called while an aggregation is in progress")
	}
	if len(u) == 0 {
		return 0
	}
	w.StartHosted(u)
	w.initNext, w.initEnd = 0, min(w.cfg.PoolSize, len(w.chunkDone))
	return w.initEnd
}

// Next returns the next packet of the window Open began, nil once it
// has all been handed out.
func (w *Worker) Next() *packet.Packet { return w.NextSend().Packet() }

// NextSend is Next without the packet: the next update of the window
// Open began, nil once it has all been handed out.
func (w *Worker) NextSend() *Send {
	if w.initNext >= w.initEnd {
		return nil
	}
	// Slot i deterministically owns chunks i, i+s, i+2s, ... — the
	// implicit coordination of §3.4: every worker maps the same piece
	// of the update to the same slot with no explicit agreement.
	i := w.initNext
	w.initNext++
	return w.sendChunk(uint32(i), i*w.cfg.SlotElems)
}

// Send is one update packet the Worker has decided to send: its header
// and its elements, which are a view of the tensor being aggregated, not
// a copy. The Worker hands out a pointer to its own Send, which the next
// call that decides a send overwrites: a host that encodes synchronously
// marshals it straight from the tensor (packet.AppendWire) before it
// calls the Worker again, and Packet builds the pooled packet form for a
// host that keeps packets in flight. It is a pointer, not a value,
// because a header and a slice do not fit in return registers, and per
// packet a copy of a struct just written field by field costs a
// store-forwarding stall — more than copying the elements would.
type Send struct {
	Header packet.Header
	Vec    []int32
}

// Packet returns s as a pooled packet with its own copy of the
// elements, nil for a nil s. Hosts that transmit synchronously return
// it to the pool after marshalling; hosts that keep packets in flight
// (the simulator) simply never return it.
func (s *Send) Packet() *packet.Packet {
	if s == nil {
		return nil
	}
	p := packet.GetPacket()
	h := &s.Header
	p.SetUpdate(h.WorkerID, h.JobID, h.Ver, h.Idx, h.Off, s.Vec)
	return p
}

// sendChunk builds the update for the chunk at local element offset
// local, assigns it to slot idx, and records it as pending.
func (w *Worker) sendChunk(idx uint32, local int) *Send {
	elems := len(w.u) - local
	if elems > w.cfg.SlotElems {
		elems = w.cfg.SlotElems
	}

	ver := uint8(0)
	if w.cfg.LossRecovery {
		ver = w.ver[idx]
		w.ver[idx] = 1 - ver
	}
	w.seq++
	// Field by field rather than a pendingSlot literal, which compiles
	// to a stack temporary copied in 16-byte moves over fields just
	// written one by one: a store-forwarding stall per packet. prev and
	// next are enqueue's.
	pd := &w.pend[idx]
	pd.off, pd.seq, pd.elems, pd.ver = w.base+uint64(local), w.seq, elems, ver
	pd.active, pd.retx, pd.lapped, pd.probed = true, false, false, false
	w.enqueue(int32(idx))
	w.inflight++
	w.ctr.sent.Inc()
	return w.send(idx, pd)
}

// send fills the Worker's Send with the update for slot idx's in-flight
// chunk pd, field by field, and returns it.
func (w *Worker) send(idx uint32, pd *pendingSlot) *Send {
	local := int(pd.off - w.base)
	s, h := &w.out, &w.out.Header
	h.Kind, h.WorkerID, h.JobID = packet.KindUpdate, w.cfg.ID, w.cfg.JobID
	h.Ver, h.Idx, h.Off = pd.ver, idx, pd.off
	s.Vec = w.u[local : local+pd.elems]
	return s
}

// enqueue links slot idx, whose packet was just numbered, at the newest
// end of the send queue.
func (w *Worker) enqueue(idx int32) {
	pd := &w.pend[idx]
	pd.prev, pd.next = w.newest, -1
	if w.newest >= 0 {
		w.pend[w.newest].next = idx
	} else {
		w.oldest = idx
	}
	w.newest = idx
}

// unlink takes slot idx out of the send queue.
func (w *Worker) unlink(idx int32) {
	pd := &w.pend[idx]
	if pd.prev >= 0 {
		w.pend[pd.prev].next = pd.next
	} else {
		w.oldest = pd.next
	}
	if pd.next >= 0 {
		w.pend[pd.next].prev = pd.prev
	} else {
		w.newest = pd.prev
	}
}

// HandleResult consumes a result packet from the switch (Algorithm 4
// lines 9-19). It returns the follow-up update packet reusing the
// freed slot (nil when the tensor has no unsent chunks left) and
// whether the whole aggregation just completed. Stale or alien
// results are ignored with (nil, false).
func (w *Worker) HandleResult(p *packet.Packet) (next *packet.Packet, done bool) {
	dst, ok := w.admit(p.Kind, p.JobID, p.Idx, p.Off, p.Ver, len(p.Vector))
	if !ok {
		return nil, false
	}
	s, done := w.complete(p.Idx) // before the copy, as in Pump.Result
	copy(dst, p.Vector)
	return s.Packet(), done
}

// admit makes HandleResult's checks on a result of the given kind, job,
// slot, offset and version carrying n elements — kind, job, slot in the
// pool, slot pending, offset, version, length — counting a result that
// fails one as stale. For a result that passes it returns the span of
// the aggregate the elements belong in, for the caller to write once it
// has called complete. The empty result needs no span: it is the
// switch's "gone" reply (quorum mode) — the phase completed and was
// evicted without this worker's contribution, so no aggregate exists
// for it to read — and admit completes the chunk from the local update
// itself; the rest of the membership already excluded this gradient.
// Updates always carry at least one element, so a genuine aggregate can
// never be empty. The fields come as arguments rather than as a
// packet.Header: a header copied out of a packet per result costs a
// store-forwarding stall.
func (w *Worker) admit(kind packet.Kind, job uint16, idx uint32, off uint64, ver uint8, n int) ([]int32, bool) {
	if kind != packet.KindResult && kind != packet.KindResultUnicast {
		w.ctr.staleResults.Inc()
		return nil, false
	}
	if job != w.cfg.JobID || int(idx) >= w.cfg.PoolSize {
		w.ctr.staleResults.Inc()
		return nil, false
	}
	pd := &w.pend[idx]
	if !pd.active || pd.off != off || pd.ver != ver {
		// Duplicate (multicast racing a unicast reply), a leftover
		// from a previous tensor, or garbage.
		w.ctr.staleResults.Inc()
		return nil, false
	}
	local := int(off - w.base)
	switch n {
	case 0:
		copy(w.a[local:local+pd.elems], w.u[local:local+pd.elems])
		w.ctr.selfCompletions.Inc()
		return nil, true
	case pd.elems:
		return w.a[local : local+pd.elems], true
	}
	w.ctr.staleResults.Inc()
	return nil, false
}

// complete retires slot idx's chunk once admit accepted its result, and
// returns the slot's follow-up update (Algorithm 4 lines 13-18), nil if
// there is none, and whether the aggregation just completed.
func (w *Worker) complete(idx uint32) (next *Send, done bool) {
	pd := &w.pend[idx]
	local := int(pd.off - w.base)
	w.ctr.results.Inc()
	if !pd.retx && pd.seq > w.acked {
		w.acked = pd.seq
	}
	w.remaining -= pd.elems
	w.chunkDone[local/w.cfg.SlotElems] = true
	pd.active = false
	w.unlink(int32(idx))
	w.inflight--

	// Algorithm 4 line 13: the slot's next chunk is k·s elements
	// further into the stream. Chunks already aggregated (possible
	// after a failure-recovery resume re-opened an interleaved window)
	// are skipped.
	nextLocal := local + w.cfg.SlotElems*w.cfg.PoolSize
	for nextLocal < len(w.u) && w.chunkDone[nextLocal/w.cfg.SlotElems] {
		nextLocal += w.cfg.SlotElems * w.cfg.PoolSize
	}
	if nextLocal < len(w.u) {
		next = w.sendChunk(idx, nextLocal)
	}
	if w.remaining == 0 {
		// Stream advances only once the tensor is fully aggregated.
		w.base += uint64(len(w.u))
		return next, true
	}
	return next, false
}

// Retransmit rebuilds the in-flight packet for a slot whose
// retransmission timer expired (Algorithm 4 lines 20-23). It returns
// nil if the slot has no in-flight chunk (the result arrived between
// the timeout firing and this call).
func (w *Worker) Retransmit(idx uint32) *packet.Packet { return w.RetransmitSend(idx).Packet() }

// RetransmitSend is Retransmit without the packet: the slot's update,
// nil if the slot has no in-flight chunk.
func (w *Worker) RetransmitSend(idx uint32) *Send {
	if int(idx) >= len(w.pend) {
		return nil
	}
	pd := &w.pend[idx]
	if !pd.active {
		return nil
	}
	w.ctr.retransmissions.Inc()
	switch {
	case pd.lapped:
		w.ctr.earlyRetransmissions.Inc()
	case pd.probed:
		w.ctr.probeRetransmissions.Inc()
	}
	// A fresh number, the newest in flight: a lost retransmission is
	// lapped in its own turn.
	w.seq++
	pd.seq, pd.retx, pd.lapped, pd.probed = w.seq, true, false, false
	w.unlink(int32(idx))
	w.enqueue(int32(idx))
	return w.send(idx, pd)
}

// Lapped appends to dst the slots whose in-flight packet has been
// overtaken by a whole window and returns it: a result has been
// accepted for a never-retransmitted packet this worker sent at least
// PoolSize sends after the slot's own. Self-clocked, in-order
// streaming (Algorithm 4) answers packets in the order they were
// sent and holds at most PoolSize of them in flight, so without a
// loss no pending packet ever falls that far behind; result
// reordering of fewer than PoolSize positions cannot fake it. A host
// that retransmits the reported slots recovers a loss in about one
// trip round the window instead of one timeout. What no later traffic
// can lap — the last window of a tensor, a tensor of a single window,
// a silent switch — needs a clock: a Pump's overtake and tail-probe
// rules cover the first two a probe timeout after the loss, the host's
// timer the third. Each send is reported at most once; Retransmit
// renumbers the slot, so a lost retransmission is reported again when
// it is lapped in its turn. Lapped allocates only if dst must grow
// beyond PoolSize entries.
//
//switchml:hotpath
func (w *Worker) Lapped(dst []uint32) []uint32 {
	window := uint64(w.cfg.PoolSize)
	if w.acked < window {
		return dst
	}
	mark := w.acked - window
	// Oldest first, up to the first packet the mark has not passed: in a
	// lossless run that is the first one looked at.
	for i := w.oldest; i >= 0; i = w.pend[i].next {
		pd := &w.pend[i]
		w.examined++
		if pd.seq > mark {
			break
		}
		if !pd.lapped {
			pd.lapped = true
			dst = append(dst, uint32(i)) //switchml:allow hotpath -- append into the caller's reused buffer; at most PoolSize entries
		}
	}
	return dst
}

// ChunkCount returns the number of chunks in the current (or last
// completed) tensor.
func (w *Worker) ChunkCount() int { return len(w.chunkDone) }

// FirstMissingChunk returns the index of the first chunk of the
// current tensor whose aggregate has not been received — the worker's
// progress frontier, reported to the failure controller during
// recovery. It equals ChunkCount when the tensor is complete.
func (w *Worker) FirstMissingChunk() int {
	for c, done := range w.chunkDone {
		if !done {
			return c
		}
	}
	return len(w.chunkDone)
}

// JobID returns the job generation currently stamped on packets.
func (w *Worker) JobID() uint16 { return w.cfg.JobID }

// SetJobID installs a new job generation for subsequent packets,
// without touching tensor state; used when the controller bumps the
// epoch between tensors (Resume covers the mid-tensor case).
func (w *Worker) SetJobID(id uint16) { w.cfg.JobID = id }

// FrontierOff returns the worker's progress frontier as a global
// stream offset: the offset of the first element whose aggregate is
// missing. When the current tensor is complete (or none was started)
// it points at the start of the next tensor. Stream offsets are
// comparable across workers, so the controller takes the minimum of
// the reported frontiers as the global recovery boundary.
func (w *Worker) FrontierOff() uint64 {
	if w.remaining == 0 {
		return w.base
	}
	return w.base + uint64(w.FirstMissingChunk()*w.cfg.SlotElems)
}

// ResumeAt is Resume with the frontier expressed as a global stream
// offset (the form the recovery handshake carries). An offset before
// the current tensor cannot be honored — the data of earlier tensors
// is no longer buffered — and returns an error so the caller can fail
// fast instead of deadlocking the collective.
//
//switchml:allow hotpath -- recovery entry point: runs once per job generation, when a resume directive arrives, never per packet
func (w *Worker) ResumeAt(jobID uint16, off uint64) ([]*packet.Packet, error) {
	if len(w.u) != 0 && w.remaining > 0 && off < w.base {
		return nil, fmt.Errorf("core: recovery frontier %d precedes current tensor at %d; earlier tensors are not buffered", off, w.base)
	}
	base := w.base
	if w.remaining == 0 && len(w.u) != 0 {
		base -= uint64(len(w.u)) // tensor complete: base already advanced
		if off < base {
			return nil, fmt.Errorf("core: recovery frontier %d precedes last tensor at %d; earlier tensors are not buffered", off, base)
		}
		if off >= base+uint64(len(w.u)) {
			// The frontier sits at the completed tensor's end: there is
			// nothing to re-open, only the generation to install. The
			// floor division below must not see this case — a tensor
			// whose final chunk is short would floor the end offset
			// back into that chunk and spuriously re-open it.
			return w.Resume(jobID, len(w.chunkDone)), nil
		}
	}
	return w.Resume(jobID, int((off-base)/uint64(w.cfg.SlotElems))), nil
}

// chunkElems returns the element count of chunk c (the final chunk
// may be short).
func (w *Worker) chunkElems(c int) int {
	elems := len(w.u) - c*w.cfg.SlotElems
	if elems > w.cfg.SlotElems {
		elems = w.cfg.SlotElems
	}
	return elems
}

// Resume re-opens the interrupted tensor from the global recovery
// frontier under a new job generation, after the controller detected a
// failure, reconfigured the membership and drained the switch pool
// (§5.6). Every chunk at or beyond fromChunk is re-aggregated — even
// ones this worker already received — so that all survivors run the
// identical slot schedule and converge to bitwise-identical
// aggregates; chunks before the frontier (completed on every worker)
// are kept. All in-flight state is discarded (the pool it referred to
// is gone) and the per-slot pool versions restart at zero, matching
// the freshly reset switch. The returned packets are the new initial
// window; the caller arms retransmission timers as after Start.
//
// Calling Resume with no tensor ever started, or with fromChunk past
// the end, installs the new job generation and returns nil. A tensor
// that had already completed locally is re-opened, and the host must
// be prepared for its completion callback to fire a second time.
func (w *Worker) Resume(jobID uint16, fromChunk int) []*packet.Packet {
	w.cfg.JobID = jobID
	w.discardWindow()
	for i := range w.ver {
		w.ver[i] = 0
	}
	chunks := len(w.chunkDone)
	if len(w.u) == 0 || fromChunk >= chunks {
		return nil
	}
	if fromChunk < 0 {
		fromChunk = 0
	}
	reopened := w.remaining == 0
	if reopened {
		// The stream advanced when the tensor completed locally;
		// rewind it so re-sent chunks carry their original offsets.
		w.base -= uint64(len(w.u))
	}
	for c := fromChunk; c < chunks; c++ {
		w.chunkDone[c] = false
	}
	w.remaining = 0
	for c := 0; c < chunks; c++ {
		if !w.chunkDone[c] {
			w.remaining += w.chunkElems(c)
		}
	}

	window := w.cfg.PoolSize
	if left := chunks - fromChunk; left < window {
		window = left
	}
	pkts := make([]*packet.Packet, 0, window)
	for i := 0; i < window; i++ {
		c := fromChunk + i
		// The chunk→slot mapping is position-invariant (chunk c lives
		// in slot c mod s), so survivors resuming from the same
		// frontier land every chunk in the same slot with the same
		// version, restoring the implicit coordination of §3.4.
		pkts = append(pkts, w.sendChunk(uint32(c%w.cfg.PoolSize), c*w.cfg.SlotElems).Packet())
	}
	return pkts
}

// JoinAt initializes a joining worker's stream cursor at the global
// frontier off under the admitting job generation. The elastic-join
// commit wipes the switch pool and resumes every incumbent with
// per-slot versions reset to zero, so the joiner's fresh version
// vector is consistent with the membership it enters. JoinAt panics
// if an aggregation is in progress — a joiner has nothing in flight.
func (w *Worker) JoinAt(jobID uint16, off uint64) {
	if w.remaining > 0 {
		panic("core: JoinAt called while an aggregation is in progress")
	}
	w.cfg.JobID = jobID
	w.base = off
	w.u = nil
	w.a, w.lent = w.own[:0], false
	w.chunkDone = w.chunkDone[:0]
	w.discardWindow()
	for i := range w.ver {
		w.ver[i] = 0
	}
}

// Update returns the local update tensor of the current (or last
// completed) aggregation — the raw contribution the degraded path
// re-aggregates by host all-reduce. The slice aliases the caller's
// buffer from Start/StartHosted.
func (w *Worker) Update() []int32 { return w.u }

// TensorBase returns the stream offset of the current (or last
// completed) tensor's first element. Unlike the internal base cursor
// it does not advance on completion, so it names the same boundary on
// every worker regardless of local progress.
func (w *Worker) TensorBase() uint64 {
	if w.remaining == 0 && len(w.u) != 0 {
		return w.base - uint64(len(w.u))
	}
	return w.base
}

// TensorEnd returns the stream offset one past the current (or last
// completed) tensor's final element.
func (w *Worker) TensorEnd() uint64 { return w.TensorBase() + uint64(len(w.u)) }

// StartHosted opens the tensor u for aggregation without producing an
// update window: in degraded mode the sum is computed by host
// all-reduce and delivered through InstallHostAggregate instead of
// switch packets. Keeping the tensor open in the same state machine
// preserves stream offsets and chunk accounting, so a later failback
// hands the switch a consistent frontier. Like Start, it panics if an
// aggregation is already in progress; an empty tensor is a no-op (the
// host completes it immediately, as Start's nil window does).
func (w *Worker) StartHosted(u []int32) {
	if w.remaining > 0 {
		panic("core: StartHosted called while an aggregation is in progress")
	}
	if len(u) == 0 {
		return
	}
	w.u = u
	if w.lent = len(w.loan) == len(u); w.lent {
		w.a = w.loan
	} else {
		w.a = w.ownSized(len(u))
	}
	w.loan = nil
	w.remaining = len(u)
	chunks := (len(u) + w.cfg.SlotElems - 1) / w.cfg.SlotElems
	if cap(w.chunkDone) >= chunks {
		w.chunkDone = w.chunkDone[:chunks]
		for i := range w.chunkDone {
			w.chunkDone[i] = false
		}
	} else {
		w.chunkDone = make([]bool, chunks)
	}
}

// InstallHostAggregate installs the host-computed aggregate for the
// tensor suffix [off, TensorEnd): the barrier-handoff write of the
// degraded path. The offset must be chunk-aligned, at or before this
// worker's progress frontier (so no chunk is left half-aggregated
// between the two fabrics), and vals must cover exactly the suffix —
// anything else is a torn tensor and is rejected. Chunks the switch
// already completed beyond off are overwritten; integer summation is
// order-invariant, so the values are bit-identical. On success the
// tensor is complete and the stream advances exactly as if the switch
// had finished it.
func (w *Worker) InstallHostAggregate(off uint64, vals []int32) error {
	if len(w.u) == 0 {
		if len(vals) == 0 && off == w.base {
			return nil
		}
		return fmt.Errorf("core: no tensor open for host aggregate at offset %d", off)
	}
	base := w.TensorBase()
	local := int64(off) - int64(base)
	if local < 0 || local > int64(len(w.u)) {
		return fmt.Errorf("core: host aggregate offset %d outside tensor [%d,%d)", off, base, base+uint64(len(w.u)))
	}
	if local%int64(w.cfg.SlotElems) != 0 {
		return fmt.Errorf("core: host aggregate offset %d is not chunk-aligned", off)
	}
	if int(local)+len(vals) != len(w.u) {
		return fmt.Errorf("core: host aggregate covers [%d,%d), want the full suffix to %d", off, off+uint64(len(vals)), base+uint64(len(w.u)))
	}
	if w.remaining == 0 {
		// The switch completed the tensor before the handoff; the host
		// sum is bit-identical, so the overwrite is a no-op.
		copy(w.a[local:], vals)
		return nil
	}
	if off > w.FrontierOff() {
		return fmt.Errorf("core: host aggregate frontier %d is past this worker's frontier %d: chunk would be torn between fabrics", off, w.FrontierOff())
	}
	copy(w.a[local:], vals)
	w.discardWindow()
	for c := int(local) / w.cfg.SlotElems; c < len(w.chunkDone); c++ {
		w.chunkDone[c] = true
	}
	w.remaining = 0
	w.base = base + uint64(len(w.u))
	return nil
}

// Pending reports whether slot idx has an in-flight chunk.
func (w *Worker) Pending(idx uint32) bool {
	return int(idx) < len(w.pend) && w.pend[idx].active
}

// PendingCount returns the number of in-flight chunks.
func (w *Worker) PendingCount() int { return w.inflight }

// discardWindow forgets everything in flight: the pool it was sent to
// is gone or abandoned.
func (w *Worker) discardWindow() {
	w.window++
	w.inflight = 0
	for i := w.oldest; i >= 0; i = w.pend[i].next {
		w.pend[i].active = false
	}
	w.oldest, w.newest = -1, -1
	w.initNext, w.initEnd = 0, 0
}
