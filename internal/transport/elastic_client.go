package transport

import (
	"errors"
	"net/netip"
	"time"

	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// Elastic membership: the worker-side half of graceful join and leave
// (the aggregator half lives in elastic.go).
//
// The fence hold, the drain, the join and the joiner's state fetch below
// are modes of the client loop (run, in client.go; DESIGN.md "The
// client loop"), which reads the aggregator socket for the first three
// as it does for the window pump, and the mesh socket for the fetch and
// for the mesh turns of a fence hold that serves state.
//
// An incumbent's whole obligation is the fence hold: when a Ver=1
// KindReconfig announces a membership change, the client finishes its
// in-flight tensor as usual, and the next AllReduce call first holds
// at the tensor boundary (the fence mode) — confirming the boundary
// offset with a Ver=1 KindReport at its RTO, serving model-state
// segments to the joiner over the fallback mesh if a state provider is
// installed (to mesh peers only) — until a KindResume releases it under
// the new generation. All of that happens inside AllReduceInt32;
// callers see nothing but a slightly longer step.
//
// A leaver calls Drain between AllReduce calls (the drain mode): the
// drain boundary (the worker's stream frontier) rides on a KindLeave
// that is retransmitted until the aggregator echoes it, after which the
// client is done — every later AllReduce fails fast with ErrDrained.
//
// A joiner calls JoinCluster before its first AllReduce (the join
// mode): KindJoin is retransmitted until the fence opens, model state
// is fetched from an incumbent over the mesh (the fetch mode, when a
// mesh is configured; replies are taken from that incumbent only),
// readiness is confirmed, and the commit's KindResume seeds the stream
// cursor at the boundary every incumbent is holding at.

// ErrDrained is returned by AllReduceInt32 after a successful Drain:
// the worker has left the job and its collectives are over.
var ErrDrained = errors.New("transport: worker drained from job")

// stateSegElems is the mesh state-transfer segment size in elements;
// well under the 64 KiB datagram ceiling at 4 bytes per element, and
// within the mesh socket view's MTU (meshMTU).
const stateSegElems = 1024

// SetStateProvider installs the model-state snapshot callback served
// to joiners over the fallback mesh while this client holds at a
// membership fence. The callback runs on the AllReduce goroutine at a
// tensor boundary, so the snapshot is step-aligned with the boundary
// the joiner enters at.
func (c *Client) SetStateProvider(f func() []int32) { c.stateProvider = f }

// Frontier returns the worker's stream frontier — after JoinCluster,
// the global offset the worker was admitted at, from which the caller
// can derive the step to resume training from.
func (c *Client) Frontier() uint64 { return c.worker.FrontierOff() }

// Drained reports whether this client has completed a graceful leave.
func (c *Client) Drained() bool { return c.drained }

// armFence records a Ver=1 reconfigure directive: a membership change
// is proposed, and this worker must hold at its next tensor boundary
// (a joiner: it is admitted, and confirms). Being absent from the
// future membership means eviction, exactly as with the Ver=0
// directive. The directive is confirmed at once, and a rebroadcast
// (possibly a fresh fence after an abort) restarts the joiner's count
// of unanswered confirms.
func (c *Client) armFence(p *packet.Packet) error {
	if err := c.evicted(p); err != nil {
		return err
	}
	c.fenceArmed, c.fenceGen = true, p.JobID
	c.confirms, c.nextTx = 0, time.Time{}
	return nil
}

// adoptEpoch installs a new job generation. The retransmission state
// needs no reset here: the pump drops it with the window the worker's
// Resume or JoinAt discarded.
func (c *Client) adoptEpoch(gen uint16) {
	c.epoch = gen
	c.gEpoch.Set(int64(gen))
}

// Drain announces a graceful leave and returns once the aggregator
// acknowledges it. Call it between AllReduce calls (the client is not
// safe for concurrent use): the announcement carries the worker's
// stream frontier as the drain boundary, the aggregator excuses the
// worker's silence from the failure detector immediately, and the
// membership shrinks once every other worker has passed the boundary.
// After a successful Drain every AllReduceInt32 returns ErrDrained.
func (c *Client) Drain() error {
	if c.drained {
		return nil
	}
	c.trace(telemetry.EvDrainStart, -1)
	return c.run(modeDrain, c.tick().Add(drainTries*c.cfg.RTO))
}

// JoinCluster runs the graceful-join handshake: solicit admission,
// fetch model state from an incumbent over the fallback mesh (when
// one is configured and an incumbent serves it), confirm readiness,
// and seed the stream cursor at the boundary the fence committed.
// It returns the fetched state (nil without a mesh) — the caller
// installs it and derives the resume step from Frontier. Call it
// before the first AllReduce.
func (c *Client) JoinCluster() ([]int32, error) {
	if err := c.run(modeJoin, c.tick().Add(c.cfg.Timeout)); err != nil {
		return nil, err
	}
	return c.snapshot, nil
}

// stateFetch is a joiner's state fetch in flight: the incumbent asked,
// the offset requested, the snapshot's length once the first reply
// names it (-1 before), and the requests made at this offset.
type stateFetch struct {
	from              netip.AddrPort
	off, total, tries int
}

// startFetch enters the fetch mode against the lowest-id mesh peer that
// is not this worker, pulling the model snapshot one segment per request
// (requester-driven ARQ: lost requests and replies are both repaired by
// re-requesting). With no such peer the join proceeds stateless.
func (c *Client) startFetch() {
	for i, ap := range c.fb.peers {
		if ap.IsValid() && i != int(c.cfg.Worker.ID) {
			c.fetch = stateFetch{from: ap, total: -1}
			c.mode, c.nextTx = modeFetch, time.Time{}
			return
		}
	}
}

// takeState takes the asked incumbent's reply: the segment at the
// fetch's offset is appended (the first reply carries the total element
// count) and the next is requested at once; the last one returns the
// loop to the join mode, which confirms at once.
func (c *Client) takeState(p *packet.Packet) {
	f := &c.fetch
	if p.Off != uint64(f.off) {
		return // a duplicate of an earlier segment
	}
	if f.total < 0 {
		f.total = int(p.Idx)
		c.snapshot = make([]int32, 0, f.total)
	}
	c.snapshot = append(c.snapshot, p.Vector...)
	f.off += len(p.Vector)
	f.tries, c.nextTx = 0, time.Time{}
	if f.off >= f.total {
		c.mode = modeJoin
	}
}

// serveState answers a mesh peer's state request from a fence hold with
// the segment of the boundary-aligned snapshot at the requested offset.
func (c *Client) serveState(p *packet.Packet, to netip.AddrPort) {
	state := c.snapshot
	c.meshEnd = c.now.Add(time.Millisecond) // the fence hold's mesh turn goes on
	if p.Off > uint64(len(state)) {
		return
	}
	off := int(p.Off)
	seg := min(stateSegElems, len(state)-off)
	out := packet.Packet{
		Kind:     packet.KindStateData,
		WorkerID: c.cfg.Worker.ID,
		JobID:    p.JobID,
		Idx:      uint32(len(state)),
		Off:      p.Off,
		Vector:   state[off : off+seg],
	}
	c.fb.sbuf = out.AppendMarshal(c.fb.sbuf[:0])
	c.fb.nc.AppendTo(c.fb.sbuf, to)
}
