package transport

import (
	"errors"
	"fmt"
	"net"
	"time"

	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// Elastic membership: the worker-side half of graceful join and leave
// (the aggregator half lives in elastic.go).
//
// The fence hold, the drain and the join below are modes of the client
// loop (run, in client.go; DESIGN.md "The client loop"), which reads
// the aggregator socket for them as it does for the window pump.
//
// An incumbent's whole obligation is the fence hold: when a Ver=1
// KindReconfig announces a membership change, the client finishes its
// in-flight tensor as usual, and the next AllReduce call first holds
// at the tensor boundary (the fence mode) — confirming the boundary
// offset with a Ver=1 KindReport at its RTO, serving model-state
// segments to the joiner over the fallback mesh if a state provider is
// installed — until a KindResume releases it under the new generation.
// All of that happens inside AllReduceInt32; callers see nothing but
// a slightly longer step.
//
// A leaver calls Drain between AllReduce calls (the drain mode): the
// drain boundary (the worker's stream frontier) rides on a KindLeave
// that is retransmitted until the aggregator echoes it, after which the
// client is done — every later AllReduce fails fast with ErrDrained.
//
// A joiner calls JoinCluster before its first AllReduce (the join
// mode): KindJoin is retransmitted until the fence opens, model state
// is fetched from an incumbent over the mesh (when one is configured),
// readiness is confirmed, and the commit's KindResume seeds the stream
// cursor at the boundary every incumbent is holding at.

// ErrDrained is returned by AllReduceInt32 after a successful Drain:
// the worker has left the job and its collectives are over.
var ErrDrained = errors.New("transport: worker drained from job")

// stateSegElems is the mesh state-transfer segment size in elements;
// well under the 64 KiB datagram ceiling at 4 bytes per element.
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

// meshBuf returns the pooled 64 KiB mesh receive buffer, allocated on
// first use. It is owned by whichever single goroutine drives the
// client (the client is documented as not safe for concurrent use);
// see fetchState for the ownership note versus c.rbuf.
func (c *Client) meshBuf() []byte {
	if c.mbuf == nil {
		c.mbuf = make([]byte, 65536)
	}
	return c.mbuf
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

// statePeer picks the incumbent to fetch model state from: the
// lowest-id mesh peer that is not this worker.
func (c *Client) statePeer() *net.UDPAddr {
	for i, ap := range c.fb.peers {
		if ap != nil && i != int(c.cfg.Worker.ID) {
			return ap
		}
	}
	return nil
}

// fetchState pulls the model snapshot from an incumbent holding at
// the fence, one segment per request (requester-driven ARQ: lost
// requests and replies are both repaired by re-requesting). The first
// reply carries the total element count.
func (c *Client) fetchState(deadline time.Time) ([]int32, error) {
	peer := c.statePeer()
	if peer == nil {
		return nil, nil
	}
	var state []int32
	total := -1
	off := 0
	// The mesh receive buffer and decoded packet are the client's
	// pooled c.mbuf/c.mp rather than per-call allocations: fetchState
	// (the joiner, before its first AllReduce) and serveState (an
	// incumbent, inside its fence hold) are the only users, both on
	// the single goroutine driving the client — they can never run
	// concurrently on one client, so sharing the pool is safe. c.rbuf
	// stays distinct: the degraded path's mesh loops read into it.
	buf := c.meshBuf()
	p := &c.mp
	for total < 0 || off < total {
		got := false
		for try := 0; try < 16 && !got; try++ {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("transport: state fetch timed out at offset %d", off)
			}
			c.cbuf = packet.NewControl(packet.KindStateReq, c.cfg.Worker.ID, 0, uint64(off), nil).AppendMarshal(c.cbuf[:0])
			if _, err := c.fb.mesh.WriteToUDP(c.cbuf, peer); err != nil {
				c.sendErrs.Inc()
				continue
			}
			if err := c.fb.mesh.SetReadDeadline(time.Now().Add(c.cfg.RTO)); err != nil {
				return nil, err
			}
			for {
				n, _, err := c.fb.mesh.ReadFromUDP(buf)
				if err != nil {
					break
				}
				if packet.UnmarshalInto(p, buf[:n]) != nil {
					continue
				}
				if p.Kind != packet.KindStateData || p.Off != uint64(off) {
					continue
				}
				if total < 0 {
					total = int(p.Idx)
					state = make([]int32, 0, total)
				}
				state = append(state, p.Vector...)
				off += len(p.Vector)
				got = true
				break
			}
		}
		if !got {
			return nil, fmt.Errorf("transport: state fetch got no reply at offset %d", off)
		}
		if total == 0 {
			break
		}
	}
	return state, nil
}

// serveState answers pending mesh state requests from the joiner with
// segments of the boundary-aligned snapshot. Called from the fence
// hold loop; the short poll deadline keeps the hold responsive.
func (c *Client) serveState(state []int32) {
	if err := c.fb.mesh.SetReadDeadline(time.Now().Add(time.Millisecond)); err != nil {
		return
	}
	c.meshBuf()
	for {
		n, src, err := c.fb.mesh.ReadFromUDP(c.mbuf)
		if err != nil {
			return
		}
		if packet.UnmarshalInto(&c.mp, c.mbuf[:n]) != nil {
			continue
		}
		if c.mp.Kind != packet.KindStateReq {
			continue // stale mesh-ring traffic
		}
		off := int(c.mp.Off)
		if off < 0 || off > len(state) {
			continue
		}
		seg := stateSegElems
		if off+seg > len(state) {
			seg = len(state) - off
		}
		out := packet.Packet{
			Kind:     packet.KindStateData,
			WorkerID: c.cfg.Worker.ID,
			JobID:    c.mp.JobID,
			Idx:      uint32(len(state)),
			Off:      uint64(off),
			Vector:   state[off : off+seg],
		}
		c.fb.sbuf = out.AppendMarshal(c.fb.sbuf[:0])
		if _, err := c.fb.mesh.WriteToUDP(c.fb.sbuf, src); err != nil {
			c.sendErrs.Inc()
		}
	}
}
