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
// An incumbent's whole obligation is the fence hold: when a Ver=1
// KindReconfig announces a membership change, the client finishes its
// in-flight tensor as usual, and the next AllReduce call first parks
// at the tensor boundary — confirming the boundary offset with a
// Ver=1 KindReport at its RTO, serving model-state segments to the
// joiner over the fallback mesh if a state provider is installed —
// until the commit's KindResume releases it under the new generation.
// All of that happens inside AllReduceInt32; callers see nothing but
// a slightly longer step.
//
// A leaver calls Drain between AllReduce calls: the drain boundary
// (the worker's stream frontier) rides on a KindLeave that is
// retransmitted until the aggregator echoes it, after which the
// client is done — every later AllReduce fails fast with ErrDrained.
//
// A joiner calls JoinCluster before its first AllReduce: KindJoin is
// retransmitted until the fence opens, model state is fetched from an
// incumbent over the mesh (when one is configured), readiness is
// confirmed, and the commit's KindResume seeds the stream cursor at
// the boundary every incumbent is holding at.

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
// is proposed, and this worker must hold at its next tensor boundary.
// Being absent from the future membership means eviction, exactly as
// with the Ver=0 directive.
func (c *Client) armFence(p *packet.Packet) error {
	if err := c.evicted(p); err != nil {
		return err
	}
	c.fenceArmed = true
	c.fenceGen = p.JobID
	return nil
}

// sendFenceConfirm emits the Ver=1 boundary confirmation.
func (c *Client) sendFenceConfirm(gen uint16, off uint64) error {
	pk := packet.NewControl(packet.KindReport, c.cfg.Worker.ID, gen, off, nil)
	pk.Ver = 1
	c.cbuf = pk.AppendMarshal(c.cbuf[:0])
	if _, err := c.conn.Write(c.cbuf); err != nil {
		if c.fb != nil && deadDestination(err) {
			return nil
		}
		return fmt.Errorf("transport: send: %w", err)
	}
	c.sent.Inc()
	return nil
}

// holdAtFence parks the worker at its tensor boundary until the
// membership fence commits (or is superseded by a §5.6 recovery).
// It returns reopened=true when a recovery resumed the previous
// tensor below the boundary: the caller must drive that tensor back
// to completion before starting the next one. An aggregator that goes
// silent mid-fence abandons the hold and lets the normal path's
// silence detector deliver its verdict.
func (c *Client) holdAtFence(deadline time.Time) (reopened bool, err error) {
	hold := c.worker.FrontierOff()
	var state []int32
	if c.stateProvider != nil && c.fb != nil {
		state = c.stateProvider()
	}
	var lastConfirm time.Time
	for {
		if time.Now().After(deadline) {
			return false, fmt.Errorf("transport: membership fence (generation %d) timed out holding at offset %d", c.fenceGen, hold)
		}
		if silence := time.Since(c.lastProgress); silence >= c.silenceAfter() {
			c.fenceArmed = false
			return false, nil
		}
		if time.Since(lastConfirm) >= c.cfg.RTO {
			if err := c.sendFenceConfirm(c.fenceGen, hold); err != nil {
				return false, err
			}
			lastConfirm = time.Now()
		}
		if state != nil {
			c.serveState(state)
		}
		if err := c.conn.SetReadDeadline(time.Now().Add(c.cfg.RTO / 2)); err != nil {
			return false, err
		}
		n, err := c.conn.Read(c.rbuf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			if c.fb != nil {
				time.Sleep(c.cfg.RTO / 8)
				continue
			}
			return false, err
		}
		c.recvd.Inc()
		if packet.UnmarshalInto(&c.rp, c.rbuf[:n]) != nil {
			c.corrupt.Inc()
			continue
		}
		c.lastProgress = c.tick()
		//switchml:dispatch
		switch c.rp.Kind {
		case packet.KindResume:
			p := &c.rp
			if p.JobID == c.epoch {
				continue // repeated directive for an adopted generation
			}
			if p.Off == hold {
				// The fence committed (or a recovery landed exactly on
				// our boundary): adopt the generation with per-slot
				// versions reset to match the wiped pool.
				c.worker.Resume(p.JobID, c.worker.ChunkCount())
				c.adoptEpoch(p.JobID)
				c.fenceArmed = false
				return false, nil
			}
			// A §5.6 recovery superseded the fence with a frontier
			// below our boundary: some survivor still needs chunks of
			// the previous tensor re-aggregated, so re-open it and let
			// the caller drive it back to completion.
			pkts, rerr := c.worker.ResumeAt(p.JobID, p.Off)
			if rerr != nil {
				return false, fmt.Errorf("transport: fence superseded: %w", rerr)
			}
			c.adoptEpoch(p.JobID)
			c.fenceArmed = false
			c.trace(telemetry.EvResume, -1)
			c.sendPackets(pkts)
			return true, nil
		case packet.KindReconfig:
			p := &c.rp
			if p.Ver == 1 {
				// Fence rebroadcast (possibly a fresh fence after an
				// abort): refresh the proposed generation.
				if err := c.armFence(p); err != nil {
					return false, err
				}
				lastConfirm = time.Time{} // confirm the new generation now
				continue
			}
			// §5.6 recovery mid-fence: the fence is aborted aggregator-
			// side. Report our frontier (the boundary) and keep holding
			// for the recovery's resume, which releases us above.
			if err := c.evicted(p); err != nil {
				return false, err
			}
			if err := c.sendControl(packet.KindReport, p.JobID, hold, nil); err != nil {
				return false, err
			}
		default:
			// Stale results from the finished tensor; count the drops
			// so a wedged fence is diagnosable from the counters.
			c.unexpected.Inc()
		}
	}
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
	off := c.worker.FrontierOff()
	c.trace(telemetry.EvDrainStart, -1)
	const tries = 64
	for try := 0; try < tries; try++ {
		if err := c.sendControl(packet.KindLeave, c.epoch, off, nil); err != nil {
			return err
		}
		if err := c.conn.SetReadDeadline(time.Now().Add(c.cfg.RTO)); err != nil {
			return err
		}
		for {
			n, err := c.conn.Read(c.rbuf)
			if err != nil {
				break // deadline (or transient): re-announce
			}
			c.recvd.Inc()
			if packet.UnmarshalInto(&c.rp, c.rbuf[:n]) != nil {
				c.corrupt.Inc()
				continue
			}
			if c.rp.Kind == packet.KindLeave {
				c.drained = true
				c.trace(telemetry.EvWorkerLeave, -1)
				return nil
			}
		}
	}
	return fmt.Errorf("transport: drain announcement unacknowledged after %d attempts", tries)
}

// JoinCluster runs the graceful-join handshake: solicit admission,
// fetch model state from an incumbent over the fallback mesh (when
// one is configured and an incumbent serves it), confirm readiness,
// and seed the stream cursor at the boundary the fence committed.
// It returns the fetched state (nil without a mesh) — the caller
// installs it and derives the resume step from Frontier. Call it
// before the first AllReduce.
func (c *Client) JoinCluster() ([]int32, error) {
	deadline := time.Now().Add(c.cfg.Timeout)
	var state []int32
	fetched := false
	admitted := false
	confirms := 0
	var gen uint16
	for {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("transport: join timed out after %v", c.cfg.Timeout)
		}
		if admitted {
			// A fence that went quiet was aborted by a crash recovery;
			// go back to soliciting and get a fresh one.
			if confirms++; confirms > 16 {
				admitted = false
			}
		}
		if !admitted {
			if err := c.sendControl(packet.KindJoin, c.cfg.Worker.JobID, 0, nil); err != nil {
				return nil, err
			}
		} else if err := c.sendFenceConfirm(gen, 0); err != nil {
			return nil, err
		}
		if err := c.conn.SetReadDeadline(time.Now().Add(c.cfg.RTO)); err != nil {
			return nil, err
		}
		n, err := c.conn.Read(c.rbuf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			if c.fb != nil {
				time.Sleep(c.cfg.RTO / 8)
				continue
			}
			return nil, err
		}
		c.recvd.Inc()
		if packet.UnmarshalInto(&c.rp, c.rbuf[:n]) != nil {
			c.corrupt.Inc()
			continue
		}
		//switchml:dispatch
		switch c.rp.Kind {
		case packet.KindReconfig:
			p := &c.rp
			if p.Ver != 1 || !c.isMember(p.Vector) {
				continue // not a fence, or one for someone else; keep soliciting
			}
			gen = p.JobID
			confirms = 0
			if !fetched {
				fetched = true
				if c.fb != nil {
					// Best effort: an incumbent without a state
					// provider just never answers, and the join
					// proceeds stateless.
					state, _ = c.fetchState(deadline)
				}
			}
			admitted = true
		case packet.KindResume:
			p := &c.rp
			c.worker.JoinAt(p.JobID, p.Off)
			c.adoptEpoch(p.JobID)
			c.gFrontier.Set(int64(p.Off))
			c.trace(telemetry.EvWorkerJoin, -1)
			return state, nil
		default:
			// The joiner's socket sees ordinary job traffic (results,
			// heartbeat acks) until the fence commits; count it rather
			// than silently spinning.
			c.unexpected.Inc()
		}
	}
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
	// stays distinct: it belongs to the aggregator-socket read path,
	// which a fence hold interleaves with mesh serving.
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
