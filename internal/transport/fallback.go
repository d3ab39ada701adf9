// Degraded-mode operation for the UDP transport: the client half of
// the self-healing design. When the aggregator goes silent mid-tensor
// every worker detects the outage independently (no progress for
// FallbackConfig.SuspectAfter), agrees with its peers on a chunk-
// aligned handoff frontier, and finishes the tensor — and subsequent
// ones — by ring all-reduce over a direct worker-to-worker UDP mesh.
// While degraded, each round opens with a probe to the aggregator; the
// workers exchange their probe-answer streaks in the round's barrier
// sync, and once the collective minimum reaches the probation
// threshold they all fail back in the same round under a new job
// generation. The generation fence is carried by the probes
// themselves: a probe proposes epoch+1, and an aggregator seeing a
// newer generation wipes its pool before answering, so nothing
// aggregated before the outage can leak into post-failback slots.
//
// The mesh ring runs allreduce.Ring's step schedule, the one the
// simulator's host fabric runs, under allreduce.ARQ, a go-back-N machine
// without I/O: segments carry a per-round sequence number, the receiver
// accepts them strictly in order and acks cumulatively, the sender goes
// back to the ack point on timeout or duplicate acks, and a rank that
// has finished its part keeps answering until its predecessor says it
// holds every ack, or a bounded linger runs out. Unlike the simulator's
// host fabric (which models a reliable kernel transport), real UDP
// loses mesh datagrams too — the ARQ is what makes the barrier handoff
// exact (DESIGN.md "The host collective"). The ring mode is its host:
// the socket, the clock, and the datagrams the machine hands out.
//
// The barrier and the ring are modes of the client loop (run, in
// client.go; DESIGN.md "The client loop") on the mesh socket, as are the
// state transfer's fetch and the fence hold's serving passes
// (elastic_client.go): every mesh datagram goes to one dispatch,
// handleMesh, and every mesh send is staged on the mesh socket's view
// and flushed by the loop.
package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sync/atomic"
	"time"

	"switchml/internal/allreduce"
	"switchml/internal/faults"
	"switchml/internal/netio"
	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// ErrAggregatorSilent is wrapped into errors caused by the aggregator
// (or the network path to it) going quiet — as opposed to bad input or
// a local failure. Callers can errors.Is for it and retry the step
// once the switch path is restored; the tensor was never partially
// aggregated across generations.
var ErrAggregatorSilent = errors.New("transport: aggregator unresponsive")

// errSilence is the internal verdict that flips the client into
// degraded mode mid-tensor. It never escapes AllReduceInt32.
var errSilence = errors.New("transport: silence threshold crossed")

// FallbackConfig enables hitless fallback to host ring all-reduce
// when the aggregator dies, and automatic failback when it returns.
type FallbackConfig struct {
	// Listen is the mesh socket's listen address (e.g. ":7001");
	// empty binds a wildcard ephemeral port, which multi-machine
	// deployments cannot pre-arrange — set it so peers can be listed
	// up front.
	Listen string
	// Peers holds each worker's mesh address, indexed by worker ID
	// (this worker's own entry is ignored). Leave nil and call
	// SetMeshPeers once every worker has bound its mesh socket and
	// published MeshAddr.
	Peers []string
	// SuspectAfter is how long the aggregator may yield no progress
	// mid-tensor before the worker degrades; zero selects 8×RTO. It
	// must exceed a worst-case aggregation pause (all slots in
	// retransmission backoff) or a slow network degrades spuriously —
	// which is safe but slower, since the probe fence forces the whole
	// job through a degraded round.
	SuspectAfter time.Duration
	// Probation is how many consecutive degraded rounds must see their
	// aggregator probe answered before the collective fails back; zero
	// selects 3. Negative pins the job on the mesh forever.
	Probation int
}

// meshSegElems is the mesh ring's datagram payload in elements (a
// 1,048-byte datagram, safely under any MTU worth using).
const meshSegElems = 256

// FallbackStats is a snapshot of the degraded-path counters. All
// counters are maintained atomically, so the snapshot is safe to take
// from a monitoring goroutine while AllReduceInt32 runs.
type FallbackStats struct {
	// Degrades counts switch→mesh transitions.
	Degrades uint64
	// Probes / ProbeAcks count aggregator probes sent and answered.
	Probes, ProbeAcks uint64
	// Failbacks counts mesh→switch transitions.
	Failbacks uint64
	// HostRounds / HostElems count tensors (and their elements)
	// aggregated by the mesh ring.
	HostRounds, HostElems uint64
	// MeshRetransmits counts go-back-N retransmissions on the mesh.
	MeshRetransmits uint64
}

// fallback is the client's degraded-mode state. Everything except the
// atomic counters and the degraded flag belongs to the AllReduce
// goroutine.
type fallback struct {
	cfg FallbackConfig
	// peers holds each worker's mesh address (IPv4 unmapped, as
	// meshAddr compares them), indexed by worker id; this worker's entry
	// and unlisted ones are the zero AddrPort.
	peers []netip.AddrPort
	// degraded is atomic only so monitoring goroutines may read it;
	// the AllReduce goroutine is the sole writer.
	degraded atomic.Bool
	// round numbers the degraded collectives; it stamps every mesh
	// datagram so stragglers from a finished round are recognized.
	round uint16
	// prob is the failback probation window, probing the aggregator
	// over the main connection.
	prob faults.Probation
	// nc is the view over the mesh socket: the client loop's mesh modes
	// read it, and every mesh datagram is staged on it and flushed by the
	// loop. unread is the rest of a burst a mode ended in the middle of,
	// in nc's receive arena, for the next mesh pass.
	nc     *netio.Conn
	unread []netio.Message
	// syncWire / prevSyncWire are the marshalled barrier syncs of the
	// current and previous rounds, replayed whenever a peer shows it
	// never received them; sbuf is the wire buffer of every other mesh
	// send (staging copies it out).
	syncWire, prevSyncWire, sbuf []byte
	// The barrier's roll (the sync mode): which peers' syncs are in, how
	// many are still missing, and the running minima of their frontiers
	// (F, the handoff boundary) and probe streaks (the failback vote).
	got       []bool
	remaining int
	F         uint64
	minStreak int
	// ring is the ARQ of the latest mesh-ring round (the ring mode), over
	// allreduce.Ring's schedule in meshSegElems segments, whose receive
	// numbering is the predecessor's send numbering; it answers the
	// predecessor until the next round replaces it.
	ring *allreduce.ARQ

	degrades, probes, probeAcks, failbacks atomic.Uint64
	hostRounds, hostElems, meshRetx        atomic.Uint64
}

// meshMTU is the mesh socket view's datagram ceiling: its largest
// datagram is a ring segment or a state-transfer reply, whichever
// carries more elements.
var meshMTU = aggWireMTU(max(meshSegElems, stateSegElems))

// meshAddr is the form mesh addresses are kept and compared in: a
// dual-stack socket reports IPv4 senders IPv4-mapped.
func meshAddr(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// MeshAddr returns the bound mesh socket address, or nil when the
// client has no fallback configured. Publish it (with a reachable
// host) to the other workers' SetMeshPeers.
func (c *Client) MeshAddr() *net.UDPAddr {
	if c.fb == nil {
		return nil
	}
	return c.fb.nc.UDP().LocalAddr().(*net.UDPAddr)
}

// SetMeshPeers installs the worker-indexed mesh address table. Call
// it before the first AllReduce (it is not synchronized with one).
func (c *Client) SetMeshPeers(addrs []string) error {
	if c.fb == nil {
		return errors.New("transport: no fallback configured")
	}
	return c.fb.resolvePeers(addrs, int(c.cfg.Worker.ID))
}

func (f *fallback) resolvePeers(addrs []string, self int) error {
	if len(addrs) == 0 {
		return nil
	}
	peers := make([]netip.AddrPort, len(addrs))
	for i, s := range addrs {
		if i == self || s == "" {
			continue
		}
		a, err := net.ResolveUDPAddr("udp", s)
		if err != nil {
			return fmt.Errorf("transport: resolve mesh peer %d %q: %w", i, s, err)
		}
		peers[i] = meshAddr(a.AddrPort())
	}
	f.peers = peers
	return nil
}

// Degraded reports whether the client is currently running on the
// mesh. Safe for monitoring goroutines.
func (c *Client) Degraded() bool { return c.fb != nil && c.fb.degraded.Load() }

// FallbackStats snapshots the degraded-path counters (zero when no
// fallback is configured). Safe for monitoring goroutines.
func (c *Client) FallbackStats() FallbackStats {
	if c.fb == nil {
		return FallbackStats{}
	}
	f := c.fb
	return FallbackStats{
		Degrades:        f.degrades.Load(),
		Probes:          f.probes.Load(),
		ProbeAcks:       f.probeAcks.Load(),
		Failbacks:       f.failbacks.Load(),
		HostRounds:      f.hostRounds.Load(),
		HostElems:       f.hostElems.Load(),
		MeshRetransmits: f.meshRetx.Load(),
	}
}

// checkPeers verifies the mesh address table covers every peer before
// a degraded collective relies on it.
func (f *fallback) checkPeers(n, self int) error {
	if len(f.peers) < n {
		return fmt.Errorf("transport: degraded with %d of %d mesh peers configured: %w", len(f.peers), n, ErrAggregatorSilent)
	}
	for i := 0; i < n; i++ {
		if i != self && !f.peers[i].IsValid() {
			return fmt.Errorf("transport: degraded without a mesh address for worker %d: %w", i, ErrAggregatorSilent)
		}
	}
	return nil
}

// enterFallback is the mid-tensor degrade: the switch path gave up on
// the current tensor, so agree on the frontier with the peers and
// finish the suffix on the mesh. The client stays degraded for
// subsequent tensors until the probation verdict fails it back.
func (c *Client) enterFallback(u []int32, deadline time.Time) ([]int32, error) {
	fb := c.fb
	if err := fb.checkPeers(c.cfg.Worker.Workers, int(c.cfg.Worker.ID)); err != nil {
		return nil, err
	}
	fb.degraded.Store(true)
	fb.prob.Restart()
	// A pending membership fence dies with the aggregator that
	// proposed it; the joiner re-solicits after failback.
	c.fenceArmed = false
	fb.degrades.Add(1)
	c.gDegraded.Set(1)
	c.trace(telemetry.EvDegrade, -1)
	if err := c.syncRound(c.worker.FrontierOff(), deadline); err != nil {
		return nil, err
	}
	base := c.worker.TensorBase()
	if fb.F < base {
		// A peer's stream is behind this tensor: no suffix of it can be
		// finished on the mesh.
		return nil, fmt.Errorf("transport: stream misaligned on degrade: collective frontier %d precedes this tensor at %d", fb.F, base)
	}
	return c.meshFinish(u, int(fb.F-base), deadline)
}

// degradedAllReduce runs one tensor while the job lives on the mesh:
// resolve last round's probe, send this round's, run the barrier sync
// (which also carries the failback vote), then either fail back to the
// switch or aggregate the whole tensor by mesh ring. The degrade that
// entered the mode checked the mesh address table.
func (c *Client) degradedAllReduce(u []int32, deadline time.Time) ([]int32, error) {
	fb := c.fb
	// Resolve the previous round's probe, draining the main connection
	// for RTO/8: whatever else piled up while the job lived on the mesh
	// (stale results, recovery directives from the old generation — the
	// probe fence makes them meaningless) is discarded. The next probe
	// proposes the post-failback generation.
	acked, err := c.resolveProbe(&fb.prob, c.nc, c.cfg.RTO/8)
	if err != nil {
		return nil, err
	}
	if acked {
		fb.probeAcks.Add(1)
	}
	fb.probes.Add(1)
	if err := c.sendProbe(&fb.prob, c.conn, c.epoch+1); err != nil {
		return nil, err
	}
	if !c.worker.Busy() { // a retry finds its tensor open already
		c.worker.StartHosted(u)
	}
	frontier := c.worker.FrontierOff()
	if err := c.syncRound(frontier, deadline); err != nil {
		return nil, err
	}
	if fb.F != frontier {
		return nil, fmt.Errorf("transport: stream misaligned in degraded mode: local frontier %d, collective %d", frontier, fb.F)
	}
	if fb.cfg.Probation >= 0 && fb.minStreak >= fb.cfg.Probation {
		return c.failback(u, deadline)
	}
	return c.meshFinish(u, 0, deadline)
}

// meshFinish aggregates the tensor suffix u[local:] (global offset
// fb.F) by ring all-reduce in the client loop's ring mode and installs
// the result through the barrier-handoff write.
func (c *Client) meshFinish(u []int32, local int, deadline time.Time) ([]int32, error) {
	fb, n := c.fb, c.cfg.Worker.Workers
	buf := make([]int32, len(u)-local)
	copy(buf, u[local:])
	if n > 1 && len(buf) > 0 {
		// The replay timer starts from a fresh reading: copying the tensor
		// suffix took time since the barrier's last pass.
		c.tick()
		fb.ring = allreduce.NewARQ(fb.round, allreduce.Ring(n, int(c.cfg.Worker.ID), buf, meshSegElems), int64(c.cfg.RTO), c.nowNs, c.sendRing)
		if err := c.run(modeRing, deadline); err != nil {
			return nil, err
		}
	}
	if err := c.worker.InstallHostAggregate(fb.F, buf); err != nil {
		return nil, err
	}
	fb.hostRounds.Add(1)
	fb.hostElems.Add(uint64(len(buf)))
	c.trace(telemetry.EvTensorDone, -1)
	return c.worker.Aggregate(), nil
}

// failback returns the job to the switch path: the collective verdict
// said every worker's probes have been answered for the probation
// window, so all workers re-open the tensor from chunk zero under the
// generation the probes proposed (which the aggregator already
// adopted, wiping its pool) and drive it with switch packets again.
// If the switch flaps, the silence detector simply degrades again.
func (c *Client) failback(u []int32, deadline time.Time) ([]int32, error) {
	fb := c.fb
	fb.degraded.Store(false)
	fb.prob.Restart()
	fb.failbacks.Add(1)
	c.gDegraded.Set(0)
	newEpoch := c.epoch + 1
	pkts := c.worker.Resume(newEpoch, 0)
	c.epoch = newEpoch
	c.gEpoch.Set(int64(newEpoch))
	c.trace(telemetry.EvFailback, -1)
	// The progress clock last ticked before the outage; restart it or
	// the silence detector would re-degrade before the first result.
	c.lastProgress = c.tick()
	c.sendPackets(pkts)
	// Flapped again: the silence verdict walks the whole ladder before
	// settling back on the mesh.
	return c.settle(u, deadline, c.run(modeData, deadline))
}

// sendProbe opens pr's next round: a KindProbe carrying the round's
// sequence number and the proposed generation gen, sent on conn. Each
// round runs at a tensor boundary. The mesh failback and the standby
// fail-up (failover.go) each run a probation window, on their own
// socket and proposed generation; loss is absorbed by the streak.
func (c *Client) sendProbe(pr *faults.Probation, conn *net.UDPConn, gen uint16) error {
	seq := pr.Open()
	c.trace(telemetry.EvProbe, int32(seq))
	return c.sendCtl(conn, packet.KindProbe, gen, seq, 0, 0)
}

// resolveProbe closes pr's round in the client loop's probe mode: the
// loop drains nc for wait, and the ack that answers the open probe
// extends the streak (handleIncoming); everything else is discarded. A
// probe still unanswered means the aggregator is still gone (or
// flapping); either way the probation clock restarts. It reports
// whether the probe was answered.
func (c *Client) resolveProbe(pr *faults.Probation, nc *netio.Conn, wait time.Duration) (bool, error) {
	c.prob, c.pnc = pr, nc
	streak := pr.Streak()
	err := c.run(modeProbe, c.tick().Add(wait))
	pr.Close()
	return pr.Streak() > streak, err
}

// syncRound is the degraded path's barrier, the client loop's sync
// mode: every worker broadcasts its frontier and probe streak for this
// round and collects all n-1 peers' syncs, re-sending its own to the
// silent ones every RTO. All workers see the same n values, so the
// frontier minimum (fb.F, the handoff boundary) and the streak minimum
// (fb.minStreak, the failback vote) are collective verdicts with no
// extra agreement round.
func (c *Client) syncRound(frontier uint64, deadline time.Time) error {
	fb := c.fb
	fb.round++
	streak := min(fb.prob.Streak(), 255)
	p := packet.NewControl(packet.KindFallbackSync, c.cfg.Worker.ID, fb.round, frontier, nil)
	p.Ver = uint8(streak)
	fb.prevSyncWire = append(fb.prevSyncWire[:0], fb.syncWire...)
	fb.syncWire = p.AppendMarshal(fb.syncWire[:0])

	n := c.cfg.Worker.Workers
	fb.got = make([]bool, n)
	fb.got[c.cfg.Worker.ID] = true
	fb.remaining, fb.F, fb.minStreak = n-1, frontier, streak
	if fb.remaining == 0 {
		return nil
	}
	return c.run(modeSync, deadline)
}

// meshSync takes a peer's barrier sync: in the sync mode a first one
// for this round joins the collective minima, and the last one missing
// ends the barrier. A repeated one for this round — or any for this
// round outside the barrier — means the peer never saw ours, and one
// for the previous round means it is still finishing that barrier
// without our sync from back then: either way ours is replayed.
func (c *Client) meshSync(p *packet.Packet) bool {
	fb := c.fb
	w := int(p.WorkerID) // this worker's own got entry is set, and it has no peer address
	switch int16(p.JobID - fb.round) {
	case 0:
		if c.mode == modeSync && w < len(fb.got) && !fb.got[w] {
			fb.got[w] = true
			fb.remaining--
			fb.F = min(fb.F, p.Off)
			fb.minStreak = min(fb.minStreak, int(p.Ver))
			return fb.remaining == 0
		}
		c.meshSend(fb.syncWire, w)
	case -1:
		c.meshSend(fb.prevSyncWire, w)
	}
	return false
}

// handleMesh is the mesh's one dispatch: every datagram a mesh pass of
// the client loop receives — barrier syncs, ring segments and acks,
// state requests and replies — whatever mode the loop is in, reporting
// whether the mode ended. Nothing here stamps lastProgress or counts a
// datagram received or corrupt: mesh traffic says nothing about the
// aggregator, and the datagram counters describe only its traffic.
func (c *Client) handleMesh(m *netio.Message) (bool, error) {
	p := &c.rp
	if packet.UnmarshalInto(p, m.Buf) != nil {
		return false, nil
	}
	fb := c.fb
	//switchml:dispatch
	switch p.Kind {
	case packet.KindFallbackSync:
		return c.meshSync(p), nil
	case packet.KindFallbackData, packet.KindFallbackAck:
		// Both go to the latest round's ARQ, which answers its round's and
		// drops the rest (current-round data ahead of our ring too: its
		// sender re-sends once we join); one from a rank off the ring's
		// link, or malformed, is counted and dropped.
		if !fb.ring.In(c.nowNs, p) {
			c.unexpected.Inc()
		}
		return c.mode == modeRing && fb.ring.Finished(), nil
	case packet.KindStateReq:
		// Served only from a fence hold, and only to a mesh peer: a reply
		// is up to ~170 times the request's size.
		if c.mode == modeFence && slices.Contains(fb.peers, meshAddr(m.Addr)) {
			c.serveState(p, m.Addr)
		}
		return false, nil
	case packet.KindStateData:
		// Taken only by a fetch, and only from the incumbent it asked.
		if c.mode == modeFetch && meshAddr(m.Addr) == c.fetch.from {
			c.takeState(p)
		}
		return false, nil
	default:
		// Aggregator kinds on the mesh socket; count the drop so a
		// confused peer is visible.
		c.unexpected.Inc()
		return false, nil
	}
}

// sendRing stages the ring's datagram p to worker w. A segment's vector
// aliases the ring's buffer — safe, because marshalling copies it out,
// and staging copies sbuf in, before the call returns.
func (c *Client) sendRing(w int, p packet.Packet) {
	p.WorkerID = c.cfg.Worker.ID
	c.fb.sbuf = p.AppendMarshal(c.fb.sbuf[:0])
	c.meshSend(c.fb.sbuf, w)
}

// meshSend stages one datagram to worker w's mesh address for the
// loop's next flush, counting (not retrying) a failed send: the mesh's
// own repetition repairs it. A worker without a listed address (this
// one included) and an empty wire are skipped.
func (c *Client) meshSend(wire []byte, w int) {
	fb := c.fb
	if len(wire) == 0 || w < 0 || w >= len(fb.peers) || !fb.peers[w].IsValid() {
		return
	}
	fb.nc.AppendTo(wire, fb.peers[w])
}
