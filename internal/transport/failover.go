// Warm-standby failover: the middle rung of the three-tier defense
// ladder (primary switch → warm-standby switch → host mesh) for the
// UDP transport. The paper's §5.6 answer to a dead switch is to remap
// the job onto a different switch; this file is that remapping for
// the software aggregator, with the PR 5 host mesh demoted from "the"
// fallback to the rung of last resort.
//
// The client half: ClientConfig.Standbys ranks backup aggregators
// behind the primary. When the silence detector trips, the worker
// walks the ladder — re-dialing the next rung and running the
// KindAdoptJob handshake as the client loop's adopt mode (run, in
// client.go): it proposes the bumped job generation with its chunk
// frontier, and the rung echoes the request (Ver=1) while it collects
// the same roll call from every other member, all of whom detect the
// same outage on their own silence clocks. The rung commits once the
// roll call is complete — pool wiped under the proposed generation,
// membership inherited — and releases everyone with KindResume at the
// minimum adopted frontier, from which the same loop drives the
// re-opened tensor to completion: the §5.6 roll call (rollcall.go)
// with the adoption requests as its votes. Only when
// every rung is silent does the job drop to the host mesh
// (fallback.go), and while it lives on a standby a per-tensor probe of
// the primary runs its own instance of the mesh's probation window, so
// the job climbs back to rank 0 once the primary has answered probes
// for Probation consecutive tensors.
//
// The aggregator half is the adoption roll call. A standby comes up
// cold: empty pool, no peers, the same worker universe, so every
// worker not retired must vote. The commit installs the proposed
// generation over the inherited membership, so nothing aggregated
// before the outage can leak into post-failover slots, and its release
// is the one every lost-release repair path repeats. A worker whose
// climb raced a flapping primary simply falls back down the ladder —
// the handshake is idempotent and generation-fenced at every step.
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"time"

	"switchml/internal/faults"
	"switchml/internal/netio"
	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// FailoverStats is a snapshot of the ladder counters. All counters
// are registry-backed atomics, so the snapshot is safe to take from a
// monitoring goroutine while AllReduceInt32 runs.
type FailoverStats struct {
	// Rehomes counts re-dials of the main aggregator connection to a
	// different ladder rung (descents and climbs alike).
	Rehomes uint64
	// AdoptRequests counts KindAdoptJob solicitations sent.
	AdoptRequests uint64
	// Probes / ProbeAcks count fail-up probes of the primary sent and
	// answered while the job lives on a standby.
	Probes, ProbeAcks uint64
	// Failbacks counts successful climbs back to the primary (rank 0).
	Failbacks uint64
}

// FailoverStats snapshots the ladder counters (all zero when no
// standbys are configured). Safe for monitoring goroutines.
func (c *Client) FailoverStats() FailoverStats {
	return FailoverStats{
		Rehomes:       c.failRehomes.Value(),
		AdoptRequests: c.failAdopts.Value(),
		Probes:        c.failProbes.Value(),
		ProbeAcks:     c.failProbeAcks.Value(),
		Failbacks:     c.failFailbacks.Value(),
	}
}

// HomeRank reports the ladder rung currently serving the job: 0 is
// the primary aggregator, higher ranks are standbys in Standbys
// order. Safe for monitoring goroutines (it reads the published
// gauge, not the AllReduce goroutine's state).
func (c *Client) HomeRank() int { return int(c.gHome.Value()) }

// jitterSeed derives the deterministic per-worker seed for control-
// timer jitter: the configured seed when set, spread by worker id
// either way so a fleet sharing one config is decorrelated by
// default. stream separates independent consumers (the AllReduce
// goroutine and the heartbeat goroutine must not share a rand.Rand).
func jitterSeed(cfg *ClientConfig, stream int64) int64 {
	base := cfg.JitterSeed
	if base == 0 {
		base = 0x5317c4a1
	}
	return base + int64(cfg.Worker.ID)*2654435761 + stream
}

// jitterDur spreads d by ±10% from the seeded stream, so a fleet of
// workers does not synchronize its heartbeats, probes and adoption
// retransmissions into a stampede against a recovering aggregator.
func jitterDur(rng *rand.Rand, d time.Duration) time.Duration {
	if rng == nil || d <= 0 {
		return d
	}
	return d + time.Duration((rng.Float64()-0.5)*0.2*float64(d))
}

// wrapMain (re)builds the socket view over the main aggregator
// connection; called at construction and again by every re-home (the
// netio arenas are bound to one socket). On failure the previous view
// stays in place and the caller closes conn. The send retries of a
// retired view are folded into retiredRetries so the introspection
// total survives the swap.
func (c *Client) wrapMain(conn *net.UDPConn) error {
	nc, err := netio.Wrap(conn, netio.Config{
		Batch: DefaultBatch,
		MTU:   aggWireMTU(c.cfg.Worker.SlotElems),
		OnSendError: func(err error, n int) {
			c.sendErrs.Add(uint64(n))
			if c.stageErr == nil {
				c.stageErr = err
			}
		},
	})
	if err != nil {
		return fmt.Errorf("transport: wrap aggregator socket: %w", err)
	}
	if old := c.nc; old != nil {
		c.retiredRetries.Add(old.SendRetries())
	}
	c.nc = nc
	c.ncDbg.Store(nc)
	c.ncDrops = 0
	// A window of results can be in flight toward this socket, and a
	// window of updates leaves it at once.
	b := sizeSocket(conn, windowBytes(c.cfg.Worker.PoolSize, c.cfg.Worker.SlotElems))
	c.gRcvbuf.Set(int64(b.rcv))
	c.gRcvbufNeed.Set(int64(b.need))
	// The window block holds the whole window, so that it leaves in one
	// batched send.
	c.txb = make([]byte, 0, c.cfg.Worker.PoolSize*packet.WireLen(c.cfg.Worker.SlotElems))
	c.txSeg = 0
	c.stageErr = nil
	return nil
}

// sendRetryTotal sums transient-send retries across the current and
// retired socket views. Safe for monitoring goroutines.
func (c *Client) sendRetryTotal() uint64 {
	return c.retiredRetries.Load() + c.ncDbg.Load().SendRetries()
}

// rehome re-dials the main aggregator connection to ladder rung rank
// and rebinds the socket view. The heartbeat goroutine follows
// through the atomic connection pointer; a beacon written to the
// closed previous socket is harmless (its error is ignored and the
// next tick lands on the new rung).
func (c *Client) rehome(rank int) error {
	if rank == c.homeRank {
		return nil
	}
	conn, err := net.DialUDP("udp", nil, c.ladder[rank])
	if err != nil {
		return fmt.Errorf("transport: dial ladder rung %d: %w", rank, err)
	}
	if err := c.wrapMain(conn); err != nil {
		conn.Close()
		return err
	}
	old := c.conn
	c.conn = conn
	c.hbConn.Store(conn)
	old.Close()
	c.homeRank = rank
	c.gHome.Set(int64(rank))
	c.failRehomes.Inc()
	if c.cfg.Tracer != nil {
		e := telemetry.Ev(telemetry.EvRehome, telemetry.WallClock())
		e.Actor = c.actor
		e.Worker = int32(c.cfg.Worker.ID)
		e.Slot = int32(rank)
		e.Off = int64(c.worker.FrontierOff())
		c.cfg.Tracer.Emit(e)
	}
	return nil
}

// adoptAt re-homes to ladder rung rank and runs the adoption
// handshake in the client loop's adopt mode: KindAdoptJob (proposing
// the bumped generation with this worker's chunk frontier) is
// retransmitted at a jittered RTO until the rung's KindResume releases
// the job at the collective minimum frontier, and the loop then drives
// any tensor the release re-opened to completion in the data mode. A
// rung that never echoes the request within 8 RTOs, or whose roll call
// does not commit within two silence windows, or whose port is closed,
// is written off with an error wrapping ErrAggregatorSilent, so the
// caller can try the next rung.
func (c *Client) adoptAt(rank int, deadline time.Time) error {
	if err := c.rehome(rank); err != nil {
		return err
	}
	return c.run(modeAdopt, deadline)
}

// degradeLadder is the silence verdict's escalation path: walk the
// standby ladder (preferring the primary when the job was living on a
// standby), adopting the job onto the first rung that answers; drop
// to the host mesh only when every rung is silent, and surface a
// typed retryable error when there is no mesh either. A fence proposed
// by a dead rung dies with it: the adoption's release disarms it, and
// the joiner re-solicits against the new home.
func (c *Client) degradeLadder(u []int32, deadline time.Time) ([]int32, error) {
	if len(c.ladder) > 1 {
		prev := c.homeRank
		for rank := range c.ladder {
			if rank == prev {
				continue // the rung that just went silent scores last
			}
			if c.now.After(deadline) {
				return nil, fmt.Errorf("transport: all-reduce timed out descending the failover ladder: %w", ErrAggregatorSilent)
			}
			if err := c.adoptAt(rank, deadline); !errors.Is(err, ErrAggregatorSilent) {
				return c.settle(u, deadline, err)
			}
			// This rung is down too; keep descending.
		}
		// Every rung is silent. Re-home to the primary so the degraded
		// path's probes — and its eventual failback — target rank 0.
		if err := c.rehome(0); err != nil {
			return nil, err
		}
	}
	if c.fb == nil {
		return nil, fmt.Errorf("transport: all-reduce stalled with every aggregator rung silent (%d rungs, %d chunks outstanding): %w",
			len(c.ladder), c.worker.PendingCount(), ErrAggregatorSilent)
	}
	return c.enterFallback(u, deadline)
}

// ladderProbation is the fail-up threshold: how many consecutive
// tensors must see the primary answer a probe before the job climbs
// back to rank 0. It mirrors the mesh's probation knob when a
// fallback is configured (negative pins the job on its standby).
func (c *Client) ladderProbation() int {
	if c.fb != nil {
		return c.fb.cfg.Probation
	}
	return 3
}

// failUpTick runs one round of the fail-up probation at a tensor
// boundary while the job lives on a standby: resolve the previous
// tensor's probe of the primary, climb once the answer streak crosses
// the probation window, and open the next round. The probe proposes
// nothing (it carries the current generation), so the primary's
// probe fence stays un-tripped until the adoption handshake proposes
// the real bump. A climb that races a flapping primary falls back to
// the standby that was serving the job and restarts probation.
func (c *Client) failUpTick(deadline time.Time) error {
	prob := c.ladderProbation()
	if prob < 0 {
		return nil
	}
	if c.upNC == nil {
		uc, err := net.DialUDP("udp", nil, c.ladder[0])
		if err != nil {
			return nil // cannot probe; stay on the standby
		}
		nc, err := netio.Wrap(uc, netio.Config{Batch: 1}) // probe acks only
		if err != nil {
			uc.Close()
			return nil
		}
		c.upConn.Store(uc)
		c.upNC = nc
	}
	if c.up.Awaiting() {
		acked, err := c.resolveProbe(&c.up, c.upNC, jitterDur(c.frng, c.cfg.RTO/8))
		if err != nil {
			return err
		}
		if acked {
			c.failProbeAcks.Inc()
		}
	}
	if c.up.Streak() >= prob {
		prev := c.homeRank
		c.up.Restart()
		if err := c.adoptAt(0, deadline); err != nil {
			if errors.Is(err, ErrAggregatorSilent) {
				return c.rehome(prev)
			}
			return err
		}
		c.failFailbacks.Inc()
		c.trace(telemetry.EvFailback, -1)
		return nil
	}
	c.failProbes.Inc()
	return c.sendProbe(&c.up, c.upNC.UDP(), c.epoch)
}

// --- Aggregator half: the adoption roll call ---

// handleAdopt takes one KindAdoptJob vote: open (or join) the roll
// call for the proposed generation, echo the request with Ver=1 while
// the roll call is short of the membership, and commit when the last
// member arrives. A duplicate for the generation already released gets
// the release again, so a lost KindResume never wedges a voter.
func (a *Aggregator) handleAdopt(sh *aggShard, src netip.AddrPort) {
	if a.job == nil {
		return // a multi-job aggregator's generations are its job ids
	}
	p := &sh.hdr
	w := int(p.WorkerID)
	var tr *faults.Tracker
	if a.lv != nil {
		// Adoption traffic is liveness — and a worker this standby's own
		// detector wrote off while the job lived elsewhere is plainly
		// back.
		tr = a.lv.tracker
		tr.MarkAlive(w, a.coarse.Load())
	}
	a.job.setPeer(p.WorkerID, src)
	a.mu.Lock()
	defer a.mu.Unlock()
	if int16(p.JobID-a.job.gen()) <= 0 {
		// A stale proposal, or a duplicate whose release was lost.
		if r := a.rel.Load(); r != nil && p.JobID == r.gen {
			a.rerelease(sh, src)
		}
		return
	}
	if a.adopt.supersededBy(p.JobID) {
		// A fresh roll call, or one for a strictly newer generation: its
		// voters re-send at their RTO. A rung adopting a job has heard
		// from no one, so every worker not retired must answer.
		a.adopt = newRollCall(p.JobID, len(a.job.peers), tr, true, -1)
	}
	if a.adopt.vote(w, p.Off) {
		a.commitAdoptLocked()
		return
	}
	echo := packet.NewControl(packet.KindAdoptJob, p.WorkerID, a.adopt.gen, p.Off, nil)
	echo.Ver = 1
	sh.ctrl = echo.AppendMarshal(sh.ctrl[:0])
	a.reply(sh, sh.ctrl, src)
}

// commitAdoptLocked installs the adopted job — pool wiped under the
// proposed generation, membership kept, so nothing aggregated before
// the outage leaks into post-failover slots — and releases every voter
// at the minimum adopted frontier. An adoption supersedes any recovery
// or membership fence this rung had in flight.
func (a *Aggregator) commitAdoptLocked() {
	rc := a.adopt
	a.adopt, a.evict, a.join = nil, nil, nil
	a.adoptions.Inc()
	a.traceCtrl(telemetry.EvAdopt, -1, int64(rc.lo))
	if a.installLocked(nil, rc.gen) == nil {
		a.releaseLocked(rc, rc.lo)
	}
}

// Adoptions reports how many warm-standby adoption roll calls this
// aggregator has committed. Safe for monitoring goroutines.
func (a *Aggregator) Adoptions() uint64 { return a.adoptions.Value() }
