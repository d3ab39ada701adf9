package transport

import (
	"switchml/internal/core"
	"switchml/internal/telemetry"
)

// AggDebugState is the aggregator's deep introspection document,
// served at /debug/state and embedded in flight-recorder incidents.
//
// Every field is assembled from atomics, per-slot-locked reads and
// counter snapshots — never from a.mu — so it is safe to build from
// any goroutine, including inside trace callbacks fired by the
// recovery state machine while it holds a.mu.
type AggDebugState struct {
	Role  string `json:"role"`
	Epoch uint16 `json:"epoch"`
	// Down mirrors the chaos kill switch: the program is "dead" while
	// the socket stays bound.
	Down   bool `json:"down"`
	Shards int  `json:"shards"`
	// Batch is the per-shard burst ceiling; NetMode names the netio
	// mode the shard sockets selected ("portable", "mmsg" or "gso").
	Batch   int    `json:"batch"`
	NetMode string `json:"net_mode"`
	// ShardDatagrams[i] is shard i's cumulative drain count; their
	// spread is the shard-balance view.
	ShardDatagrams []uint64 `json:"shard_datagrams"`
	Received       uint64   `json:"datagrams_received"`
	Corrupted      uint64   `json:"datagrams_corrupted"`
	Sent           uint64   `json:"datagrams_sent"`
	// SendErrors counts datagrams whose socket send failed (dropped,
	// surfaced for diagnosis; the protocol's loss recovery repairs
	// them). SendRetries counts transient kernel pushback
	// (ENOBUFS/EAGAIN) absorbed by netio's bounded backoff instead of
	// dropping, summed across the shard socket views.
	SendErrors  uint64 `json:"udp_send_errors"`
	SendRetries uint64 `json:"udp_send_retries"`
	// RcvbufDrops counts update datagrams the kernel dropped at a shard
	// socket's full receive buffer (SO_RXQ_OVFL, in every netio mode; 0
	// off Linux, which cannot see them). RcvbufBytes is the
	// receive buffer the kernel granted the shard sockets (the least of
	// them; 0 where it cannot be read back) and RcvbufNeedBytes what
	// every worker's window in flight toward one of them can occupy:
	// drops with a grant below the need are the window overrunning the
	// buffer — raise rmem_max or configure a smaller pool — not the path
	// losing packets.
	RcvbufDrops     uint64 `json:"udp_rcvbuf_drops"`
	RcvbufBytes     int    `json:"rcvbuf_bytes"`
	RcvbufNeedBytes int    `json:"rcvbuf_need_bytes"`
	// BeyondPool counts updates for a slot index at or past the pool
	// size. The dial hello refuses a worker with a larger pool, so it
	// stays 0 unless a peer skipped the hello.
	BeyondPool uint64 `json:"updates_beyond_pool"`
	// Adoptions counts warm-standby adoption roll calls this
	// aggregator has committed: jobs it inherited from a dead rung
	// through the KindAdoptJob handshake.
	Adoptions uint64 `json:"adoptions"`
	// BatchOccupancyP50/P99 are quantiles of datagrams drained per
	// receive wakeup, merged across shards: how full the batch pipeline
	// actually runs (every burst is one datagram in portable mode).
	BatchOccupancyP50 float64          `json:"batch_occupancy_p50"`
	BatchOccupancyP99 float64          `json:"batch_occupancy_p99"`
	Switch            core.SwitchStats `json:"switch"`
	Pool              core.PoolState   `json:"pool"`
	// Peers are the learned worker addresses ("" while unlearned);
	// Alive the liveness verdicts (all true without a detector).
	Peers []string `json:"peers"`
	Alive []bool   `json:"alive"`
	// Membership is each worker's elastic-membership status:
	// "member", "draining" (graceful leave announced, finishing its
	// in-flight window) or "departed" (outside the job: gracefully
	// left, never admitted, or evicted). Without a failure detector
	// every worker reads "member".
	Membership []string `json:"membership"`
}

// DebugState assembles the aggregator's introspection document.
// withSlots additionally dumps every slot's state (count, offset,
// seen bitmap), the level of detail incident files want.
func (a *Aggregator) DebugState(withSlots bool) AggDebugState {
	st := AggDebugState{
		Role:            "aggregator",
		Epoch:           a.job.gen(),
		Down:            a.down.Load(),
		Shards:          len(a.shardCtrs),
		Batch:           a.sncs[0].Batch(),
		NetMode:         a.sncs[0].Mode().String(),
		ShardDatagrams:  make([]uint64, len(a.shardCtrs)),
		Received:        a.recvd.Value(),
		Corrupted:       a.corrupt.Value(),
		Sent:            a.sent.Value(),
		SendErrors:      a.sendErrs.Value(),
		RcvbufDrops:     a.rcvDrops.Value(),
		RcvbufBytes:     a.bufs.rcv,
		RcvbufNeedBytes: a.bufs.need,
		BeyondPool:      a.beyondPool.Value(),
		Adoptions:       a.adoptions.Value(),
		Switch:          a.job.sw.Stats(),
		Pool:            a.job.sw.PoolState(withSlots),
		Peers:           make([]string, len(a.job.peers)),
		Alive:           make([]bool, len(a.job.peers)),
	}
	for i, c := range a.shardCtrs {
		st.ShardDatagrams[i] = c.Value()
	}
	for _, nc := range a.sncs {
		st.SendRetries += nc.SendRetries()
	}
	occ := a.occupancySnapshot()
	st.BatchOccupancyP50 = occ.Quantile(0.5)
	st.BatchOccupancyP99 = occ.Quantile(0.99)
	st.Membership = make([]string, len(a.job.peers))
	for i := range a.job.peers {
		if ap := a.job.peers[i].Load(); ap != nil {
			st.Peers[i] = ap.String()
		}
		st.Alive[i] = a.Alive(i)
		switch {
		case a.Departed(i):
			st.Membership[i] = "departed"
		case a.Draining(i):
			st.Membership[i] = "draining"
		default:
			st.Membership[i] = "member"
		}
	}
	return st
}

// occupancySnapshot merges the per-shard batch-occupancy histograms
// into one distribution (the buckets are shared, so counts add).
func (a *Aggregator) occupancySnapshot() telemetry.HistogramSnapshot {
	merged := a.shardOcc[0].Snapshot()
	for _, h := range a.shardOcc[1:] {
		s := h.Snapshot()
		for i := range s.Counts {
			merged.Counts[i] += s.Counts[i]
		}
		merged.Count += s.Count
		merged.Sum += s.Sum
	}
	return merged
}

// ClientDebugState is one worker's introspection document, served at
// /debug/state. Assembled entirely from atomics and gauges the
// AllReduce goroutine publishes at safe points, so it is valid from
// any goroutine while a collective runs.
type ClientDebugState struct {
	Role   string `json:"role"`
	Worker int    `json:"worker"`
	Epoch  uint16 `json:"epoch"`
	// Degraded reports the health state: false = SWITCH path,
	// true = DEGRADED (host all-reduce mesh).
	Degraded bool `json:"degraded"`
	// SRTTNs/RTONs/PTONs are the recovery pump's view of the path: the
	// smoothed round trip (0 before the first clean sample), the base
	// timeout, and the probe timeout that overtake and tail-probe
	// recovery run on (0: no estimate yet; equal to RTONs: the path is
	// too slow for the RTO to leave room for probing).
	SRTTNs int64 `json:"srtt_ns"`
	RTONs  int64 `json:"rto_ns"`
	PTONs  int64 `json:"pto_ns"`
	// FrontierOff is the stream offset of contiguous progress;
	// PendingChunks the in-flight count at the last publication point.
	FrontierOff   int64 `json:"frontier_off"`
	PendingChunks int64 `json:"pending_chunks"`
	// Batch/NetMode mirror the aggregator-side fields: the send/recv
	// burst ceiling and the selected I/O strategy.
	Batch      int    `json:"batch"`
	NetMode    string `json:"net_mode"`
	Received   uint64 `json:"datagrams_received"`
	Corrupted  uint64 `json:"datagrams_corrupted"`
	Sent       uint64 `json:"datagrams_sent"`
	SendErrors uint64 `json:"udp_send_errors"`
	// SendRetries counts transient kernel pushback (ENOBUFS/EAGAIN)
	// absorbed by netio's bounded backoff instead of dropping, summed
	// across socket views retired by re-homes.
	SendRetries uint64 `json:"udp_send_retries"`
	// PoolSize is s, configured or taken from the aggregator at dial:
	// the window this worker keeps in flight. RcvbufDrops, RcvbufBytes and
	// RcvbufNeedBytes are the aggregator-side fields' twins for the
	// result datagrams flowing back: drops at this socket's full receive
	// buffer, the buffer granted, and what one window can occupy.
	PoolSize        int    `json:"pool_size"`
	RcvbufDrops     uint64 `json:"udp_rcvbuf_drops"`
	RcvbufBytes     int64  `json:"rcvbuf_bytes"`
	RcvbufNeedBytes int64  `json:"rcvbuf_need_bytes"`
	// Stats are the worker protocol counters. Retransmissions against
	// EarlyRetransmissions and ProbeRetransmissions tells which
	// recovery is at work: lap detection off the ack clock (early),
	// overtake and tail probe a PTO after the loss (probe), or — the
	// remainder — the RTO backstop.
	Stats    core.WorkerStats `json:"stats"`
	Fallback FallbackStats    `json:"fallback"`
	// HomeRank is the failover-ladder rung serving the job (0 = the
	// primary aggregator); Failover the ladder counters.
	HomeRank int           `json:"home_rank"`
	Failover FailoverStats `json:"failover"`
}

// DebugState assembles the worker's introspection document. It reads
// the socket view through its atomic pointer: a re-home may swap the
// view under a concurrent monitoring read.
func (c *Client) DebugState() ClientDebugState {
	nc := c.ncDbg.Load()
	return ClientDebugState{
		Role:            "worker",
		Worker:          int(c.cfg.Worker.ID),
		Epoch:           uint16(c.gEpoch.Value()),
		Degraded:        c.Degraded(),
		SRTTNs:          c.gSRTT.Value(),
		RTONs:           c.gRTO.Value(),
		PTONs:           c.gPTO.Value(),
		FrontierOff:     c.gFrontier.Value(),
		PendingChunks:   c.gPending.Value(),
		Batch:           nc.Batch(),
		NetMode:         nc.Mode().String(),
		Received:        c.recvd.Value(),
		Corrupted:       c.corrupt.Value(),
		Sent:            c.sent.Value(),
		SendErrors:      c.sendErrs.Value(),
		SendRetries:     c.sendRetryTotal(),
		PoolSize:        c.cfg.Worker.PoolSize,
		RcvbufDrops:     c.rcvDrops.Value(),
		RcvbufBytes:     c.gRcvbuf.Value(),
		RcvbufNeedBytes: c.gRcvbufNeed.Value(),
		Stats:           c.worker.Stats(),
		Fallback:        c.FallbackStats(),
		HomeRank:        c.HomeRank(),
		Failover:        c.FailoverStats(),
	}
}
