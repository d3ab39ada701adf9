package allreduce

import (
	"fmt"

	"switchml/internal/netsim"
)

// RunPS executes the parameter-server aggregation of §5.3: the tensor
// is uniformly sharded over as many PS processes as workers, each
// worker streams shard j to PS j, and each PS streams aggregated
// bursts back to every worker as soon as all n contributions for a
// burst have arrived (the authors' multi-core DPDK implementation of
// Algorithm 1).
//
// With colocated=false the PS processes run on dedicated machines,
// doubling the cluster (Figure 4 "Dedicated PS"); with colocated=true
// each PS shares its host's links with a worker ("Colocated PS"),
// halving the available bandwidth. updates[i] is worker i's
// contribution; on return every row holds the elementwise sum.
func RunPS(cfg Config, updates [][]int32, colocated bool) (Result, error) {
	if cfg.BurstBytes == 0 {
		// The DPDK PS streams fine-grained packets; a smaller burst
		// than the ring default keeps the aggregate-and-return
		// pipeline tight (the tail is ~2 rounds of bursts).
		cfg.BurstBytes = 16 * 1024
	}
	if err := cfg.fillDefaults(); err != nil {
		return Result{}, err
	}
	n := cfg.Workers
	if len(updates) != n {
		return Result{}, fmt.Errorf("allreduce: got %d updates for %d workers", len(updates), n)
	}
	d := len(updates[0])
	for i, u := range updates {
		if len(u) != d {
			return Result{}, fmt.Errorf("allreduce: update %d has %d elems, want %d", i, len(u), d)
		}
	}
	if d == 0 {
		return Result{Elems: 0}, nil
	}

	// Node ids: workers are 0..n-1. Dedicated PS processes live on
	// nodes n..2n-1; colocated PS j shares node j.
	workers := make([]*psWorker, n)
	servers := make([]*psServer, n)
	var nodes []netsim.Node
	for i := 0; i < n; i++ {
		workers[i] = &psWorker{
			cfg: &cfg, rank: i, n: n, buf: updates[i], out: make([]int32, d),
			cpu: &hostCPU{cfg: &cfg, free: make([]netsim.Time, cfg.Cores)},
		}
		nodes = append(nodes, workers[i])
	}
	for j := 0; j < n; j++ {
		nodeID := j
		if !colocated {
			nodeID = n + j
		}
		servers[j] = &psServer{cfg: &cfg, shard: j, n: n, nodeID: nodeID}
		lo, hi := shardRange(d, n, j)
		servers[j].agg = make([]int32, hi-lo)
		servers[j].got = make([]int, totalBursts(hi-lo, cfg.BurstBytes/4))
		if colocated {
			// The PS process shares the host's cores with the worker.
			servers[j].cpu = workers[j].cpu
			workers[j].local = servers[j]
		} else {
			servers[j].cpu = &hostCPU{cfg: &cfg, free: make([]netsim.Time, cfg.Cores)}
			nodes = append(nodes, servers[j])
		}
	}
	tp := newTopo(&cfg, nodes)
	for _, w := range workers {
		w.tp = tp
		w.servers = servers
	}
	for _, s := range servers {
		s.tp = tp
		s.workers = workers
	}
	for _, w := range workers {
		w.sendAll()
	}
	tp.sim.Run()

	res := Result{Elems: d}
	for i, w := range workers {
		if w.remaining != 0 {
			return Result{}, fmt.Errorf("allreduce: ps worker %d did not finish", i)
		}
		copy(updates[i], w.out)
		if w.doneAt > res.Time {
			res.Time = w.doneAt
		}
	}
	return res, nil
}

// shardRange returns shard j's element range.
func shardRange(d, n, j int) (lo, hi int) {
	return j * d / n, (j + 1) * d / n
}

// psWire returns the wire bytes of a PS burst: the payload split into
// PacketBytes-sized aggregation packets, each carrying the same
// 52-byte header budget as a SwitchML packet. The authors' PS
// benchmark speaks the SwitchML packet format (§5.3 implements
// Algorithm 1 in DPDK); Figure 7's variant passes PacketBytes=1460
// for MTU frames.
func psWire(cfg *Config, payload int) int {
	pkts := (payload + cfg.PacketBytes - 1) / cfg.PacketBytes
	if pkts == 0 {
		pkts = 1
	}
	return payload + pkts*52
}

// hostCPU models a host's cores shared by every process on the
// machine; colocated workers and servers charge the same pool.
type hostCPU struct {
	cfg  *Config
	free []netsim.Time
}

// charge occupies the earliest-free core for pkts packets and returns
// the completion time. The per-packet cost covers the receive, the
// processing, and the packet's share of transmissions, matching the
// SwitchML worker model.
func (c *hostCPU) charge(now netsim.Time, pkts int) netsim.Time {
	if c.cfg.PerPacketCost == 0 {
		return now
	}
	i := 0
	for j := 1; j < len(c.free); j++ {
		if c.free[j] < c.free[i] {
			i = j
		}
	}
	start := c.free[i]
	if start < now {
		start = now
	}
	done := start + netsim.Time(pkts)*c.cfg.PerPacketCost
	c.free[i] = done
	return done
}

// psWorker streams its update to the shard servers and collects
// aggregated bursts.
type psWorker struct {
	cfg     *Config
	tp      *topo
	servers []*psServer
	// local is the colocated shard server sharing this host, if any.
	local     *psServer
	cpu       *hostCPU
	rank      int
	n         int
	buf       []int32
	out       []int32
	remaining int
	doneAt    netsim.Time
}

// sendAll streams every shard to its server. Bursts are interleaved
// round-robin across shards with a rank-staggered starting shard, so
// the PS set is loaded evenly rather than all workers hammering PS 0
// first. The uplink FIFO provides pacing; the colocated shard is
// delivered locally without touching the network.
func (w *psWorker) sendAll() {
	d := len(w.buf)
	w.remaining = d
	burstElems := w.cfg.BurstBytes / 4
	maxBursts := totalBursts((d+w.n-1)/w.n+1, burstElems) + 1
	for seq := 0; seq < maxBursts; seq++ {
		for r := 0; r < w.n; r++ {
			j := (w.rank + r) % w.n
			srv := w.servers[j]
			lo, hi := shardRange(d, w.n, j)
			off := lo + seq*burstElems
			if off >= hi {
				continue
			}
			end := off + burstElems
			if end > hi {
				end = hi
			}
			data := make([]int32, end-off)
			copy(data, w.buf[off:end])
			b := &burst{
				src: w.rank, dst: srv.nodeID,
				data: data, shard: j, seq: seq, step: w.rank,
				wire: psWire(w.cfg, (end-off)*4),
			}
			if w.local != nil && srv == w.local {
				// Local shard: hand straight to the resident server.
				w.local.ingest(b)
			} else {
				w.tp.send(b)
			}
		}
	}
}

// Deliver receives either an aggregated burst (from a PS) or, when
// colocated, a burst addressed to the resident server.
func (w *psWorker) Deliver(msg netsim.Message) {
	b := msg.(*burst)
	if w.local != nil && b.step != -1 {
		// An update burst for the resident shard server (b.step
		// carries the source worker rank; aggregated bursts use -1).
		w.local.ingest(b)
		return
	}
	// Receiving the aggregated burst costs worker CPU like any other
	// packet stream; on colocated hosts this contends with the
	// resident server's cores.
	done := w.cpu.charge(w.tp.sim.Now(), (len(b.data)*4+w.cfg.PacketBytes-1)/w.cfg.PacketBytes)
	w.tp.sim.At(done, func() {
		d := len(w.buf)
		lo, _ := shardRange(d, w.n, b.shard)
		off := lo + b.seq*(w.cfg.BurstBytes/4)
		copy(w.out[off:off+len(b.data)], b.data)
		w.remaining -= len(b.data)
		if w.remaining == 0 {
			w.doneAt = w.tp.sim.Now()
		}
	})
}

// psServer aggregates one shard.
type psServer struct {
	cfg     *Config
	tp      *topo
	workers []*psWorker
	shard   int
	n       int
	nodeID  int
	agg     []int32
	// got counts contributions per burst index.
	got []int
	// cpu models the DPDK per-packet cost; colocated servers share it
	// with the resident worker.
	cpu *hostCPU
}

func (s *psServer) Deliver(msg netsim.Message) {
	s.ingest(msg.(*burst))
}

// ingest folds an update burst into the shard aggregate, charging
// the per-packet CPU cost. The charge covers the receive, the
// aggregation, and this packet's share of the eventual result
// transmission — the same run-to-completion accounting as the
// SwitchML worker model, whose 110 ns per received packet also
// covers the follow-up send. When a burst index has contributions
// from all n workers, the aggregated burst fans out to every worker.
func (s *psServer) ingest(b *burst) {
	done := s.cpu.charge(s.tp.sim.Now(), s.pktsOf(len(b.data)*4))
	off := b.seq * (s.cfg.BurstBytes / 4)
	for i, v := range b.data {
		s.agg[off+i] += v
	}
	s.got[b.seq]++
	if s.got[b.seq] < s.n {
		return
	}
	out := make([]int32, len(b.data))
	copy(out, s.agg[off:off+len(out)])
	seq := b.seq
	s.tp.sim.At(done, func() {
		for _, w := range s.workers {
			rb := &burst{
				src: s.nodeID, dst: w.rank,
				data: out, shard: s.shard, seq: seq, step: -1,
				wire: psWire(s.cfg, len(out)*4),
			}
			if w.local == s {
				// Local worker: deliver directly.
				w.Deliver(rb)
				continue
			}
			s.tp.send(rb)
		}
	})
}

// pktsOf returns how many aggregation packets a payload spans.
func (s *psServer) pktsOf(bytes int) int {
	return (bytes + s.cfg.PacketBytes - 1) / s.cfg.PacketBytes
}

func totalBursts(elems, burstElems int) int {
	return (elems + burstElems - 1) / burstElems
}
