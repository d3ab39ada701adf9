// Package allreduce implements the paper's baseline communication
// strategies — ring all-reduce (the Gloo/NCCL algorithm),
// halving-and-doubling all-reduce, and the dedicated/co-located
// parameter-server designs of §5.3 — as event-driven actors over the
// same netsim substrate the SwitchML rack uses, so comparisons are
// apples-to-apples.
//
// Host-based strategies exchange bulk data as bursts of MTU frames
// through a non-aggregating crossbar switch. TCP-stack inefficiency
// for the library baselines (Gloo, NCCL-over-TCP) is modelled by a
// goodput efficiency factor applied to the end-host link rate,
// calibrated in internal/bench from the paper's Table 1 and Figure 4;
// the PS baselines are the authors' own DPDK code and are modelled
// with the same per-packet CPU costs as the SwitchML workers.
package allreduce

import (
	"fmt"

	"switchml/internal/netsim"
)

// Frame overhead for host-based bulk transfer: Ethernet + IPv4 + TCP
// headers and FCS per MTU segment.
const (
	mtuPayload   = 1460
	mtuOverhead  = 56
	defaultBurst = 64 * 1024
)

// burst is a segment of a bulk transfer travelling the fabric.
type burst struct {
	src, dst int
	// data is the carried payload; nil for size-only transfers.
	data []int32
	// step/shard/seq identify the transfer for the receiving actor.
	step  int
	shard int
	seq   int
	// wire is the on-the-wire size including per-MTU framing.
	wire int
}

// WireSize implements netsim.Message.
func (b *burst) WireSize() int { return b.wire }

// wireBytes returns payload bytes plus MTU framing overhead.
func wireBytes(payload int) int {
	frames := (payload + mtuPayload - 1) / mtuPayload
	if frames == 0 {
		frames = 1
	}
	return payload + frames*mtuOverhead
}

// fabric is a non-aggregating crossbar: it forwards each burst from
// the source's uplink onto the destination's downlink after a fixed
// switching latency.
type fabric struct {
	sim       *netsim.Sim
	latency   netsim.Time
	downlinks []*netsim.Link
}

// Deliver implements netsim.Node for the switch side of all uplinks.
func (f *fabric) Deliver(msg netsim.Message) {
	b := msg.(*burst)
	f.sim.After(f.latency, func() {
		f.downlinks[b.dst].Send(b)
	})
}

// Config parametrizes a host-based collective run.
type Config struct {
	// Workers is n.
	Workers int
	// LinkBitsPerSec is the physical access link rate; zero selects
	// 10 Gbps.
	LinkBitsPerSec float64
	// Efficiency in (0,1] derates the end-host goodput, modelling the
	// transport stack (1.0 = kernel-bypass ideal). Zero selects 1.0.
	Efficiency float64
	// Propagation is the one-way link delay; zero selects 1 µs.
	Propagation netsim.Time
	// SwitchLatency is the crossbar forwarding latency; zero selects
	// 400 ns.
	SwitchLatency netsim.Time
	// BurstBytes segments bulk transfers; zero selects 64 KiB.
	BurstBytes int
	// PerPacketCost and Cores model DPDK-style per-packet CPU work in
	// the PS baselines (zero cost disables CPU modelling).
	PerPacketCost netsim.Time
	// Cores is the per-host core count for CPU modelling; zero
	// selects 4.
	Cores int
	// PacketBytes is the PS aggregation packet payload size; zero
	// selects 128 (32 elements, the SwitchML chunk), and Figure 7's
	// MTU variant passes 1460.
	PacketBytes int
	// Seed drives any randomized behaviour.
	Seed int64
}

func (c *Config) fillDefaults() error {
	if c.Workers <= 0 {
		return fmt.Errorf("allreduce: worker count must be positive, got %d", c.Workers)
	}
	if c.LinkBitsPerSec == 0 {
		c.LinkBitsPerSec = 10e9
	}
	if c.Efficiency == 0 {
		c.Efficiency = 1
	}
	if c.Efficiency < 0 || c.Efficiency > 1 {
		return fmt.Errorf("allreduce: efficiency %v out of (0,1]", c.Efficiency)
	}
	if c.Propagation == 0 {
		c.Propagation = netsim.Microsecond
	}
	if c.SwitchLatency == 0 {
		c.SwitchLatency = 400 * netsim.Nanosecond
	}
	if c.BurstBytes == 0 {
		c.BurstBytes = defaultBurst
	}
	if c.Cores == 0 {
		c.Cores = 4
	}
	if c.PacketBytes == 0 {
		c.PacketBytes = 128
	}
	return nil
}

// hostRate is the effective injection rate of an end host.
func (c *Config) hostRate() float64 { return c.LinkBitsPerSec * c.Efficiency }

// Result summarizes a collective run.
type Result struct {
	// Time is the completion time of the slowest participant.
	Time netsim.Time
	// Elems is the aggregated tensor length.
	Elems int
}

// ATEPerSec returns aggregated tensor elements per second, the
// Figure 4 metric.
func (r Result) ATEPerSec() float64 {
	if r.Time <= 0 {
		return 0
	}
	return float64(r.Elems) / (float64(r.Time) / 1e9)
}

// topo builds the star topology: every node gets an uplink into the
// fabric and a downlink from it, both at the host's effective rate.
type topo struct {
	sim     *netsim.Sim
	fab     *fabric
	uplinks []*netsim.Link
}

func newTopo(cfg *Config, nodes []netsim.Node) *topo {
	sim := netsim.NewSim(cfg.Seed)
	fab := &fabric{sim: sim, latency: cfg.SwitchLatency}
	t := &topo{sim: sim, fab: fab}
	for i, nd := range nodes {
		up := netsim.NewLink(sim, netsim.LinkConfig{
			Name:        fmt.Sprintf("n%d->fab", i),
			BitsPerSec:  cfg.hostRate(),
			Propagation: cfg.Propagation,
		}, fab)
		down := netsim.NewLink(sim, netsim.LinkConfig{
			Name:        fmt.Sprintf("fab->n%d", i),
			BitsPerSec:  cfg.hostRate(),
			Propagation: cfg.Propagation,
		}, nd)
		t.uplinks = append(t.uplinks, up)
		fab.downlinks = append(fab.downlinks, down)
	}
	return t
}

// send transmits a message from its source node's uplink.
func (t *topo) send(m PeerMsg) { t.uplinks[m.PeerSrc()].Send(m) }
