package main

import "time"

// This file is the benchmark's specification: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics. BENCHMARK.json at the repository root restates the same
// tables for the driver; TestBenchmarkJSONMatchesHarness keeps the two
// from drifting apart.

// Load shape shared by every UDP workload (see README.md, "Why 2
// workers"): one process, closed loop, one goroutine and one UDP
// connection per worker against one aggregator on the host loopback.
const (
	udpWorkers = 2
	simWorkers = 8
	poolSize   = 64 // s, the public wrappers' default
	slotElems  = 32 // k, packet.DefaultElems
	floatScale = 1 << 16
	sessionBuf = 16
	simGbps    = 10.0

	defaultSeconds = 18 // run_seconds in BENCHMARK.json
	defaultTrials  = 10

	// windowLen is the least length of a window of consecutive steps; the
	// two end-to-end timings are those of the run's quietest window (see
	// README.md, "Why the quietest window").
	windowLen = 250 * time.Millisecond

	// A trial warms up for at least this many steps and at least this
	// many elements, so that udp_smallstep's warm-up (512 steps) is more
	// than three 0.1 ms calls.
	minWarmupSteps = 3
	minWarmupElems = 1 << 20

	// referenceNetioMode is the netio mode of the reference box (Linux
	// 6.x, loopback). BENCHMARK.json admits no key for it, so it is
	// recorded here; a run whose mode differs because SWITCHML_NO_MMSG or
	// SWITCHML_NO_GSO is set exits non-zero instead of reporting numbers
	// for a different I/O path under the same metric names.
	referenceNetioMode = "gso"

	// simFidelityLimit bounds SimResult.TAT / SwitchMLLineRateTAT on
	// sim_rack. The lossless 8-worker 10 Gbps rack sits 0.06 % above
	// the wire bound at 1M elements and 0.9 % at the -quick size
	// (pipeline fill and the last round trip); a simulated TAT outside
	// [1, limit] is a wrong result (Fig. 2/4).
	simFidelityLimit = 1.02
)

type kind int

const (
	kindInt   kind = iota // Peer.AllReduceInt32, one tensor per step
	kindFloat             // Session over Peer.AllReduceFloat32, sizes[] per step
	kindSim               // switchml.SimulateRack, one tensor per step
)

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	kind kind
	// sizes lists the element count of each tensor of one step.
	sizes []int
	// drop is the seeded drop probability injected in both directions.
	drop float64
	// div is the -quick divisor of the tensor sizes; 0 means full size.
	div int
}

func (w *workload) elemsPerStep() int {
	n := 0
	for _, s := range w.sizes {
		n += s
	}
	return n
}

// chunksPerStep is the number of pool-slot-sized packets one worker
// sends for one step when nothing is lost.
func (w *workload) chunksPerStep() int {
	n := 0
	for _, s := range w.sizes {
		n += (s + slotElems - 1) / slotElems
	}
	return n
}

// warmupSteps is the number of untimed steps at the start of a UDP
// trial (sim_rack warms up with one run).
func (w *workload) warmupSteps() int {
	elems := minWarmupElems / max(1, w.div)
	return max(minWarmupSteps, (elems+w.elemsPerStep()-1)/w.elemsPerStep())
}

func (w *workload) workers() int {
	if w.kind == kindSim {
		return simWorkers
	}
	return udpWorkers
}

// scaled returns the -quick variant: every tensor 16 times smaller.
func (w workload) scaled(div int) workload {
	sizes := make([]int, len(w.sizes))
	for i, s := range w.sizes {
		sizes[i] = s / div
	}
	w.sizes, w.div = sizes, div
	return w
}

func floatStreamSizes() []int {
	var s []int
	for i := 0; i < 12; i++ {
		s = append(s, 4096)
	}
	for i := 0; i < 3; i++ {
		s = append(s, 65536)
	}
	return append(s, 524288)
}

var workloads = []workload{
	{
		name:  "udp_bulk",
		why:   "1M-element int32 AllReduce: per-packet cost (netio syscalls, codec+CRC, switch ingress, window pump) dominates; the headline ATE/s workload",
		kind:  kindInt,
		sizes: []int{1 << 20},
	},
	{
		name:  "udp_smallstep",
		why:   "2,048-element AllReduce = one pool window: per-call fixed cost and wake-up latency dominate; batching or codec gains should be flat here",
		kind:  kindInt,
		sizes: []int{2048},
	},
	{
		name:  "udp_float_stream",
		why:   "16 float32 tensors per step through a Session: quantize/dequantize, per-call slices and tensor-boundary stalls are real work, absent from udp_bulk",
		kind:  kindFloat,
		sizes: floatStreamSizes(),
	},
	{
		name:  "udp_lossy",
		why:   "256K-element AllReduce with seeded 1% drop each way, RTO 5ms: retransmit timers, duplicate detection and shadow-copy result retransmission",
		kind:  kindInt,
		sizes: []int{262144},
		drop:  0.01,
	},
	{
		name:  "sim_rack",
		why:   "SimulateRack, 8 workers at 10 Gbps, 1M elements, lossless: netsim event loop + rack hosts + core on the allocating path; no sockets, no goroutines",
		kind:  kindSim,
		sizes: []int{1 << 20},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metric describes one reported number. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metric struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
}

// endToEnd are the metrics a user of the system sees. Every workload
// emits every one of them (the driver's contract), so each is defined
// for the simulator as well: there a "step" is one SimulateRack call
// and the wall-clock figures measure the simulator's own speed.
var endToEnd = []metric{
	{"ate_per_s", "elements/s", "higher", 0.25},
	{"step_p50_ms", "ms", "lower", 0.25},
	{"wire_efficiency", "ratio", "higher", 0.02},
	{"alloc_bytes_per_elem", "B/element", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced pass's numbers, grouped by module. Rows
// ending in _ns_per_* come from the single-goroutine layer replay;
// counts and the transport/switchml/rack rows come from the traced
// workload itself and read 0 where the workload never enters the layer.
var perLayer = []metric{
	{"quant.quantize_ns_per_elem", "ns/element", "lower", 0},
	{"quant.dequantize_ns_per_elem", "ns/element", "lower", 0},

	{"packet.marshal_ns_per_pkt", "ns/packet", "lower", 0},
	{"packet.unmarshal_ns_per_pkt", "ns/packet", "lower", 0},
	{"packet.crc_est_ns_per_pkt", "ns/packet", "lower", 0},
	{"packet.allocs_per_pkt", "allocs/packet", "lower", 0},

	{"core.switch_ingress_ns_per_pkt", "ns/packet", "lower", 0},
	{"core.sharded_ingress_ns_per_pkt", "ns/packet", "lower", 0},
	{"core.lock_overhead_ns_per_pkt", "ns/packet", "lower", 0},
	{"core.switch_dup_ns_per_pkt", "ns/packet", "lower", 0},
	{"core.switch_alloc_ingress_ns_per_pkt", "ns/packet", "lower", 0},
	{"core.worker_start_ns_per_pkt", "ns/packet", "lower", 0},
	{"core.worker_result_ns_per_pkt", "ns/packet", "lower", 0},
	{"core.worker_retransmit_ns_per_pkt", "ns/packet", "lower", 0},
	{"core.updates", "count/step", "lower", 0},
	{"core.completions", "count/step", "lower", 0},
	{"core.ignored_duplicates", "count/step", "lower", 0},
	{"core.result_retransmissions", "count/step", "lower", 0},
	{"core.stale_updates", "count/step", "lower", 0},
	{"core.worker_retransmissions", "count/step", "lower", 0},

	{"netio.send_ns_per_dgram_b1", "ns/datagram", "lower", 0},
	{"netio.send_ns_per_dgram_b32", "ns/datagram", "lower", 0},
	{"netio.recv_ns_per_dgram_b1", "ns/datagram", "lower", 0},
	{"netio.recv_ns_per_dgram_b32", "ns/datagram", "lower", 0},
	{"netio.train_send_ns_per_dgram", "ns/datagram", "lower", 0},
	{"netio.send_errors", "count", "lower", 0},
	{"netio.send_retries", "count", "lower", 0},
	{"netio.truncated", "count", "lower", 0},

	{"transport.ns_per_update_pkt", "ns/packet", "lower", 0},
	{"transport.cpu_ns_per_update_pkt", "ns/packet", "lower", 0},
	{"transport.cores_busy", "cores", "lower", 0},
	{"transport.layer_sum_ns_per_pkt", "ns/packet", "lower", 0},
	{"transport.residual_ns_per_pkt", "ns/packet", "lower", 0},
	{"transport.call_fixed_us", "us", "lower", 0},
	{"transport.batch_occupancy_p50", "datagrams", "higher", 0},
	{"transport.batch_occupancy_p99", "datagrams", "higher", 0},
	{"transport.shard_imbalance", "ratio", "lower", 0},
	{"transport.datagrams_corrupted", "count", "lower", 0},
	{"transport.step_p90_ms", "ms", "lower", 0},
	{"transport.step_p99_ms", "ms", "lower", 0},

	{"switchml.listen_ms", "ms", "lower", 0},
	{"switchml.dial_ms", "ms", "lower", 0},
	{"switchml.worker_skew_ms", "ms", "lower", 0},
	{"switchml.float_overhead_ratio", "ratio", "lower", 0},

	{"netsim.events_per_s", "1/s", "higher", 0},
	{"netsim.event_ns", "ns", "lower", 0},
	{"rack.wall_ms_per_run", "ms", "lower", 0},
	{"rack.sim_pkts_per_s", "packets/s", "higher", 0},
	{"rack.allocs_per_sim_pkt", "allocs/packet", "lower", 0},
	{"rack.packets_sent", "count", "lower", 0},
	{"rack.retransmissions", "count", "lower", 0},
	{"rack.pool_size", "count", "lower", 0},
	{"rack.tat_us", "us", "lower", 0},
	{"rack.tat_vs_bound", "ratio", "lower", 0},

	{"telemetry.counter_inc_ns", "ns", "lower", 0},
	{"telemetry.histogram_observe_ns", "ns", "lower", 0},
	{"telemetry.snapshot_us", "us", "lower", 0},

	{"trace.overhead_ratio", "ratio", "lower", 0},
}
