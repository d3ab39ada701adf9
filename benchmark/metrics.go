package main

import (
	"sort"
	"time"

	"switchml/internal/allreduce"
)

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation; 0 for
// an empty sample.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func durQuantileMs(d []time.Duration, q float64) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x) / 1e6
	}
	return quantile(v, q)
}

// overTrials evaluates f on every trial and returns the median.
func (p *pass) overTrials(f func(t *trialResult) float64) float64 {
	v := make([]float64, len(p.trials))
	for i := range p.trials {
		v[i] = f(&p.trials[i])
	}
	return median(v)
}

// timeWindow is a run of consecutive timed steps of one trial.
type timeWindow struct {
	ate   float64 // elements per second, gaps between the steps included
	p50ms float64 // median step time
}

// timeWindows cuts the trial's timed section into runs of consecutive steps
// of at least windowLen each. A remainder shorter than that is dropped,
// unless the trial is shorter than one window and has nothing else.
func (t *trialResult) timeWindows(elemsPerStep float64) []timeWindow {
	var ws []timeWindow
	first, from := 0, time.Duration(0)
	for i, end := range t.ends {
		if end-from >= windowLen || (i == len(t.ends)-1 && len(ws) == 0) {
			n := i + 1 - first
			ws = append(ws, timeWindow{
				ate:   elemsPerStep * float64(n) / (end - from).Seconds(),
				p50ms: durQuantileMs(t.steps[first:i+1], 0.5),
			})
			first, from = i+1, end
		}
	}
	return ws
}

// quietest returns the window with the highest throughput of all the
// pass's trials: the quarter second the host disturbed least.
func (p *pass) quietest() timeWindow {
	var best timeWindow
	for i := range p.trials {
		for _, w := range p.trials[i].timeWindows(float64(p.w.elemsPerStep())) {
			if w.ate > best.ate {
				best = w
			}
		}
	}
	return best
}

func (p *pass) atePerS() float64 { return p.quietest().ate }

// endToEndValues computes every end-to-end metric. The two timings
// come from the quietest window of the run; the counts and the set-up
// time are medians over the trials.
func (p *pass) endToEndValues() map[string]float64 {
	w := p.w
	elems := float64(w.elemsPerStep())
	ideal := float64(w.workers() * w.chunksPerStep())
	quiet := p.quietest()
	return map[string]float64{
		"ate_per_s":   quiet.ate,
		"step_p50_ms": quiet.p50ms,
		"wire_efficiency": p.overTrials(func(t *trialResult) float64 {
			return ideal * float64(len(t.steps)) / float64(t.updates)
		}),
		"alloc_bytes_per_elem": p.overTrials(func(t *trialResult) float64 {
			return float64(t.allocBytes) / (elems * float64(len(t.steps)))
		}),
		"setup_s": p.overTrials(func(t *trialResult) float64 { return t.setup.Seconds() }),
	}
}

// stepSamples is the number of timed steps of the pass, windowCount
// the number of windows they were cut into.
func (p *pass) stepSamples() int {
	n := 0
	for _, t := range p.trials {
		n += len(t.steps)
	}
	return n
}

func (p *pass) windowCount() int {
	n := 0
	for i := range p.trials {
		n += len(p.trials[i].timeWindows(1))
	}
	return n
}

// layerSum adds the replay rows one update packet passes through, as
// CPU time on one core: the worker consumes the previous result and
// builds the update (worker_result), marshals it and sends it in a
// train; the aggregator receives, unmarshals and aggregates it, and —
// once per completed slot, i.e. once per `workers` updates — marshals
// the result, which goes out as one train datagram per worker; the
// worker receives and unmarshals that result. Quantization is per
// element and only on the float path.
func layerSum(w *workload, r map[string]float64) float64 {
	if w.kind == kindSim {
		return 0
	}
	sum := r["core.worker_result_ns_per_pkt"] +
		r["packet.marshal_ns_per_pkt"]*(1+1/float64(udpWorkers)) +
		2*r["netio.train_send_ns_per_dgram"] +
		2*r["netio.recv_ns_per_dgram_b32"] +
		2*r["packet.unmarshal_ns_per_pkt"] +
		r["core.sharded_ingress_ns_per_pkt"]
	if w.kind == kindFloat {
		sum += slotElems * (r["quant.quantize_ns_per_elem"] + r["quant.dequantize_ns_per_elem"])
	}
	return sum
}

// perLayerValues computes every per-layer metric from the traced pass,
// the layer replay and the untraced reference pass.
func perLayerValues(traced, untraced *pass, replay map[string]float64, spans []spanTotals) map[string]float64 {
	w := traced.w
	m := make(map[string]float64, len(perLayer))
	for _, pm := range perLayer {
		m[pm.name] = 0
	}
	for k, v := range replay {
		m[k] = v
	}
	m["core.lock_overhead_ns_per_pkt"] = m["core.sharded_ingress_ns_per_pkt"] - m["core.switch_ingress_ns_per_pkt"]

	perStep := func(count func(t *trialResult) uint64) float64 {
		return traced.overTrials(func(t *trialResult) float64 {
			return float64(count(t)) / float64(len(t.steps))
		})
	}
	m["core.updates"] = perStep(func(t *trialResult) uint64 { return t.layer.sw.Updates })
	m["core.completions"] = perStep(func(t *trialResult) uint64 { return t.layer.sw.Completions })
	m["core.ignored_duplicates"] = perStep(func(t *trialResult) uint64 { return t.layer.sw.IgnoredDuplicates })
	m["core.result_retransmissions"] = perStep(func(t *trialResult) uint64 { return t.layer.sw.ResultRetransmissions })
	m["core.stale_updates"] = perStep(func(t *trialResult) uint64 { return t.layer.sw.StaleUpdates })
	m["core.worker_retransmissions"] = perStep(func(t *trialResult) uint64 { return t.layer.workerRetx })

	for i := range traced.trials {
		lc := &traced.trials[i].layer
		m["netio.send_errors"] += float64(lc.sendErrors)
		m["netio.send_retries"] += float64(lc.sendRetries)
		m["transport.datagrams_corrupted"] += float64(lc.corrupted)
	}

	var steps, skews []time.Duration
	for i := range traced.trials {
		steps = append(steps, traced.trials[i].steps...)
		skews = append(skews, traced.trials[i].skews...)
	}
	m["transport.step_p90_ms"] = durQuantileMs(steps, 0.9)
	if len(steps) >= 1000 { // a p99 needs ten samples beyond it
		m["transport.step_p99_ms"] = durQuantileMs(steps, 0.99)
	}
	m["trace.overhead_ratio"] = untraced.atePerS() / traced.atePerS()

	if w.kind == kindSim {
		m["rack.wall_ms_per_run"] = durQuantileMs(steps, 0.5)
		lc := &traced.trials[0].layer
		wall := m["rack.wall_ms_per_run"] / 1e3
		m["netsim.events_per_s"] = float64(lc.simEvents) / wall
		m["netsim.event_ns"] = wall * 1e9 / float64(lc.simEvents)
		m["rack.sim_pkts_per_s"] = float64(lc.simPackets) / wall
		m["rack.allocs_per_sim_pkt"] = traced.overTrials(func(t *trialResult) float64 {
			return float64(t.mallocs) / float64(len(t.steps)) / float64(t.layer.simPackets)
		})
		m["rack.packets_sent"] = float64(lc.simPackets)
		m["rack.retransmissions"] = float64(lc.simRetx)
		m["rack.pool_size"] = float64(lc.simPool)
		m["rack.tat_us"] = float64(lc.simTAT) / 1e3
		m["rack.tat_vs_bound"] = lc.simTAT.Seconds() / allreduce.SwitchMLLineRateTAT(simGbps*1e9, slotElems, w.sizes[0])
		return m
	}

	m["transport.ns_per_update_pkt"] = traced.overTrials(func(t *trialResult) float64 {
		return float64(t.wall) / float64(t.layer.sw.Updates)
	})
	m["transport.cpu_ns_per_update_pkt"] = traced.overTrials(func(t *trialResult) float64 {
		return float64(t.cpu) / float64(t.layer.sw.Updates)
	})
	m["transport.cores_busy"] = m["transport.cpu_ns_per_update_pkt"] / m["transport.ns_per_update_pkt"]
	m["transport.layer_sum_ns_per_pkt"] = layerSum(w, m)
	m["transport.residual_ns_per_pkt"] = m["transport.cpu_ns_per_update_pkt"] - m["transport.layer_sum_ns_per_pkt"]
	m["transport.call_fixed_us"] = durQuantileMs(steps, 0.5)*1e3 -
		float64(w.chunksPerStep())*m["transport.layer_sum_ns_per_pkt"]/1e3
	m["transport.batch_occupancy_p50"] = traced.overTrials(func(t *trialResult) float64 { return t.layer.occP50 })
	m["transport.batch_occupancy_p99"] = traced.overTrials(func(t *trialResult) float64 { return t.layer.occP99 })
	m["transport.shard_imbalance"] = traced.overTrials(func(t *trialResult) float64 { return t.layer.imbalance })
	m["switchml.listen_ms"] = traced.overTrials(func(t *trialResult) float64 { return float64(t.layer.listen) / 1e6 })
	m["switchml.dial_ms"] = traced.overTrials(func(t *trialResult) float64 { return float64(t.layer.dial) / 1e6 })
	m["switchml.worker_skew_ms"] = durQuantileMs(skews, 0.5)
	// Time inside the worker calls ÷ time inside transport.AllReduceInt32:
	// what Session hand-off, quantization and per-call slices add.
	calls := total(spans, "session.submit_wait")
	if w.kind == kindInt {
		calls = total(spans, "peer.allreduce")
	}
	if inner := total(spans, "transport.allreduce"); inner > 0 {
		m["switchml.float_overhead_ratio"] = float64(calls) / float64(inner)
	}
	return m
}
