package bench

import (
	"fmt"
	"math"

	"switchml/internal/netsim"
	"switchml/internal/rack"
	"switchml/internal/telemetry"
)

// tcpLossFactor models TCP goodput degradation under random loss for
// the Gloo/NCCL baselines with the PFTK (Padhye) model: throughput <=
// MSS / (RTT*sqrt(2p/3) + T0*min(1, 3*sqrt(3p/8))*p*(1+32p^2)),
// capped at the stack's lossless rate. The timeout term dominates at
// 1% loss, which is what makes TCP collapse there while SwitchML's
// per-packet recovery keeps streaming. SwitchML needs no such model —
// its recovery is simulated packet by packet.
func tcpLossFactor(bitsPerSec, lossRate float64) float64 {
	if lossRate <= 0 {
		return 1
	}
	const (
		mss = 1460 * 8 // bits
		rtt = 100e-6   // seconds, LAN with queueing
		t0  = 50e-3    // effective retransmission timeout
	)
	p := lossRate
	denom := rtt*math.Sqrt(2*p/3) + t0*math.Min(1, 3*math.Sqrt(3*p/8))*p*(1+32*p*p)
	bw := mss / denom
	f := bw / bitsPerSec
	if f > 1 {
		return 1
	}
	return f
}

// RunFig5 reproduces Figure 5: inflation of TAT under uniform random
// per-link loss, normalized to the lossless run, for SwitchML, Gloo
// and NCCL. The retransmission timeout is 1 ms as in §5.5.
func RunFig5(o Options) (*Table, error) {
	o.fill()
	elems := o.mb100()
	t := &Table{
		ID:    "fig5",
		Title: "TAT under packet loss: inflation (vs own lossless run) and absolute TAT (ms)",
		Header: []string{"loss", "sml-infl", "gloo-infl", "nccl-infl",
			"sml-TAT", "gloo-TAT", "nccl-TAT"},
	}

	baseline, _, err := switchmlLossTAT(o, elems, 0)
	if err != nil {
		return nil, err
	}
	glooRate, err := measureRing(o, 8, 10e9, glooEff(10e9))
	if err != nil {
		return nil, err
	}
	ncclRate, err := measureRing(o, 8, 10e9, ncclEff(10e9))
	if err != nil {
		return nil, err
	}
	glooBase := netsim.Time(float64(elems) / glooRate * 1e9)
	ncclBase := netsim.Time(float64(elems) / ncclRate * 1e9)
	t.Rows = append(t.Rows, []string{"0%", "1.00x", "1.00x", "1.00x",
		fmtMs(baseline), fmtMs(glooBase), fmtMs(ncclBase)})

	for _, loss := range []float64{0.0001, 0.001, 0.01} {
		fmt.Fprintf(o.Log, "fig5: loss %v...\n", loss)
		tat, counters, err := switchmlLossTAT(o, elems, loss)
		if err != nil {
			return nil, err
		}
		// The highest-loss run's protocol counters ride along with the
		// artifact, so result trajectories carry recovery behaviour.
		t.Counters = counters
		smlInfl := float64(tat) / float64(baseline)
		glooInfl := 1 / tcpLossFactor(10e9*glooEff(10e9), loss)
		ncclInfl := 1 / tcpLossFactor(10e9*ncclEff(10e9), loss)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f%%", loss*100),
			fmt.Sprintf("%.2fx", smlInfl),
			fmt.Sprintf("%.2fx", glooInfl),
			fmt.Sprintf("%.2fx", ncclInfl),
			fmtMs(tat),
			fmtMs(netsim.Time(float64(glooBase) * glooInfl)),
			fmtMs(netsim.Time(float64(ncclBase) * ncclInfl)),
		})
	}
	t.Notes = append(t.Notes,
		"paper's claim: SwitchML completes aggregation significantly faster (absolute TAT) than Gloo at",
		"0.1%+ loss; 0.01% barely affects either. TCP baselines degrade via the PFTK timeout model.",
		"our per-RTO slot stalls make SwitchML's own inflation larger than the paper's ~3.2x at 1%",
		"(simulated RTT is lower than the real DPDK pipeline's); see EXPERIMENTS.md")
	return t, nil
}

func switchmlLossTAT(o Options, elems int, loss float64) (netsim.Time, map[string]uint64, error) {
	r, err := rack.NewRack(rack.Config{
		Workers: 8, LossRecovery: true, LossRate: loss, Seed: o.Seed,
		RTO: netsim.Millisecond, Tracer: o.Tracer,
	})
	if err != nil {
		return 0, nil, err
	}
	res, err := r.AllReduceShared(make([]int32, elems))
	if err != nil {
		return 0, nil, err
	}
	return res.TAT, r.Counters(), nil
}

// RunFig6 reproduces Figure 6: the timeline of packets sent per
// 10 ms by one worker during an aggregation at 0%, 0.01% and 1%
// loss, against the ideal packet rate.
func RunFig6(o Options) (*Table, error) {
	o.fill()
	elems := o.mb100()
	const bucket = 10 * netsim.Millisecond

	type series struct {
		tat      netsim.Time
		buckets  []int
		resent   uint64
		counters map[string]uint64
	}
	runs := map[float64]*series{}
	for _, loss := range []float64{0, 0.0001, 0.01} {
		fmt.Fprintf(o.Log, "fig6: loss %v...\n", loss)
		s := &series{}
		// The timeline is built from the telemetry trace: worker 0's
		// uplink PacketSent events are its transmissions (fresh and
		// re-sent alike), Retransmit events mark the recoveries. The
		// experiment and the observability layer are the same code
		// path.
		tracer := telemetry.TracerFunc(func(e telemetry.Event) {
			switch {
			case e.Type == telemetry.EvPacketSent && e.Actor == "w0->sw":
				b := int(netsim.Time(e.TS) / bucket)
				for len(s.buckets) <= b {
					s.buckets = append(s.buckets, 0)
				}
				s.buckets[b]++
			case e.Type == telemetry.EvRetransmit && e.Worker == 0:
				s.resent++
			}
		})
		r, err := rack.NewRack(rack.Config{
			Workers: 8, LossRecovery: true, LossRate: loss, Seed: o.Seed,
			RTO:    netsim.Millisecond,
			Tracer: telemetry.Fanout(tracer, o.Tracer),
		})
		if err != nil {
			return nil, err
		}
		res, err := r.AllReduceShared(make([]int32, elems))
		if err != nil {
			return nil, err
		}
		s.tat = res.TAT
		s.counters = r.Counters()
		runs[loss] = s
	}

	t := &Table{
		ID:       "fig6",
		Title:    "Worker 0 packets sent per 10 ms under loss",
		Header:   []string{"time (ms)", "0%", "0.01%", "1%"},
		Counters: runs[0.01].counters,
	}
	maxBuckets := 0
	for _, s := range runs {
		if len(s.buckets) > maxBuckets {
			maxBuckets = len(s.buckets)
		}
	}
	cell := func(s *series, b int) string {
		if b >= len(s.buckets) {
			return "-"
		}
		return fmt.Sprintf("%d", s.buckets[b])
	}
	for b := 0; b < maxBuckets; b++ {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", (b+1)*10),
			cell(runs[0], b), cell(runs[0.0001], b), cell(runs[0.01], b),
		})
	}
	idealPPS := 10e9 / (180 * 8)
	t.Rows = append(t.Rows, []string{"ideal/10ms",
		fmt.Sprintf("%.0f", idealPPS/100), fmt.Sprintf("%.0f", idealPPS/100), fmt.Sprintf("%.0f", idealPPS/100)})
	t.Notes = append(t.Notes,
		fmt.Sprintf("TAT: 0%%=%s ms, 0.01%%=%s ms, 1%%=%s ms (paper: 132, 138, 424 ms at full size)",
			fmtMs(runs[0].tat), fmtMs(runs[0.0001].tat), fmtMs(runs[0.01].tat)),
		fmt.Sprintf("retransmissions by worker 0: 0.01%%=%d, 1%%=%d",
			runs[0.0001].resent, runs[0.01].resent),
		"paper: the sender holds near the ideal rate and recovers quickly; the 1% run slows past",
		"~70% of the tensor because random losses load slots unevenly and there is no work-stealing")
	return t, nil
}
