package bench

import (
	"fmt"

	"switchml/internal/core"
	"switchml/internal/ml"
	"switchml/internal/packet"
	"switchml/internal/quant"
)

// switchSummer routes integer gradient aggregation through the real
// switch and worker state machines (lossless lockstep), so the
// Figure 10 training sweep exercises the exact dataplane code path.
type switchSummer struct {
	sw      *core.Switch
	workers []*core.Worker
}

func newSwitchSummer(n int) (*switchSummer, error) {
	const pool, k = 16, packet.DefaultElems
	sw, err := core.NewSwitch(core.SwitchConfig{
		Workers: n, PoolSize: pool, SlotElems: k, LossRecovery: true,
	})
	if err != nil {
		return nil, err
	}
	s := &switchSummer{sw: sw}
	for i := 0; i < n; i++ {
		w, err := core.NewWorker(core.WorkerConfig{
			ID: uint16(i), Workers: n, PoolSize: pool, SlotElems: k, LossRecovery: true,
		})
		if err != nil {
			return nil, err
		}
		s.workers = append(s.workers, w)
	}
	return s, nil
}

// Sum aggregates ints through the switch into out.
func (s *switchSummer) Sum(out []int32, ints [][]int32) error {
	queue := make([]*packet.Packet, 0, len(s.workers)*4)
	var rp packet.Packet // reused: every worker copies a result out before the next update
	done := make([]bool, len(s.workers))
	for i, w := range s.workers {
		queue = append(queue, w.Start(ints[i])...)
	}
	remaining := len(s.workers)
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		resp := s.sw.HandleInto(p, &rp)
		if resp.Pkt == nil {
			continue
		}
		if !resp.Multicast {
			return fmt.Errorf("bench: unexpected unicast on lossless path")
		}
		for i, w := range s.workers {
			next, fin := w.HandleResult(resp.Pkt)
			if next != nil {
				queue = append(queue, next)
			}
			if fin && !done[i] {
				done[i] = true
				remaining--
			}
		}
	}
	if remaining != 0 {
		return fmt.Errorf("bench: switch aggregation incomplete (%d workers)", remaining)
	}
	copy(out, s.workers[0].Aggregate())
	return nil
}

// RunFig10 reproduces Figure 10 / Appendix C: final validation
// accuracy of a quantized training run as the scaling factor sweeps
// across ten orders of magnitude. The integer aggregation goes
// through the real switch code path. The paper trains GoogLeNet on
// ImageNet; the substitution (a small classifier on a synthetic
// Gaussian mixture) preserves the studied property — the wide
// plateau of workable scaling factors bounded by underflow on the
// left and int32 overflow on the right.
func RunFig10(o Options) (*Table, error) {
	o.fill()
	const (
		workers = 4
		iters   = 250
	)
	ds, err := ml.GaussianMixture(o.Seed+77, 4000, 16, 4, 0.8)
	if err != nil {
		return nil, err
	}
	train, valid := ds.Split(0.8)

	runOnce := func(agg ml.Aggregator) (float64, *ml.Trainer, error) {
		tr, err := ml.NewTrainer(ml.TrainerConfig{
			Workers: workers, Features: 16, Classes: 4, Seed: o.Seed + 1,
		}, train, agg)
		if err != nil {
			return 0, nil, err
		}
		acc, err := tr.Run(iters, valid)
		return acc, tr, err
	}

	fmt.Fprintln(o.Log, "fig10: exact baseline...")
	exactAcc, exactTr, err := runOnce(ml.ExactAggregator{})
	if err != nil {
		return nil, err
	}
	maxGrad := exactTr.MaxAbsGrad
	safe, err := quant.MaxSafeFactor(workers, maxGrad)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "fig10",
		Title:  "Validation accuracy vs scaling factor (quantized training through the switch path)",
		Header: []string{"scaling factor", "accuracy", "saturated elems"},
		Notes: []string{
			fmt.Sprintf("accuracy without quantization: %.3f", exactAcc),
			fmt.Sprintf("max |gradient| observed: %.3f; Theorem 2 safe factor: %.3g", maxGrad, safe),
			"paper (GoogLeNet): a ~5-order-of-magnitude plateau below the overflow point, divergence outside",
		},
	}

	// Sweep twelve factors: from deep underflow (gradients round to
	// zero) to past overflow (aggregates wrap), anchored at the
	// Theorem 2 safe point like the paper's 7.16e2..7.16e11 sweep
	// around its max gradient of 29.24.
	for e := -10; e <= 1; e++ {
		f := safe
		for i := 0; i < e; i++ {
			f *= 10
		}
		for i := 0; i > e; i-- {
			f /= 10
		}
		fmt.Fprintf(o.Log, "fig10: f=%.3g...\n", f)
		summer, err := newSwitchSummer(workers)
		if err != nil {
			return nil, err
		}
		fx, err := quant.NewFixedPoint(f)
		if err != nil {
			return nil, err
		}
		agg := &ml.FixedPointAggregator{Fixed: fx, IntSum: summer.Sum}
		acc, _, err := runOnce(agg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.3g", f),
			fmt.Sprintf("%.3f", acc),
			fmt.Sprintf("%d", agg.Saturations),
		})
	}
	return t, nil
}
