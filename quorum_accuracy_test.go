package switchml

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"switchml/internal/ml"
	"switchml/internal/quant"
)

// maxQuorumAccuracyDivergence is the committed bound on how much
// validation accuracy a quorum run may lose to full participation.
// Straggler mitigation trades the slowest worker's gradient (dropped,
// or reconciled one step late) for not waiting on it; this constant is
// the contract that the trade stays small on the Appendix C workload.
const maxQuorumAccuracyDivergence = 0.05

// trainQuorumOverUDP trains the internal/ml model over real UDP with
// the given quorum settings, worker 2 artificially delayed by lag each
// iteration (the straggler), and returns the validation accuracy and
// the aggregator's final stats.
func trainQuorumOverUDP(t *testing.T, quorum int, policy LatePolicy, lag time.Duration) (float64, AggregatorStats) {
	t.Helper()
	const (
		workers = 3
		iters   = 100
	)
	agg, err := ListenAggregator("127.0.0.1:0", AggregatorParams{
		Workers: workers, PoolSize: 16,
		Quorum: quorum, LatePolicy: policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	ds, err := ml.GaussianMixture(7, 3000, 12, 3, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	train, valid := ds.Split(0.8)
	scale, err := MaxSafeScale(workers, 64)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := quant.NewFixedPoint(scale)
	if err != nil {
		t.Fatal(err)
	}

	peers := make([]*Peer, workers)
	for i := range peers {
		peers[i], err = DialAggregator(agg.Addr(), PeerParams{
			ID: i, Workers: workers,
			RTO: 20 * time.Millisecond, Timeout: 20 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer peers[i].Close()
	}

	netAgg := &ml.FixedPointAggregator{
		Fixed: fx,
		IntSum: func(out []int32, ints [][]int32) error {
			var wg sync.WaitGroup
			results := make([][]int32, workers)
			errs := make([]error, workers)
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					if w == workers-1 && lag > 0 {
						// The straggler: its updates arrive after the
						// quorum already completed the slots.
						time.Sleep(lag)
					}
					results[w], errs[w] = peers[w].AllReduceInt32(ints[w])
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			// The model follows worker 0, a quorum member. (Under
			// quorum the straggler's own view may legitimately differ;
			// cross-worker equality is asserted only in the
			// full-participation tests.)
			copy(out, results[0])
			return nil
		},
	}
	trainer, err := ml.NewTrainer(ml.TrainerConfig{
		Workers: workers, Features: 12, Classes: 3, Seed: 11,
	}, train, netAgg)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := trainer.Run(iters, valid)
	if err != nil {
		t.Fatal(err)
	}
	return acc, agg.Stats()
}

// TestQuorumTrainingAccuracyBound quantifies the straggler-mitigation
// trade: a 2-of-3 quorum run with one delayed worker must train to
// within maxQuorumAccuracyDivergence of the full-participation run,
// under both late policies. This is the accuracy contract behind
// AggregatorParams.Quorum / SimParams.Quorum.
func TestQuorumTrainingAccuracyBound(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 3 models over UDP")
	}
	full, fullStats := trainQuorumOverUDP(t, 0, LateDrop, 0)
	if fullStats.QuorumCompletions != 0 {
		t.Fatalf("full participation recorded %d quorum completions", fullStats.QuorumCompletions)
	}
	if full < 0.9 {
		t.Fatalf("full-participation accuracy = %.3f, want >= 0.9 (baseline broken)", full)
	}
	for _, tc := range []struct {
		name   string
		policy LatePolicy
	}{
		{"late-drop", LateDrop},
		{"late-reconcile", LateReconcile},
	} {
		t.Run(tc.name, func(t *testing.T) {
			acc, st := trainQuorumOverUDP(t, 2, tc.policy, 3*time.Millisecond)
			t.Logf("full=%.3f quorum=%.3f (quorum completions %d, late dropped %d, late reconciled %d, gone replies %d)",
				full, acc, st.QuorumCompletions, st.LateDropped, st.LateReconciled, st.GoneReplies)
			if st.QuorumCompletions == 0 {
				t.Error("quorum never completed a slot early; the straggler was never mitigated")
			}
			if tc.policy == LateReconcile && st.LateDropped > 0 {
				t.Errorf("reconcile policy dropped %d late updates", st.LateDropped)
			}
			if div := full - acc; div > maxQuorumAccuracyDivergence {
				t.Errorf("quorum accuracy %.3f diverges %.3f from full participation %.3f (bound %.2f)",
					acc, div, full, maxQuorumAccuracyDivergence)
			}
		})
	}
}

// TestQuorumSimTrainingAccuracyBound is the rack-simulator twin of the
// UDP bound: the trainer's integer sums run through SimulateRack under
// a 2-of-3 quorum. With equal-speed links every slot completes at
// exactly quorum contributions and LateDrop discards the rest, so the
// quorum aggregate normalized by the quorum size must reproduce the
// exact sum — the training trajectory must not diverge at all. Any
// torn aggregate (a slot mixing phases or folding a carry it should
// not) would push the accuracy outside the committed bound.
func TestQuorumSimTrainingAccuracyBound(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 2 models through the rack simulator")
	}
	const (
		workers = 3
		iters   = 60
	)
	ds, err := ml.GaussianMixture(7, 3000, 12, 3, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	train, valid := ds.Split(0.8)
	scale, err := MaxSafeScale(workers, 64)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := quant.NewFixedPoint(scale)
	if err != nil {
		t.Fatal(err)
	}

	run := func(intSum func(out []int32, ints [][]int32) error) float64 {
		t.Helper()
		trainer, err := ml.NewTrainer(ml.TrainerConfig{
			Workers: workers, Features: 12, Classes: 3, Seed: 11,
		}, train, &ml.FixedPointAggregator{Fixed: fx, IntSum: intSum})
		if err != nil {
			t.Fatal(err)
		}
		acc, err := trainer.Run(iters, valid)
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}

	// Baseline: exact in-process integer addition.
	exact := run(nil)

	// Quorum: every aggregation crosses a simulated rack with a 2-of-3
	// quorum. SimulateRack aggregates one shared tensor, so the
	// per-worker gradients are pre-summed; with symmetric links each
	// slot completes at exactly the quorum threshold, making the
	// aggregate quorum× the input.
	const quorum = 2
	step := 0
	quorumAcc := run(func(out []int32, ints [][]int32) error {
		step++
		sum := make([]int32, len(out))
		for _, iv := range ints {
			for i, v := range iv {
				sum[i] += v
			}
		}
		res, err := SimulateRack(SimParams{
			Workers: workers, LinkGbps: 10, PoolSize: 8, SlotElems: 8,
			Quorum: quorum, LatePolicy: LateDrop, Seed: int64(step),
		}, sum)
		if err != nil {
			return err
		}
		if rem := len(res.Failed) + len(res.Detached); rem != 0 {
			return fmt.Errorf("step %d: unexpected membership churn: %+v", step, res)
		}
		for i, v := range res.Aggregate {
			if v%quorum != 0 {
				return fmt.Errorf("step %d: aggregate[%d] = %d is not a clean %d-member sum (torn aggregate)",
					step, i, v, quorum)
			}
			out[i] = v / quorum
		}
		return nil
	})
	if quorumAcc != exact {
		t.Errorf("sim-quorum accuracy %.3f != exact %.3f: the normalized quorum trajectory must be bit-identical",
			quorumAcc, exact)
	}
	if exact < 0.9 {
		t.Errorf("exact accuracy = %.3f, want >= 0.9 (baseline broken)", exact)
	}
}
