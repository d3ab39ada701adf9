package switchml

import (
	"sync"
	"testing"
	"time"

	"switchml/internal/ml"
	"switchml/internal/quant"
)

// TestDistributedTrainingOverUDP is the full-stack integration test:
// real SGD (internal/ml) on synthetic data, with every gradient
// aggregation quantized, chunked into SwitchML packets, sent over
// real UDP sockets to the software aggregator, integer-summed by the
// switch state machine, and dequantized — the complete system of the
// paper, end to end, in one test.
func TestDistributedTrainingOverUDP(t *testing.T) {
	const (
		workers = 3
		iters   = 120
	)
	agg, err := ListenAggregator("127.0.0.1:0", AggregatorParams{Workers: workers, PoolSize: 16})
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

	// One UDP peer per worker: every per-worker gradient crosses the
	// network separately and the switch performs the sum.
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
	var mu sync.Mutex
	netAgg := &ml.FixedPointAggregator{
		Fixed: fx,
		IntSum: func(out []int32, ints [][]int32) error {
			// Each worker sends its quantized gradient through its own
			// socket; the switch sums them; every worker receives the
			// same total. We keep worker 0's copy. The mutex serializes
			// iterations (the trainer is single-threaded anyway).
			mu.Lock()
			defer mu.Unlock()
			var wg sync.WaitGroup
			results := make([][]int32, workers)
			errs := make([]error, workers)
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[w], errs[w] = peers[w].AllReduceInt32(ints[w])
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			// All workers must hold the identical aggregate.
			for w := 1; w < workers; w++ {
				for i := range results[0] {
					if results[w][i] != results[0][i] {
						t.Errorf("worker %d aggregate diverges at %d", w, i)
						break
					}
				}
			}
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
	if acc < 0.9 {
		t.Errorf("UDP-trained accuracy = %.3f, want >= 0.9", acc)
	}
	if st := agg.Stats(); st.Completions == 0 {
		t.Error("aggregator saw no completions")
	}
}

// trainOverUDP runs iters of synchronous SGD over real UDP with the
// host-all-reduce fallback armed, invoking chaos (if non-nil) before
// each iteration, and returns the final model parameters plus worker
// 0's fallback counters.
func trainOverUDP(t *testing.T, iters int, chaos func(iter int, agg *Aggregator)) ([]float32, FallbackStats) {
	t.Helper()
	const workers = 3
	agg, err := ListenAggregator("127.0.0.1:0", AggregatorParams{Workers: workers, PoolSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	ds, err := ml.GaussianMixture(7, 3000, 12, 3, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := ds.Split(0.8)
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
			RTO: 10 * time.Millisecond, Timeout: 20 * time.Second,
			AdaptiveRTO: true,
			Fallback:    &FallbackParams{Probation: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer peers[i].Close()
	}
	mesh := make([]string, workers)
	for i, p := range peers {
		mesh[i] = p.MeshAddr()
	}
	for _, p := range peers {
		if err := p.SetMeshPeers(mesh); err != nil {
			t.Fatal(err)
		}
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
					results[w], errs[w] = peers[w].AllReduceInt32(ints[w])
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			for w := 1; w < workers; w++ {
				for i := range results[0] {
					if results[w][i] != results[0][i] {
						t.Errorf("worker %d aggregate diverges at %d", w, i)
						break
					}
				}
			}
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
	for i := 0; i < iters; i++ {
		if chaos != nil {
			chaos(i, agg)
		}
		if _, err := trainer.Step(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	params := append([]float32(nil), trainer.Model().Params()...)
	return params, peers[0].FallbackStats()
}

// TestFaultTrainingSwitchKillBitIdentical is the end-to-end
// self-healing check: a training run whose aggregator is killed
// mid-job — forcing several iterations onto the host mesh before the
// revived switch takes back over — must finish with a model
// bit-identical to a fault-free run. Integer aggregation is exact and
// order-independent, so the fabric handoff must not perturb a single
// bit of the trajectory.
func TestFaultTrainingSwitchKillBitIdentical(t *testing.T) {
	const iters = 40
	clean, cleanStats := trainOverUDP(t, iters, nil)
	if cleanStats.Degrades != 0 {
		t.Fatalf("fault-free run degraded %d times", cleanStats.Degrades)
	}
	chaotic, st := trainOverUDP(t, iters, func(iter int, agg *Aggregator) {
		switch iter {
		case 15:
			agg.SetDown(true)
		case 19:
			agg.SetDown(false)
		}
	})
	if st.Degrades == 0 || st.HostRounds == 0 {
		t.Fatalf("chaos run never degraded: %+v", st)
	}
	if st.Failbacks == 0 {
		t.Fatalf("chaos run never failed back: %+v", st)
	}
	if len(clean) != len(chaotic) {
		t.Fatalf("model size mismatch: %d vs %d", len(clean), len(chaotic))
	}
	for i := range clean {
		if clean[i] != chaotic[i] {
			t.Fatalf("model diverges at parameter %d: %v (fault-free) vs %v (chaos)", i, clean[i], chaotic[i])
		}
	}
}
