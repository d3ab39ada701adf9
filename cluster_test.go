package switchml

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestClusterAllReduceInt32(t *testing.T) {
	const n, d = 4, 10000
	c, err := NewCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(1))
	updates := make([][]int32, n)
	want := make([]int32, d)
	for i := range updates {
		updates[i] = make([]int32, d)
		for j := range updates[i] {
			updates[i][j] = int32(rng.Intn(1001) - 500)
			want[j] += updates[i][j]
		}
	}

	results := make([][]int32, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = c.Worker(i).AllReduceInt32(updates[i])
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		for j := range want {
			if results[i][j] != want[j] {
				t.Fatalf("worker %d elem %d: got %d want %d", i, j, results[i][j], want[j])
			}
		}
	}
}

func TestClusterFloat32(t *testing.T) {
	const n = 3
	scale, err := MaxSafeScale(n, 100)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(n, WithScale(scale))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const d = 2000
	updates := make([][]float32, n)
	exact := make([]float64, d)
	rng := rand.New(rand.NewSource(2))
	for i := range updates {
		updates[i] = make([]float32, d)
		for j := range updates[i] {
			updates[i][j] = (rng.Float32() - 0.5) * 50
			exact[j] += float64(updates[i][j])
		}
	}
	results := make([][]float32, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = c.Worker(i).AllReduceFloat32(updates[i])
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		for j := range exact {
			// Theorem 1 bound n/f, plus the float32 representation
			// error of the result itself (~|x|*2^-23).
			bound := float64(n)/scale + math.Abs(exact[j])/float64(1<<23) + 1e-9
			if diff := math.Abs(float64(results[i][j]) - exact[j]); diff > bound {
				t.Fatalf("worker %d elem %d: error %v exceeds bound %v", i, j, diff, bound)
			}
		}
	}
}

func TestClusterMeanFloat32(t *testing.T) {
	const n = 2
	c, err := NewCluster(n, WithScale(1e6))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	outs := make([][]float32, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], _ = c.Worker(i).AllReduceMeanFloat32([]float32{float32(i), 4})
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if math.Abs(float64(outs[i][0])-0.5) > 1e-5 || math.Abs(float64(outs[i][1])-4) > 1e-5 {
			t.Errorf("worker %d mean = %v, want [0.5 4]", i, outs[i])
		}
	}
}

func TestClusterConsecutiveRounds(t *testing.T) {
	const n = 2
	c, err := NewCluster(n, WithPoolSize(2), WithSlotElems(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for round := 0; round < 5; round++ {
		d := 5 + round*7
		var wg sync.WaitGroup
		outs := make([][]int32, n)
		for i := 0; i < n; i++ {
			i := i
			u := make([]int32, d)
			for j := range u {
				u[j] = int32(round*100 + i + j)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[i], _ = c.Worker(i).AllReduceInt32(u)
			}()
		}
		wg.Wait()
		for j := 0; j < d; j++ {
			want := int32(2*(round*100+j) + 1)
			if outs[0][j] != want || outs[1][j] != want {
				t.Fatalf("round %d elem %d: got %d,%d want %d", round, j, outs[0][j], outs[1][j], want)
			}
		}
	}
}

func TestClusterFloatWithoutScaleFails(t *testing.T) {
	c, err := NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Worker(0).AllReduceFloat32([]float32{1}); err == nil {
		t.Error("float32 without scale succeeded")
	}
}

func TestClusterSaturationError(t *testing.T) {
	c, err := NewCluster(1, WithScale(1e9))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Worker(0).AllReduceFloat32([]float32{1e6}); err == nil {
		t.Error("saturating input did not error")
	}
}

func TestClusterFloat32NaNRefused(t *testing.T) {
	// One NaN element: once quantized as int32(NaN) (−2³¹ on amd64) and
	// summed with a nil error; now refused before anything is sent, on
	// the fixed-point and the float16 path, and the next call is exact.
	for _, opt := range []Option{WithScale(1 << 16), WithFloat16(1 << 16)} {
		c, err := NewCluster(1, opt)
		if err != nil {
			t.Fatal(err)
		}
		w := c.Worker(0)
		u := []float32{1, 2, float32(math.NaN()), 4, 5}
		if out, err := w.AllReduceFloat32(u); err == nil || !strings.Contains(err.Error(), "NaN") {
			t.Errorf("NaN tensor = %v, %v; want a refusal naming NaN", out, err)
		}
		u[2] = 3
		out, err := w.AllReduceFloat32(u)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != u[i] {
				t.Errorf("after the refusal: element %d = %v, want %v", i, v, u[i])
			}
		}
		c.Close()
	}
}

func TestClusterEmptyTensor(t *testing.T) {
	c, err := NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, err := c.Worker(0).AllReduceInt32(nil)
	if err != nil || out != nil {
		t.Errorf("empty all-reduce = %v, %v", out, err)
	}
}

func TestClusterOptionValidation(t *testing.T) {
	if _, err := NewCluster(0); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := NewCluster(1, WithPoolSize(0)); err == nil {
		t.Error("zero pool accepted")
	}
	if _, err := NewCluster(1, WithSlotElems(-1)); err == nil {
		t.Error("negative slot elems accepted")
	}
	if _, err := NewCluster(1, WithScale(-2)); err == nil {
		t.Error("negative scale accepted")
	}
	if _, err := MaxSafeScale(0, 1); err == nil {
		t.Error("MaxSafeScale(0) accepted")
	}
}

func TestClusterCloseUnblocksWorkers(t *testing.T) {
	// A 2-worker cluster with only one participant: closing the
	// cluster must unblock the stuck all-reduce with an error.
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Worker(0).AllReduceInt32([]int32{1, 2, 3})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("stuck all-reduce returned nil after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("all-reduce did not unblock after Close")
	}
}

func TestClusterWorkerID(t *testing.T) {
	c, err := NewCluster(3, WithJobID(7))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Workers() != 3 {
		t.Errorf("Workers = %d", c.Workers())
	}
	for i := 0; i < 3; i++ {
		if c.Worker(i).ID() != i {
			t.Errorf("Worker(%d).ID() = %d", i, c.Worker(i).ID())
		}
	}
}

func TestSimulateRack(t *testing.T) {
	tensor := make([]int32, 100000)
	for i := range tensor {
		tensor[i] = 3
	}
	res, err := SimulateRack(SimParams{Workers: 8, Seed: 1}, tensor)
	if err != nil {
		t.Fatal(err)
	}
	if res.TAT <= 0 {
		t.Error("TAT not positive")
	}
	if res.PoolSize == 0 {
		t.Error("pool size not reported")
	}
	for i, v := range res.Aggregate {
		if v != 24 {
			t.Fatalf("aggregate[%d] = %d, want 24", i, v)
		}
	}
	// Same seed, same result.
	res2, err := SimulateRack(SimParams{Workers: 8, Seed: 1}, tensor)
	if err != nil {
		t.Fatal(err)
	}
	if res.TAT != res2.TAT {
		t.Errorf("nondeterministic TAT: %v vs %v", res.TAT, res2.TAT)
	}
	// Lossy run still exact.
	res3, err := SimulateRack(SimParams{Workers: 4, Seed: 2, LossRate: 0.01, RTO: 100 * time.Microsecond}, tensor[:20000])
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res3.Aggregate {
		if v != 12 {
			t.Fatalf("lossy aggregate[%d] = %d, want 12", i, v)
		}
	}
	if res3.Retransmissions == 0 {
		t.Error("lossy run had no retransmissions")
	}
	if _, err := SimulateRack(SimParams{Workers: 0}, tensor); err == nil {
		t.Error("zero workers accepted")
	}
}

func TestClusterFloat16Mode(t *testing.T) {
	const n = 3
	c, err := NewCluster(n, WithFloat16(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const d = 501 // odd length exercises padding
	updates := make([][]float32, n)
	exact := make([]float64, d)
	rng := rand.New(rand.NewSource(9))
	for i := range updates {
		updates[i] = make([]float32, d)
		for j := range updates[i] {
			updates[i][j] = float32(rng.Intn(32)) * 0.5
			exact[j] += float64(updates[i][j])
		}
	}
	var wg sync.WaitGroup
	outs := make([][]float32, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = c.Worker(i).AllReduceFloat32(updates[i])
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if len(outs[i]) != d {
			t.Fatalf("worker %d: length %d, want %d", i, len(outs[i]), d)
		}
		for j := range exact {
			tol := math.Abs(exact[j])/1024 + float64(n)/(1<<16) + 1e-3
			if diff := math.Abs(float64(outs[i][j]) - exact[j]); diff > tol {
				t.Fatalf("worker %d elem %d: got %v want %v", i, j, outs[i][j], exact[j])
			}
		}
	}
}

func TestClusterFloat16ExclusiveWithScale(t *testing.T) {
	if _, err := NewCluster(2, WithScale(100), WithFloat16(100)); err == nil {
		t.Error("WithScale + WithFloat16 accepted")
	}
	if _, err := NewCluster(2, WithFloat16(-1)); err == nil {
		t.Error("negative float16 scale accepted")
	}
}
