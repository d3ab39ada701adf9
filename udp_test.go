package switchml

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestUDPDeployment(t *testing.T) {
	const n = 3
	agg, err := ListenAggregator("127.0.0.1:0", AggregatorParams{Workers: n, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	const d = 3000
	// Gradient entries reach ~752; Theorem 2 gives the largest safe
	// scale for n=3 (a naive 1e6 overflows the aggregate and wraps).
	scale, err := MaxSafeScale(n, 800)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	outs := make([][]float32, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			peer, err := DialAggregator(agg.Addr(), PeerParams{
				ID: i, Workers: n, Scale: scale,
				RTO: 20 * time.Millisecond, Timeout: 10 * time.Second,
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer peer.Close()
			u := make([]float32, d)
			for j := range u {
				u[j] = float32(i) + float32(j)*0.25
			}
			outs[i], errs[i] = peer.AllReduceFloat32(u)
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("peer %d: %v", i, errs[i])
		}
		for j := 0; j < d; j++ {
			want := float64(0+1+2) + 3*float64(j)*0.25
			if diff := math.Abs(float64(outs[i][j]) - want); diff > 3e-5 {
				t.Fatalf("peer %d elem %d: got %v want %v", i, j, outs[i][j], want)
			}
		}
	}
}

func TestUDPPeerValidation(t *testing.T) {
	if _, err := ListenAggregator("127.0.0.1:0", AggregatorParams{Workers: 0}); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := DialAggregator("127.0.0.1:1", PeerParams{ID: 0, Workers: 1, Scale: -1}); err == nil {
		t.Error("negative scale accepted")
	}
	// The dial asks the aggregator for the job's shape: a closed port
	// fails it, and so does a job of another size.
	if _, err := DialAggregator("127.0.0.1:1", PeerParams{ID: 0, Workers: 1}); err == nil {
		t.Error("dial to a closed port accepted")
	}
	agg, err := ListenAggregator("127.0.0.1:0", AggregatorParams{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	if _, err := DialAggregator(agg.Addr(), PeerParams{ID: 0, Workers: 2}); !errors.Is(err, ErrShape) {
		t.Errorf("a 2-worker dial to a 1-worker job returned %v, want ErrShape", err)
	}
	peer, err := DialAggregator(agg.Addr(), PeerParams{ID: 0, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if _, err := peer.AllReduceFloat32([]float32{1}); err == nil {
		t.Error("float32 without scale accepted")
	}
}

// TestUDPFloatScratchReuse drives the float32 path the way a training
// loop does — tensor after tensor of changing size through the same
// peers — since its quantized inputs now live in per-peer scratch and
// its sums are read out of the worker's own buffer: every step must
// still return the exact fixed-point sum, and a saturating input or a
// NaN must fail before a single update reaches the aggregator, leaving
// the next step unharmed.
func TestUDPFloatScratchReuse(t *testing.T) {
	const n = 2
	agg, err := ListenAggregator("127.0.0.1:0", AggregatorParams{Workers: n})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	peers := make([]*Peer, n)
	for i := range peers {
		if peers[i], err = DialAggregator(agg.Addr(), PeerParams{ID: i, Workers: n, Scale: 1 << 16, Timeout: 10 * time.Second}); err != nil {
			t.Fatal(err)
		}
		defer peers[i].Close()
	}
	step := func(d int, bias float32) {
		t.Helper()
		outs := make([][]float32, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := range peers {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				u := make([]float32, d)
				for j := range u {
					u[j] = bias + float32(i) - float32(j%97)*0.5
				}
				outs[i], errs[i] = peers[i].AllReduceFloat32(u)
			}()
		}
		wg.Wait()
		for i := range peers {
			if errs[i] != nil {
				t.Fatalf("d=%d peer %d: %v", d, i, errs[i])
			}
			if len(outs[i]) != d {
				t.Fatalf("d=%d peer %d: %d elements back", d, i, len(outs[i]))
			}
			for j, got := range outs[i] {
				want := float64(n)*float64(bias) + 1 - float64(n)*float64(j%97)*0.5
				if math.Abs(float64(got)-want) > 1e-3 {
					t.Fatalf("d=%d peer %d elem %d: got %v want %v", d, i, j, got, want)
				}
			}
		}
	}
	for i, d := range []int{3000, 100, 5000, 3000, 64} {
		step(d, float32(i))
	}
	before := agg.Stats().Updates
	if _, err := peers[0].AllReduceFloat32([]float32{1, 1e9, 2}); err == nil {
		t.Fatal("saturating input accepted")
	}
	if got := agg.Stats().Updates; got != before {
		t.Fatalf("saturating call sent %d updates before failing", got-before)
	}
	if _, err := peers[0].AllReduceFloat32([]float32{1, float32(math.NaN()), 2}); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("NaN input: err %v, want a refusal naming NaN", err)
	}
	if got := agg.Stats().Updates; got != before {
		t.Fatalf("NaN call sent %d updates before failing", got-before)
	}
	step(4096, 7)
}

// TestUDPTunedPoolAgrees: an aggregator that leaves PoolSize and
// SlotElems zero selects the tuned shape (TuneShape) from Workers alone,
// and its workers take it from the aggregator when they dial; a tensor
// of more than two windows, whose chunks reach the last slot, sums
// exactly. An explicit PoolSize or SlotElems is taken as given, the
// other is tuned to it, and the workers are told both.
func TestUDPTunedPoolAgrees(t *testing.T) {
	for _, tc := range []struct{ n, pool, k, wantPool, wantK int }{
		{2, 0, 0, 64, 312}, {3, 0, 0, 64, 200}, {8, 0, 0, 64, 72}, {2, 24, 0, 24, 312}, {2, 0, 32, 512, 32},
	} {
		n, want, k := tc.n, tc.wantPool, tc.wantK
		agg, err := ListenAggregator("127.0.0.1:0", AggregatorParams{Workers: n, PoolSize: tc.pool, SlotElems: tc.k})
		if err != nil {
			t.Fatal(err)
		}
		if got := agg.inner.DebugState(false).Pool.PoolSize; got != want || agg.PoolSize() != want || agg.SlotElems() != k {
			t.Errorf("%d workers, PoolSize %d, SlotElems %d: the aggregator's pool has %d slots of %d elements, want %d of %d", n, tc.pool, tc.k, got, agg.SlotElems(), want, k)
		}
		d := 2*want*k + 5
		outs := make([][]int32, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				peer, err := DialAggregator(agg.Addr(), PeerParams{ID: i, Workers: n, Timeout: 20 * time.Second})
				if err != nil {
					errs[i] = err
					return
				}
				defer peer.Close()
				if got := peer.inner.DebugState().PoolSize; got != want || peer.PoolSize() != want || peer.SlotElems() != k {
					t.Errorf("%d workers, PoolSize %d, SlotElems %d: worker %d keeps %d slots of %d elements in flight, want %d of %d", n, tc.pool, tc.k, i, got, peer.SlotElems(), want, k)
				}
				u := make([]int32, d)
				for j := range u {
					u[j] = int32(i*d + j)
				}
				outs[i], errs[i] = peer.AllReduceInt32(u)
			}()
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				t.Fatalf("%d workers: peer %d: %v", n, i, errs[i])
			}
			for j := 0; j < d; j++ {
				if want := int32(n*(n-1)/2*d + n*j); outs[i][j] != want {
					t.Fatalf("%d workers: peer %d elem %d: got %d want %d", n, i, j, outs[i][j], want)
				}
			}
		}
		if ds := agg.inner.DebugState(false); ds.BeyondPool != 0 || ds.RcvbufDrops != 0 {
			t.Errorf("%d workers: %d updates beyond the pool, %d receive-buffer drops; want 0 and 0", n, ds.BeyondPool, ds.RcvbufDrops)
		}
		agg.Close()
	}
}

// retryCluster is a 2-worker job at the tuned shape whose calls give up
// after timeout, and each worker's 64K-element input.
func retryCluster(t *testing.T, timeout time.Duration) (*Aggregator, []*Peer, [][]int32) {
	t.Helper()
	const n, d = 2, 64 << 10
	agg, err := ListenAggregator("127.0.0.1:0", AggregatorParams{Workers: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { agg.Close() })
	peers := make([]*Peer, n)
	us := make([][]int32, n)
	for i := range peers {
		p, err := DialAggregator(agg.Addr(), PeerParams{ID: i, Workers: n, Scale: 1, RTO: 20 * time.Millisecond, Timeout: timeout})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		peers[i] = p
		us[i] = make([]int32, d)
		for j := range us[i] {
			us[i][j] = int32(i*d + j)
		}
	}
	return agg, peers, us
}

// allReduceExact runs one call on every peer at once, peer i with
// us[i], and checks every element of every sum.
func allReduceExact(t *testing.T, peers []*Peer, us [][]int32) {
	t.Helper()
	outs := make([][]int32, len(peers))
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i := range peers {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = peers[i].AllReduceInt32(us[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		for j := range outs[i] {
			var want int32
			for _, u := range us {
				want += u[j]
			}
			if outs[i][j] != want {
				t.Fatalf("peer %d elem %d: got %d want %d", i, j, outs[i][j], want)
			}
		}
	}
}

// TestFaultUDPRetryContinuesTensor: ErrSwitchUnavailable is retryable
// on the same Peer. The aggregation program dies under a call, after
// one worker's first window has reached it and before the other's
// does; both calls fail with ErrSwitchUnavailable and leave their
// tensors open. A call with another slice is refused with
// ErrTensorOpen, and once the program is back the retries, given the
// same slices, continue the tensors: the aggregator drops the
// contributions it already holds and the sums are exact. The next step
// runs as usual.
func TestFaultUDPRetryContinuesTensor(t *testing.T) {
	agg, peers, us := retryCluster(t, 500*time.Millisecond)
	errs := make(chan error, len(peers))
	go func() {
		_, err := peers[0].AllReduceInt32(us[0])
		errs <- err
	}()
	window := uint64(peers[0].PoolSize())
	for deadline := time.Now().Add(5 * time.Second); agg.Stats().Updates < window; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of worker 0's %d-packet window reached the aggregator", agg.Stats().Updates, window)
		}
	}
	agg.SetDown(true)
	go func() {
		_, err := peers[1].AllReduceInt32(us[1])
		errs <- err
	}()
	for range peers {
		if err := <-errs; !errors.Is(err, ErrSwitchUnavailable) {
			t.Fatalf("a call under a dead aggregator returned %v, want ErrSwitchUnavailable", err)
		}
	}
	other := make([]int32, len(us[0]))
	if _, err := peers[0].AllReduceInt32(other); !errors.Is(err, ErrTensorOpen) {
		t.Fatalf("a different slice while the failed tensor is open returned %v, want ErrTensorOpen", err)
	}
	agg.SetDown(false)
	// Each of worker 0's re-sent updates finds its contribution held:
	// ignored in a slot still waiting for worker 1, or answered from the
	// slot's retained result once worker 1's has completed it.
	held := func() uint64 { st := agg.Stats(); return st.IgnoredDuplicates + st.ResultRetransmissions }
	before := held()
	allReduceExact(t, peers, us)
	if got := held() - before; got < window {
		t.Errorf("the retry re-sent %d updates the aggregator already held, want worker 0's window of %d at least", got, window)
	}
	for i := range us {
		us[i] = append([]int32(nil), us[i]...)
		for j := range us[i] {
			us[i][j] += 7
		}
	}
	allReduceExact(t, peers, us)
}

// TestFaultUDPRetryAfterTimeout: a call that times out because another
// worker never called leaves its tensor open. Calling again with the
// same slice continues it (and times out again while the other worker
// is away); another slice is refused with ErrTensorOpen; once the
// other worker calls, the retry completes with the exact sum. The
// float32 path keeps the same contract over its quantized copy: a
// refused input must not overwrite the open tensor's.
func TestFaultUDPRetryAfterTimeout(t *testing.T) {
	_, peers, us := retryCluster(t, 200*time.Millisecond)
	for try := 0; try < 2; try++ {
		if _, err := peers[0].AllReduceInt32(us[0]); err == nil {
			t.Fatalf("try %d: a call finished without the other worker", try)
		}
	}
	if _, err := peers[0].AllReduceInt32(us[1]); !errors.Is(err, ErrTensorOpen) {
		t.Fatalf("a different slice while the timed-out tensor is open returned %v, want ErrTensorOpen", err)
	}
	allReduceExact(t, peers, us)

	fs := make([][]float32, len(peers))
	for i := range fs {
		fs[i] = make([]float32, 1000)
		for j := range fs[i] {
			fs[i][j] = float32(i*1000 + j)
		}
	}
	if _, err := peers[0].AllReduceFloat32(fs[0]); err == nil {
		t.Fatal("a float32 call finished without the other worker")
	}
	if _, err := peers[0].AllReduceFloat32(fs[1]); !errors.Is(err, ErrTensorOpen) {
		t.Fatalf("a different float32 slice while the timed-out tensor is open returned %v, want ErrTensorOpen", err)
	}
	outs := make([][]float32, len(peers))
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i := range peers {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = peers[i].AllReduceFloat32(fs[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("float32 retry, peer %d: %v", i, err)
		}
		for j, v := range outs[i] {
			if want := fs[0][j] + fs[1][j]; v != want {
				t.Fatalf("float32 retry, peer %d elem %d: got %v want %v", i, j, v, want)
			}
		}
	}
}
