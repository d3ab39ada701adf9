package switchml

import (
	"math"
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
				ID: i, Workers: n, PoolSize: 8, Scale: scale,
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
	peer, err := DialAggregator("127.0.0.1:1", PeerParams{ID: 0, Workers: 1})
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
// still return the exact fixed-point sum, and a saturating input must
// fail before a single update reaches the aggregator, leaving the next
// step unharmed.
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
	step(4096, 7)
}

// TestUDPTunedPoolAgrees: an aggregator and its workers that all leave
// PoolSize zero select the same pool from Workers alone — no handshake
// carries it — and it is the tuned one; a tensor of more than two
// windows, whose chunks reach the last slot, sums exactly. An explicit
// PoolSize is taken as given on both ends.
func TestUDPTunedPoolAgrees(t *testing.T) {
	for _, tc := range []struct{ n, explicit, want int }{
		{2, 0, 512}, {3, 0, 256}, {8, 0, 128}, {2, 24, 24},
	} {
		n, want := tc.n, tc.want
		agg, err := ListenAggregator("127.0.0.1:0", AggregatorParams{Workers: n, PoolSize: tc.explicit})
		if err != nil {
			t.Fatal(err)
		}
		if got := agg.inner.DebugState(false).Pool.PoolSize; got != want || agg.PoolSize() != want {
			t.Errorf("%d workers, PoolSize %d: the aggregator's pool has %d slots, want %d", n, tc.explicit, got, want)
		}
		d := 2*want*32 + 5
		outs := make([][]int32, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				peer, err := DialAggregator(agg.Addr(), PeerParams{ID: i, Workers: n, PoolSize: tc.explicit, Timeout: 20 * time.Second})
				if err != nil {
					errs[i] = err
					return
				}
				defer peer.Close()
				if got := peer.inner.DebugState().PoolSize; got != want || peer.PoolSize() != want {
					t.Errorf("%d workers, PoolSize %d: worker %d keeps %d slots in flight, want %d", n, tc.explicit, i, got, want)
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
