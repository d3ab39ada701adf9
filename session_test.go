package switchml

import (
	"sync"
	"testing"
	"time"
)

func TestSessionPipelinesTensors(t *testing.T) {
	// Each worker submits a back-prop-like sequence of tensors of
	// decreasing size; submissions overlap aggregations and results
	// come back per tensor, in order.
	const n = 3
	c, err := NewCluster(n, WithScale(1e6))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sizes := []int{4000, 2500, 1000, 300, 32, 7}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := NewSession(c.Worker(i), 4)
			if err != nil {
				errs[i] = err
				return
			}
			defer s.Close()
			// Submit everything up front (overlap), then wait in
			// order.
			futures := make([]*Future, len(sizes))
			for ti, d := range sizes {
				grad := make([]float32, d)
				for j := range grad {
					grad[j] = float32(ti + i)
				}
				futures[ti], err = s.SubmitFloat32(grad)
				if err != nil {
					errs[i] = err
					return
				}
			}
			for ti, f := range futures {
				out, err := f.Wait()
				if err != nil {
					errs[i] = err
					return
				}
				// Sum over workers of (ti + w) = n*ti + 0+1+2.
				want := float32(n*ti + 3)
				for j, v := range out {
					if v != want {
						errs[i] = errValue{ti, j, float64(v), float64(want)}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
}

func TestSessionStats(t *testing.T) {
	const n = 2
	c, err := NewCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	stats := make([]SessionStats, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := NewSession(c.Worker(i), 4)
			if err != nil {
				t.Error(err)
				return
			}
			var futures []*Future
			for ti := 0; ti < 3; ti++ {
				f, err := s.SubmitInt32([]int32{1, 2, 3})
				if err != nil {
					t.Error(err)
					return
				}
				futures = append(futures, f)
			}
			for _, f := range futures {
				if _, err := f.WaitInt32(); err != nil {
					t.Error(err)
					return
				}
			}
			s.Close()
			stats[i] = s.Stats()
		}()
	}
	wg.Wait()
	for i, st := range stats {
		if st.Submitted != 3 || st.Completed != 3 {
			t.Errorf("worker %d: submitted/completed = %d/%d, want 3/3", i, st.Submitted, st.Completed)
		}
		if st.Failed != 0 || st.Queued != 0 {
			t.Errorf("worker %d: failed=%d queued=%d, want 0/0", i, st.Failed, st.Queued)
		}
		if st.LastTensorNs <= 0 {
			t.Errorf("worker %d: LastTensorNs = %d, want > 0", i, st.LastTensorNs)
		}
	}
}

type errValue struct {
	tensor, elem int
	got, want    float64
}

func (e errValue) Error() string { return "tensor value mismatch" }

func TestSessionInt32(t *testing.T) {
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	outs := make([][]int32, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, _ := NewSession(c.Worker(i), 0)
			defer s.Close()
			f, _ := s.SubmitInt32([]int32{int32(i + 1), 10})
			outs[i], _ = f.WaitInt32()
		}()
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if outs[i][0] != 3 || outs[i][1] != 20 {
			t.Errorf("worker %d: %v, want [3 20]", i, outs[i])
		}
	}
}

func TestSessionOverUDP(t *testing.T) {
	const n = 2
	agg, err := ListenAggregator("127.0.0.1:0", AggregatorParams{Workers: n, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			peer, err := DialAggregator(agg.Addr(), PeerParams{
				ID: i, Workers: n, Scale: 1e5,
				RTO: 20 * time.Millisecond,
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer peer.Close()
			s, err := NewSession(peer, 2)
			if err != nil {
				errs[i] = err
				return
			}
			defer s.Close()
			var futures []*Future
			for ti := 0; ti < 4; ti++ {
				grad := make([]float32, 200+ti*50)
				for j := range grad {
					grad[j] = 0.5
				}
				f, err := s.SubmitFloat32(grad)
				if err != nil {
					errs[i] = err
					return
				}
				futures = append(futures, f)
			}
			for _, f := range futures {
				out, err := f.Wait()
				if err != nil {
					errs[i] = err
					return
				}
				for j, v := range out {
					if v != 1 {
						errs[i] = errValue{0, j, float64(v), 1}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
}

func TestSessionClose(t *testing.T) {
	c, err := NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := NewSession(c.Worker(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.SubmitInt32([]int32{5})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	out, err := f.WaitInt32()
	if err != nil || out[0] != 5 {
		t.Errorf("pre-close future = %v, %v", out, err)
	}
	if _, err := s.SubmitInt32([]int32{1}); err != ErrSessionClosed {
		t.Errorf("post-close submit err = %v, want ErrSessionClosed", err)
	}
	if _, err := NewSession(nil, 0); err == nil {
		t.Error("nil collective accepted")
	}
}
