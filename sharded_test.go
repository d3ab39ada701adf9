package switchml

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"switchml/internal/transport"
)

func TestShardedPeerAllReduce(t *testing.T) {
	const (
		n      = 3
		shards = 4
		d      = 10001 // non-divisible by shards
	)
	m, err := ListenMultiAggregator("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.AdmitShardedJob(0, shards, AggregatorParams{Workers: n, PoolSize: 8}); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	updates := make([][]int32, n)
	want := make([]int32, d)
	for i := range updates {
		updates[i] = make([]int32, d)
		for j := range updates[i] {
			updates[i][j] = int32(rng.Intn(201) - 100)
			want[j] += updates[i][j]
		}
	}

	var wg sync.WaitGroup
	results := make([][]int32, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp, err := DialSharded(m.Addr(), ShardedPeerParams{
				ID: i, Workers: n, Shards: shards, PoolSize: 8,
				RTO: 20 * time.Millisecond, Timeout: 10 * time.Second,
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer sp.Close()
			results[i], errs[i] = sp.AllReduceInt32(updates[i])
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

func TestShardedPeerFloat32(t *testing.T) {
	const n, shards = 2, 2
	m, err := ListenMultiAggregator("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.AdmitShardedJob(10, shards, AggregatorParams{Workers: n, PoolSize: 4}); err != nil {
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
			sp, err := DialSharded(m.Addr(), ShardedPeerParams{
				ID: i, Workers: n, Shards: shards, JobBase: 10, PoolSize: 4, Scale: 1e5,
				RTO: 20 * time.Millisecond,
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer sp.Close()
			u := make([]float32, 777)
			for j := range u {
				u[j] = float32(i) + 0.5
			}
			outs[i], errs[i] = sp.AllReduceFloat32(u)
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		for j, v := range outs[i] {
			if v != 2 { // (0+0.5) + (1+0.5)
				t.Fatalf("worker %d elem %d: got %v want 2", i, j, v)
			}
		}
	}
}

func TestShardedPeerValidation(t *testing.T) {
	m, err := ListenMultiAggregator("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.AdmitShardedJob(0, 0, AggregatorParams{Workers: 1}); err == nil {
		t.Error("zero shards admitted")
	}
	if _, err := DialSharded(m.Addr(), ShardedPeerParams{ID: 0, Workers: 1, Shards: -1}); err == nil {
		t.Error("negative shards accepted")
	}
	if _, err := DialSharded(m.Addr(), ShardedPeerParams{ID: 0, Workers: 1, Scale: -1}); err == nil {
		t.Error("bad scale accepted")
	}
	sp, err := DialSharded(m.Addr(), ShardedPeerParams{ID: 0, Workers: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if sp.Shards() != 2 {
		t.Errorf("Shards = %d", sp.Shards())
	}
	if _, err := sp.AllReduceFloat32([]float32{1}); err == nil {
		t.Error("float32 without scale accepted")
	}
	if out, err := sp.AllReduceInt32(nil); out != nil || err != nil {
		t.Errorf("empty = %v, %v", out, err)
	}
}

// TestMultiAggregatorTunedPoolAgrees: a job admitted with PoolSize left
// zero serves both kinds of worker that leave theirs zero — a Peer
// dialed with the job's id, which selects the tuned window and reaches
// its last slot in a tensor of more than two windows, and a ShardedPeer,
// whose 64 slots a shard use the front of the larger pool — with exact
// sums and nothing rejected.
func TestMultiAggregatorTunedPoolAgrees(t *testing.T) {
	for _, n := range []int{2, 3} {
		m, err := ListenMultiAggregator("127.0.0.1:0", 0)
		if err != nil {
			t.Fatal(err)
		}
		const job, shardBase, shards = 7, 20, 2
		if err := m.AdmitJob(job, AggregatorParams{Workers: n}); err != nil {
			t.Fatal(err)
		}
		if err := m.AdmitShardedJob(shardBase, shards, AggregatorParams{Workers: n}); err != nil {
			t.Fatal(err)
		}
		tuned := transport.TunePoolSize(n, 32)
		if got := m.PoolSize(job); got != tuned {
			t.Fatalf("%d workers: admitted with %d slots, want the tuned %d", n, got, tuned)
		}
		d := 2*32*tuned + 5
		outs := make([][2][]int32, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				u := make([]int32, d)
				for j := range u {
					u[j] = int32(i*d + j)
				}
				peer, err := DialAggregator(m.Addr(), PeerParams{ID: i, Workers: n, JobID: job, Timeout: 10 * time.Second})
				if err != nil {
					errs[i] = err
					return
				}
				defer peer.Close()
				sp, err := DialSharded(m.Addr(), ShardedPeerParams{ID: i, Workers: n, Shards: shards, JobBase: shardBase, Timeout: 10 * time.Second})
				if err != nil {
					errs[i] = err
					return
				}
				defer sp.Close()
				if outs[i][0], errs[i] = peer.AllReduceInt32(u); errs[i] != nil {
					return
				}
				outs[i][1], errs[i] = sp.AllReduceInt32(u)
			}()
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				t.Fatalf("%d workers: worker %d: %v", n, i, errs[i])
			}
			for k, out := range outs[i] {
				for j := 0; j < d; j++ {
					if want := int32(n*(n-1)/2*d + n*j); out[j] != want {
						t.Fatalf("%d workers: worker %d, collective %d, elem %d: got %d want %d", n, i, k, j, out[j], want)
					}
				}
			}
		}
		for _, id := range []uint16{job, shardBase, shardBase + shards - 1} {
			if st, ok := m.JobStats(id); !ok || st.Rejected != 0 || st.Completions == 0 {
				t.Errorf("%d workers: job %d: admitted %v, %d completions, %d updates rejected; want completions and nothing rejected", n, id, ok, st.Completions, st.Rejected)
			}
		}
		m.Close()
	}
}
