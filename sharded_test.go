package switchml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
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
				ID: i, Workers: n, Shards: shards,
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
				ID: i, Workers: n, Shards: shards, JobBase: 10, Scale: 1e5,
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
			// A NaN is refused before anything is sent: the next call
			// runs as if it had not been made.
			u[5] = float32(math.NaN())
			if _, err := sp.AllReduceFloat32(u); err == nil || !strings.Contains(err.Error(), "NaN") {
				errs[i] = fmt.Errorf("NaN tensor: err %v, want a refusal naming NaN", err)
				return
			}
			u[5] = float32(i) + 0.5
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
	if err := m.AdmitShardedJob(0, 2, AggregatorParams{Workers: 1}); err != nil {
		t.Fatal(err)
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

// TestDialShardedUnadmittedJob dials a job the aggregator never
// admitted: the hello is answered without a shape, so the dial fails
// with ErrShape at once instead of waiting out its timeout.
func TestDialShardedUnadmittedJob(t *testing.T) {
	m, err := ListenMultiAggregator("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	start := time.Now()
	sp, err := DialSharded(m.Addr(), ShardedPeerParams{ID: 0, Workers: 1, Shards: 2, Timeout: 5 * time.Second})
	if err == nil {
		sp.Close()
	}
	if !errors.Is(err, ErrShape) {
		t.Fatalf("dial to an empty aggregator returned %v, want ErrShape", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("the refused dial took %v", took)
	}
}

// TestMultiAggregatorTunedPoolAgrees: jobs admitted with PoolSize and
// SlotElems left zero serve both kinds of worker — a Peer dialed with
// the job's id, which is told the tuned shape, and a ShardedPeer, each
// of whose shards is told its share of the tuned window — and each
// reaches its last slot in a tensor of more than two windows, with
// exact sums and nothing rejected.
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
		k := transport.TuneShape(n)
		tuned := transport.TunePoolSize(n, k)
		for id, want := range map[uint16]int{job: tuned, shardBase: tuned / shards, shardBase + shards - 1: tuned / shards} {
			if got, gotK := m.PoolSize(id), m.SlotElems(id); got != want || gotK != k {
				t.Fatalf("%d workers: job %d admitted with %d slots of %d elements, want %d of %d", n, id, got, gotK, want, k)
			}
		}
		d := shards * (2*k*tuned + 5)
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
				if got, want := peer.PoolSize(), tuned; got != want {
					errs[i] = fmt.Errorf("a peer keeps %d slots in flight, want the tuned %d", got, want)
					return
				}
				if got, want := sp.peers[0].DebugState().PoolSize, tuned/shards; got != want {
					errs[i] = fmt.Errorf("a shard keeps %d slots in flight, want the tuned %d shared by %d shards", got, tuned, shards)
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

// TestShardedPeerWindows pins the windows a ShardedPeer keeps in flight
// against a sharded job admitted with a zero PoolSize: for 2 workers of
// 4 shards, each shard takes the 16 slots its job was admitted with from
// the aggregator, and the 4 shards together keep the 64 of one tuned
// window — what DialSharded divided among its shards itself when each
// end computed the shape.
func TestShardedPeerWindows(t *testing.T) {
	const n, shards, base = 2, 4, 40
	m, err := ListenMultiAggregator("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.AdmitShardedJob(base, shards, AggregatorParams{Workers: n}); err != nil {
		t.Fatal(err)
	}
	sp, err := DialSharded(m.Addr(), ShardedPeerParams{ID: 0, Workers: n, Shards: shards, JobBase: base})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	sum := 0
	for s, c := range sp.peers {
		cfg := c.WorkerConfig()
		if cfg.PoolSize != 16 || cfg.SlotElems != transport.TuneShape(n) || m.PoolSize(base+uint16(s)) != 16 {
			t.Errorf("shard %d keeps %d slots of %d elements against a pool of %d, want 16 of %d against 16", s, cfg.PoolSize, cfg.SlotElems, m.PoolSize(base+uint16(s)), transport.TuneShape(n))
		}
		sum += cfg.PoolSize
	}
	if sum != 64 {
		t.Errorf("the shards keep %d slots in flight between them, want one tuned window of 64", sum)
	}
}

// TestFaultShardedRetryOneWorkerLate: a ShardedPeer call in which one
// shard finishes and another times out, worker 1 having called only
// the first shard. The retry with the same slice calls only the
// unfinished shard and keeps the finished one's sum; calling that
// shard again would open a tensor worker 1 never joins, and a later
// step would pair it with worker 1's next data. Another slice is
// refused with ErrTensorOpen while the call is open, on both paths;
// every sum, the retry's and the next step's, is exact.
func TestFaultShardedRetryOneWorkerLate(t *testing.T) {
	const n, shards, d, base = 2, 2, 3000, 30
	m, err := ListenMultiAggregator("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.AdmitShardedJob(base, shards, AggregatorParams{Workers: n}); err != nil {
		t.Fatal(err)
	}
	sps := make([]*ShardedPeer, n)
	step := func(s int) [][]int32 {
		us := make([][]int32, n)
		for i := range us {
			us[i] = make([]int32, d)
			for j := range us[i] {
				us[i][j] = int32(s*1_000_000 + i*d + j)
			}
		}
		return us
	}
	for i := range sps {
		sp, err := DialSharded(m.Addr(), ShardedPeerParams{ID: i, Workers: n, Shards: shards, JobBase: base, Scale: 1, RTO: 20 * time.Millisecond, Timeout: 300 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer sp.Close()
		sps[i] = sp
	}
	exact := func(what string, out []int32, us [][]int32, lo, hi int) {
		t.Helper()
		for j := lo; j < hi; j++ {
			if want := us[0][j] + us[1][j]; out[j-lo] != want {
				t.Fatalf("%s: elem %d: got %d want %d", what, j, out[j-lo], want)
			}
		}
	}
	// shardCall starts worker 1's call of one shard's region alone; the
	// returned wait checks its sum.
	shardCall := func(us [][]int32, s int) (wait func()) {
		lo, hi := s*d/shards, (s+1)*d/shards
		var out []int32
		var err error
		ch := make(chan struct{})
		go func() {
			defer close(ch)
			out, err = sps[1].peers[s].AllReduceInt32(us[1][lo:hi])
		}()
		return func() {
			<-ch
			if err != nil {
				t.Fatalf("worker 1, shard %d: %v", s, err)
			}
			exact(fmt.Sprintf("worker 1, shard %d", s), out, us, lo, hi)
		}
	}

	us := step(0)
	wait0 := shardCall(us, 0)
	if _, err := sps[0].AllReduceInt32(us[0]); err == nil {
		t.Fatal("a call finished without worker 1's second shard")
	}
	wait0()
	if _, err := sps[0].AllReduceInt32(step(9)[0]); !errors.Is(err, ErrTensorOpen) {
		t.Fatalf("a different slice while the failed call is open returned %v, want ErrTensorOpen", err)
	}
	wait1 := shardCall(us, 1)
	out, err := sps[0].AllReduceInt32(us[0])
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	wait1()
	exact("worker 0's retry", out, us, 0, d)

	// The next step finds every shard at the same tensor on both workers.
	us = step(1)
	outs := make([][]int32, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range sps {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = sps[i].AllReduceInt32(us[i])
		}()
	}
	wg.Wait()
	for i := range sps {
		if errs[i] != nil {
			t.Fatalf("next step, worker %d: %v", i, errs[i])
		}
		exact(fmt.Sprintf("next step, worker %d", i), outs[i], us, 0, d)
	}

	// The float32 path: a call worker 1 misses leaves every shard open;
	// another input is refused without overwriting the open one's
	// quantized copy, and the retry completes exactly.
	fs := make([][]float32, n)
	for i := range fs {
		fs[i] = make([]float32, d)
		for j := range fs[i] {
			fs[i][j] = float32(i*d + j)
		}
	}
	if _, err := sps[0].AllReduceFloat32(fs[0]); err == nil {
		t.Fatal("a float32 call finished without worker 1")
	}
	if _, err := sps[0].AllReduceFloat32(fs[1]); !errors.Is(err, ErrTensorOpen) {
		t.Fatalf("a different float32 slice while the failed call is open returned %v, want ErrTensorOpen", err)
	}
	fouts := make([][]float32, n)
	for i := range sps {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			fouts[i], errs[i] = sps[i].AllReduceFloat32(fs[i])
		}()
	}
	wg.Wait()
	for i := range sps {
		if errs[i] != nil {
			t.Fatalf("float32 retry, worker %d: %v", i, errs[i])
		}
		for j, v := range fouts[i] {
			if want := fs[0][j] + fs[1][j]; v != want {
				t.Fatalf("float32 retry, worker %d elem %d: got %v want %v", i, j, v, want)
			}
		}
	}
}
