package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"switchml/internal/core"
	"switchml/internal/netio"
	"switchml/internal/packet"
)

func TestMultiAggregatorTwoJobs(t *testing.T) {
	for _, mode := range ioModes {
		t.Run(mode.mode.String(), func(t *testing.T) {
			if mode.env != "" {
				t.Setenv(mode.env, "1")
			}
			m, err := NewMultiAggregator("127.0.0.1:0", 0)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if got := m.agg.sncs[0].Mode(); got < mode.mode {
				t.Skipf("no %s mode here: the sockets selected %s", mode.mode, got)
			}
			multiTwoJobs(t, m)
		})
	}
}

// multiTwoJobs runs two 2-worker jobs through m at once.
func multiTwoJobs(t *testing.T, m *MultiAggregator) {
	for _, job := range []uint16{1, 2} {
		if err := m.AdmitJob(core.SwitchConfig{
			Workers: 2, PoolSize: 4, SlotElems: 8, LossRecovery: true, JobID: job,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(m.Jobs()); got != 2 {
		t.Fatalf("Jobs = %d, want 2", got)
	}

	// Both jobs aggregate concurrently through the same socket; job 1
	// sums ones, job 2 sums twos — results must never mix.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for _, job := range []uint16{1, 2} {
		for id := 0; id < 2; id++ {
			job, id := job, id
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := NewClient(ClientConfig{
					Aggregator: m.Addr().String(),
					Worker: core.WorkerConfig{
						ID: uint16(id), Workers: 2, PoolSize: 4, SlotElems: 8,
						LossRecovery: true, JobID: job,
					},
					RTO: 20 * time.Millisecond,
				})
				if err != nil {
					errs <- err
					return
				}
				defer c.Close()
				u := make([]int32, 500)
				for j := range u {
					u[j] = int32(job)
				}
				out, err := c.AllReduceInt32(u)
				if err != nil {
					errs <- err
					return
				}
				for j, v := range out {
					if v != 2*int32(job) {
						errs <- errIter{int32(job), int32(j), v, 2 * int32(job)}
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMultiAggregatorAdmission(t *testing.T) {
	// A small budget admits one job but not two (the §6 admission
	// mechanism).
	cfg := core.SwitchConfig{Workers: 8, PoolSize: 128, SlotElems: 32, LossRecovery: true}
	one, err := core.NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	budget := one.MemoryBytes() + one.MemoryBytes()/2

	m, err := NewMultiAggregator("127.0.0.1:0", budget)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cfg.JobID = 1
	if err := m.AdmitJob(cfg); err != nil {
		t.Fatalf("first job rejected: %v", err)
	}
	cfg.JobID = 2
	if err := m.AdmitJob(cfg); err == nil {
		t.Fatal("second job admitted beyond the memory budget")
	}
	if err := m.ReleaseJob(1); err != nil {
		t.Fatal(err)
	}
	if err := m.AdmitJob(cfg); err != nil {
		t.Fatalf("job rejected after release: %v", err)
	}
	if m.MemoryBytes() != one.MemoryBytes() {
		t.Errorf("MemoryBytes = %d, want %d", m.MemoryBytes(), one.MemoryBytes())
	}
	if err := m.ReleaseJob(99); err == nil {
		t.Error("releasing unknown job succeeded")
	}
}

func TestMultiAggregatorDuplicateJob(t *testing.T) {
	m, err := NewMultiAggregator("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cfg := core.SwitchConfig{Workers: 1, PoolSize: 1, SlotElems: 1, LossRecovery: true, JobID: 5}
	if err := m.AdmitJob(cfg); err != nil {
		t.Fatal(err)
	}
	if err := m.AdmitJob(cfg); err == nil {
		t.Error("duplicate job admitted")
	}
	if err := m.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// TestFaultMultiAggregatorWindowFits: every shard socket of a
// MultiAggregator is sized for every admitted job's window, so a job
// running at the tuned pool size beside another loses nothing to a full
// receive buffer — the kernel's flow hash may steer all four workers to
// one shard, and a stock buffer holds about a sixth of one tuned window.
// Lossless 256K-element tensors must need no lap and no timer
// retransmission, no update may be rejected, and the shard loops must
// drain the sockets in bursts — fewer receive wakeups than datagrams —
// wherever netio batches.
func TestFaultMultiAggregatorWindowFits(t *testing.T) {
	for _, mode := range ioModes {
		t.Run(mode.mode.String(), func(t *testing.T) {
			if mode.env != "" {
				t.Setenv(mode.env, "1")
			}
			multiWindowFits(t, mode.mode)
		})
	}
}

func multiWindowFits(t *testing.T, mode netio.Mode) {
	const n, k, elems = 2, 32, 256 << 10
	s := TunePoolSize(n, k)
	m, err := NewMultiAggregator("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.agg.sncs[0].Mode(); got < mode {
		t.Skipf("no %s mode here: the sockets selected %s", mode, got)
	}
	jobs := []uint16{1, 2}
	for _, job := range jobs {
		if err := m.AdmitJob(core.SwitchConfig{Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true, JobID: job}); err != nil {
			t.Fatal(err)
		}
	}
	need := len(jobs) * windowBytes(n*s, k)
	for _, conn := range m.agg.conns {
		if rcv, _ := netio.SizeBuffers(conn, 0, 0); rcv == 0 {
			t.Skip("this platform does not report socket buffer sizes")
		} else if rcv < need {
			if could, _ := netio.SizeBuffers(conn, need, need); could >= need {
				t.Fatalf("a shard socket was left a %d-byte receive buffer for admitted windows of %d, which this host grants", rcv, need)
			}
			t.Skipf("the kernel granted a %d-byte receive buffer, under the %d the admitted windows need (rmem_max)", rcv, need)
		}
	}
	const steps = 2
	var wg sync.WaitGroup
	for _, job := range jobs {
		for w := 0; w < n; w++ {
			job, w := job, w
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := NewClient(ClientConfig{
					Aggregator: m.Addr().String(),
					Worker:     core.WorkerConfig{ID: uint16(w), Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true, JobID: job},
					RTO:        time.Second,
					Timeout:    60 * time.Second,
				})
				if err != nil {
					t.Error(err)
					return
				}
				defer c.Close()
				u := make([]int32, elems)
				for j := range u {
					u[j] = int32(job)*100 + int32(w) + int32(j%7)
				}
				for step := 0; step < steps; step++ {
					out, err := c.AllReduceInt32(u)
					if err != nil {
						t.Errorf("job %d worker %d: %v", job, w, err)
						return
					}
					for j, v := range out {
						if want := n*(int32(job)*100+int32(j%7)) + n*(n-1)/2; v != want {
							t.Errorf("job %d worker %d elem %d: got %d want %d", job, w, j, v, want)
							return
						}
					}
				}
				st := c.Stats()
				if timer := st.Retransmissions - st.EarlyRetransmissions - st.ProbeRetransmissions; st.EarlyRetransmissions != 0 || timer != 0 || st.ProbeRetransmissions > steps {
					t.Errorf("job %d worker %d: %d lap, %d timer and %d probe retransmissions over %d lossless tensors; want none but a probe a tensor",
						job, w, st.EarlyRetransmissions, timer, st.ProbeRetransmissions, steps)
				}
			}()
		}
	}
	wg.Wait()
	for _, job := range jobs {
		if st, _ := m.JobStats(job); st.Rejected != 0 {
			t.Errorf("job %d: %d updates rejected", job, st.Rejected)
		}
	}
	wakeups, recvd := m.agg.occupancySnapshot().Count, m.agg.recvd.Value()
	t.Logf("%s: %d datagrams in %d receive wakeups", mode, recvd, wakeups)
	if mode != netio.ModePortable && wakeups >= recvd {
		t.Errorf("%d receive wakeups for %d datagrams: the shard loops did not batch", wakeups, recvd)
	}
}

// multiCluster dials n workers of one admitted job of m.
func multiCluster(t *testing.T, m *MultiAggregator, job uint16, n, s, k int) []*Client {
	t.Helper()
	clients := make([]*Client, n)
	for i := range clients {
		c, err := NewClient(ClientConfig{
			Aggregator: m.Addr().String(),
			Worker:     core.WorkerConfig{ID: uint16(i), Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true, JobID: job},
			RTO:        100 * time.Millisecond,
			Timeout:    20 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	return clients
}

// TestMultiJobIsolation: one aggregator's shard loops serve every job,
// so what keeps the jobs apart is the routing by JobID — each job's
// multicast block goes to its own workers, the job table swaps under
// running traffic, a datagram for no admitted job is dropped, a job's
// generation is its id, and the shard views carry the largest packets
// admission lets in.
func TestMultiJobIsolation(t *testing.T) {
	const n, s, k = 2, 64, 8
	t.Run("a block reaches one job's workers", func(t *testing.T) {
		// One shard, so the observer's updates share bursts with job 1's:
		// job 2 has that one worker, and each of its updates completes a
		// slot whose result joins a block beside job 1's results.
		m, err := newMultiAggregator(AggregatorConfig{Addr: "127.0.0.1:0", Shards: 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		for _, c := range []core.SwitchConfig{
			{Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true, JobID: 1},
			{Workers: 1, PoolSize: s, SlotElems: k, LossRecovery: true, JobID: 2},
		} {
			if err := m.AdmitJob(c); err != nil {
				t.Fatal(err)
			}
		}
		clients := multiCluster(t, m, 1, n, s, k)
		lockstep(t, clients, 64<<10, 1)
		// The observer sends one window of job-2 updates, spread over a few
		// of job 1's bursts, then only listens while job 1 runs on. A block
		// shared across jobs shows both ways: job-1 results reach it, and
		// its own reach job 1's workers instead.
		obs := dialRaw(t, m.agg, 0)
		got := make(map[uint16]int)
		done := make(chan struct{})
		listened := make(chan struct{})
		go func() {
			defer close(listened)
			buf := make([]byte, 2048)
			var p packet.Packet
			for {
				select {
				case <-done:
					return
				default:
				}
				obs.conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
				if nb, err := obs.conn.Read(buf); err == nil && packet.UnmarshalInto(&p, buf[:nb]) == nil {
					got[p.JobID]++
				}
			}
		}()
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			for st, _ := m.JobStats(1); st.Completions < 5*(64<<10)/k; st, _ = m.JobStats(1) {
				time.Sleep(100 * time.Microsecond)
			}
			for i := 0; i < s; i++ {
				time.Sleep(50 * time.Microsecond)
				obs.conn.Write(packet.NewUpdate(0, 2, 0, uint32(i), uint64(i*k), make([]int32, k)).AppendMarshal(nil))
			}
		}()
		for step := 2; step <= 20; step++ {
			lockstep(t, clients, 64<<10, step)
		}
		<-sent
		time.Sleep(50 * time.Millisecond) // the window's last results
		close(done)
		<-listened
		if got[1] != 0 || got[2] != s {
			t.Errorf("job 2's worker received %d job-1 datagrams and %d of its %d job-2 results", got[1], got[2], s)
		}
	})
	t.Run("the table swaps under a running job", func(t *testing.T) {
		m, err := NewMultiAggregator("127.0.0.1:0", 0)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		for _, job := range []uint16{1, 2} {
			if err := m.AdmitJob(core.SwitchConfig{Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true, JobID: job}); err != nil {
				t.Fatal(err)
			}
		}
		clients := multiCluster(t, m, 1, n, s, k)
		swapped := make(chan error, 1)
		go func() {
			for st, _ := m.JobStats(1); st.Completions < 100; st, _ = m.JobStats(1) {
				time.Sleep(100 * time.Microsecond)
			}
			if err := m.ReleaseJob(2); err != nil {
				swapped <- err
				return
			}
			// A larger pool grows every shard's block mid-run.
			swapped <- m.AdmitJob(core.SwitchConfig{Workers: n, PoolSize: 4 * s, SlotElems: k, LossRecovery: true, JobID: 3})
		}()
		for step := 1; step <= 10; step++ {
			lockstep(t, clients, 64<<10, step)
		}
		if err := <-swapped; err != nil {
			t.Fatal(err)
		}
		if ids := m.Jobs(); len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
			t.Errorf("Jobs = %v, want [1 3]", ids)
		}
	})
	t.Run("a datagram for no admitted job", func(t *testing.T) {
		m, err := NewMultiAggregator("127.0.0.1:0", 0)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if err := m.AdmitJob(core.SwitchConfig{Workers: 1, PoolSize: s, SlotElems: k, LossRecovery: true, JobID: 1}); err != nil {
			t.Fatal(err)
		}
		r := dialRaw(t, m.agg, 0)
		r.conn.Write(packet.NewUpdate(0, 9, 0, 0, 0, make([]int32, k)).AppendMarshal(nil))
		r.conn.Write(packet.NewControl(packet.KindProbe, 0, 9, 0, nil).AppendMarshal(nil))
		buf := make([]byte, 2048)
		r.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		if nb, err := r.conn.Read(buf); err == nil {
			t.Fatalf("a job-9 update and probe were answered (%d bytes); job 9 was never admitted", nb)
		}
		// The same worker's update for job 1 is answered: the job-9 pair
		// was dropped, not the socket.
		r.conn.Write(packet.NewUpdate(0, 1, 0, 0, 0, make([]int32, k)).AppendMarshal(nil))
		if p := r.await(packet.KindResult, 0); p.JobID != 1 {
			t.Fatalf("job 1's result carries JobID %d", p.JobID)
		}
	})
	t.Run("a job's generation is its id", func(t *testing.T) {
		m, err := NewMultiAggregator("127.0.0.1:0", 0)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		jobs := []uint16{1, 2}
		clients := make([][]*Client, len(jobs))
		for i, job := range jobs {
			if err := m.AdmitJob(core.SwitchConfig{Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true, JobID: job}); err != nil {
				t.Fatal(err)
			}
			clients[i] = multiCluster(t, m, job, n, s, k)
		}
		for _, cs := range clients {
			lockstep(t, cs, 4<<10, 1)
		}
		tab := m.agg.jobs.Load()
		peer2 := *tab.byID[2].peers[0].Load()
		var before [2]core.SwitchStats
		for i, job := range jobs {
			before[i], _ = m.JobStats(job)
		}
		// Each job's id + 1 proposed as a new generation, by adoption and
		// by probe: job 1's names job 2, job 2's no job. Neither is
		// answered, and job 2 keeps its worker's address.
		r := dialRaw(t, m.agg, 0)
		for _, gen := range []uint16{2, 3} {
			for _, kind := range []packet.Kind{packet.KindAdoptJob, packet.KindProbe} {
				r.conn.Write(packet.NewControl(kind, 0, gen, 0, nil).AppendMarshal(nil))
			}
		}
		r.quiet(packet.KindProbeAck, 200*time.Millisecond)
		if ap := *tab.byID[2].peers[0].Load(); ap != peer2 {
			t.Errorf("job 2's worker 0 moved from %v to %v", peer2, ap)
		}
		for _, cs := range clients {
			lockstep(t, cs, 4<<10, 2)
		}
		for i, job := range jobs {
			if gen := m.agg.jobs.Load().byID[job].gen(); gen != job {
				t.Errorf("job %d runs under generation %d", job, gen)
			}
			if after, _ := m.JobStats(job); after.StaleUpdates != before[i].StaleUpdates {
				t.Errorf("job %d turned away %d updates as stale after the proposals", job, after.StaleUpdates-before[i].StaleUpdates)
			}
		}
	})
	for _, mode := range ioModes {
		t.Run("packets beyond a standard datagram/"+mode.mode.String(), func(t *testing.T) {
			if mode.env != "" {
				t.Setenv(mode.env, "1")
			}
			m, err := NewMultiAggregator("127.0.0.1:0", 0)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if got := m.agg.sncs[0].Mode(); got < mode.mode {
				t.Skipf("no %s mode here: the sockets selected %s", mode.mode, got)
			}
			// 1,024 elements: a 4 KiB result, twice what a single-job
			// aggregator of 32 elements reads.
			const bigK = 1024
			if err := m.AdmitJob(core.SwitchConfig{Workers: n, PoolSize: 8, SlotElems: bigK, LossRecovery: true, JobID: 1}); err != nil {
				t.Fatal(err)
			}
			lockstep(t, multiCluster(t, m, 1, n, 8, bigK), 64<<10, 1)
			var se *SlotElemsError
			if err := m.AdmitJob(core.SwitchConfig{Workers: n, PoolSize: 8, SlotElems: 4 * bigK, LossRecovery: true, JobID: 2}); !errors.As(err, &se) {
				t.Fatalf("a %d-element job: got %v, want a SlotElemsError", 4*bigK, err)
			} else if se.Max < bigK || aggWireMTU(se.Max) > jobMTU || aggWireMTU(se.Max+1) <= jobMTU {
				t.Errorf("SlotElemsError names %d elements a packet as the bound", se.Max)
			}
		})
	}
}

// TestLargeSlotElemsEveryIOMode: 2-worker all-reduces through AdmitJob
// at the tuned pool, with packets of 256 elements, of the rule's k, and
// of 1,024, in every I/O mode. From 250 elements up a window of 64
// datagrams no longer fits one UDP_SEGMENT send; a train that is not
// cut to fit fails whole with EMSGSIZE and the job never finishes.
func TestLargeSlotElemsEveryIOMode(t *testing.T) {
	const n = 2
	tuned := TuneShape(n)
	for _, mode := range ioModes {
		t.Run(mode.mode.String(), func(t *testing.T) {
			if mode.env != "" {
				t.Setenv(mode.env, "1")
			}
			for _, k := range []int{256, tuned, 1024} {
				s := TunePoolSize(n, k)
				m, err := NewMultiAggregator("127.0.0.1:0", 0)
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				if got := m.agg.sncs[0].Mode(); got < mode.mode {
					t.Skipf("no %s mode here: the sockets selected %s", mode.mode, got)
				}
				if err := m.AdmitJob(core.SwitchConfig{Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true, JobID: 1}); err != nil {
					t.Fatal(err)
				}
				clients := make([]*Client, n)
				for w := range clients {
					c, err := NewClient(ClientConfig{
						Aggregator: m.Addr().String(),
						Worker:     core.WorkerConfig{ID: uint16(w), Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true, JobID: 1},
						RTO:        100 * time.Millisecond,
						Timeout:    10 * time.Second,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					clients[w] = c
				}
				for step := 1; step <= 2; step++ {
					lockstep(t, clients, 3*s*k+k/2, step) // checks every element of every worker's sum
				}
				if se := m.agg.sendErrs.Value(); se != 0 {
					t.Errorf("k %d: the aggregator counted %d send errors", k, se)
				}
				for w, c := range clients {
					if se := c.DebugState().SendErrors; se != 0 {
						t.Errorf("k %d: worker %d counted %d send errors", k, w, se)
					}
				}
			}
		})
	}
}
