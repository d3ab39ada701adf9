package transport

import (
	"sync"
	"testing"
	"time"

	"switchml/internal/core"
	"switchml/internal/netio"
)

func TestMultiAggregatorTwoJobs(t *testing.T) {
	m, err := NewMultiAggregator("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
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

// TestFaultMultiAggregatorWindowFits: the one socket of a
// MultiAggregator is sized for every admitted job's window, so a job
// running at the tuned pool size beside another loses nothing to a full
// receive buffer — this serve loop reads a datagram a syscall, and a
// stock buffer holds about a sixth of one tuned window. Lossless
// 256K-element tensors must need no lap and no timer retransmission.
func TestFaultMultiAggregatorWindowFits(t *testing.T) {
	const n, k, elems = 2, 32, 256 << 10
	s := TunePoolSize(n, k)
	m, err := NewMultiAggregator("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	jobs := []uint16{1, 2}
	for _, job := range jobs {
		if err := m.AdmitJob(core.SwitchConfig{Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true, JobID: job}); err != nil {
			t.Fatal(err)
		}
	}
	need := len(jobs) * windowBytes(n*s, k)
	if rcv, _ := netio.SizeBuffers(m.conn, 0, 0); rcv == 0 {
		t.Skip("this platform does not report socket buffer sizes")
	} else if rcv < need {
		if could, _ := netio.SizeBuffers(m.conn, need, need); could >= need {
			t.Fatalf("the socket was left a %d-byte receive buffer for admitted windows of %d, which this host grants", rcv, need)
		}
		t.Skipf("the kernel granted a %d-byte receive buffer, under the %d the admitted windows need (rmem_max)", rcv, need)
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
}
