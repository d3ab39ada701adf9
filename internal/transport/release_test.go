package transport

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"switchml/internal/core"
	"switchml/internal/packet"
)

// rawWorker is one worker's socket driven by hand: the test writes the
// worker's datagrams and reads what the aggregator answers.
type rawWorker struct {
	t    *testing.T
	id   uint16
	conn *net.UDPConn
}

func dialRaw(t *testing.T, agg *Aggregator, id uint16) *rawWorker {
	t.Helper()
	conn, err := net.DialUDP("udp", nil, agg.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawWorker{t: t, id: id, conn: conn}
}

// send writes one datagram of the given kind from this worker.
func (r *rawWorker) send(kind packet.Kind, ver uint8, gen uint16, off uint64) {
	r.t.Helper()
	p := packet.NewControl(kind, r.id, gen, off, nil)
	p.Ver = ver
	if kind == packet.KindUpdate {
		p.Vector = make([]int32, 8)
	}
	if _, err := r.conn.Write(p.AppendMarshal(nil)); err != nil {
		r.t.Fatal(err)
	}
}

// await reads until a datagram of the given kind and version arrives,
// skipping anything else, and fails the test after five seconds.
func (r *rawWorker) await(kind packet.Kind, ver uint8) packet.Packet {
	r.t.Helper()
	buf := make([]byte, 2048)
	var p packet.Packet
	r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		n, err := r.conn.Read(buf)
		if err != nil {
			r.t.Fatalf("worker %d: no %v (ver %d) from the aggregator: %v", r.id, kind, ver, err)
		}
		if packet.UnmarshalInto(&p, buf[:n]) == nil && p.Kind == kind && p.Ver == ver {
			return p
		}
	}
}

// awaitRelease reads the KindResume this worker is due and checks it
// carries the committed generation and offset.
func (r *rawWorker) awaitRelease(gen uint16, off uint64) {
	r.t.Helper()
	if p := r.await(packet.KindResume, 0); p.JobID != gen || p.Off != off {
		r.t.Fatalf("worker %d released at (generation %d, offset %d), want (%d, %d)", r.id, p.JobID, p.Off, gen, off)
	}
}

// quiet fails the test if a datagram of the given kind reaches this
// worker within d.
func (r *rawWorker) quiet(kind packet.Kind, d time.Duration) {
	r.t.Helper()
	buf := make([]byte, 2048)
	var p packet.Packet
	r.conn.SetReadDeadline(time.Now().Add(d))
	for {
		n, err := r.conn.Read(buf)
		if err != nil {
			return
		}
		if packet.UnmarshalInto(&p, buf[:n]) == nil && p.Kind == kind {
			r.t.Fatalf("worker %d got %v (generation %d, offset %d), want none", r.id, kind, p.JobID, p.Off)
		}
	}
}

// released is a job whose roll call has committed: its workers were
// released under gen at off.
type released struct {
	agg *Aggregator
	w   []*rawWorker
	gen uint16
	off uint64
}

func releaseAggregator(t *testing.T, workers int, lv LivenessConfig, absent []int) (*Aggregator, []*rawWorker) {
	t.Helper()
	agg, err := NewAggregator(AggregatorConfig{
		Addr:     "127.0.0.1:0",
		Switch:   core.SwitchConfig{Workers: workers, PoolSize: 4, SlotElems: 8, LossRecovery: true},
		Liveness: &lv,
		Absent:   absent,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { agg.Close() })
	w := make([]*rawWorker, workers)
	for i := range w {
		w[i] = dialRaw(t, agg, uint16(i))
	}
	return agg, w
}

// awaitPeers waits until the aggregator has learned each worker's
// address from its heartbeats.
func awaitPeers(t *testing.T, agg *Aggregator, w ...*rawWorker) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		st := agg.DebugState(false)
		known := true
		for _, r := range w {
			known = known && st.Peers[r.id] != ""
		}
		if known {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the aggregator never learned the workers' addresses")
		}
		for _, r := range w {
			r.send(packet.KindHeartbeat, 0, 0, 0)
		}
		time.Sleep(time.Millisecond)
	}
}

// evictionReleased runs a §5.6 eviction to its release: worker 2 goes
// silent while workers 0 and 1 keep beating, the detector evicts it,
// and the survivors report frontiers 64 and 32 — released at 32 under
// generation 1.
func evictionReleased(t *testing.T) released {
	agg, w := releaseAggregator(t, 3, LivenessConfig{SilenceAfter: 150 * time.Millisecond, CheckEvery: 25 * time.Millisecond}, nil)
	awaitPeers(t, agg, w...)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				for _, r := range w[:2] {
					r.conn.Write(packet.NewControl(packet.KindHeartbeat, r.id, 0, 0, nil).AppendMarshal(nil))
				}
			}
		}
	}()
	t.Cleanup(func() { close(stop); wg.Wait() })
	w[0].await(packet.KindReconfig, 0)
	w[1].await(packet.KindReconfig, 0)
	w[0].send(packet.KindReport, 0, 1, 64)
	w[1].send(packet.KindReport, 0, 1, 32)
	w[0].awaitRelease(1, 32)
	w[1].awaitRelease(1, 32)
	return released{agg: agg, w: w, gen: 1, off: 32}
}

// joinReleased admits worker 2 through the join fence: the incumbents
// confirm the boundary 64, the joiner confirms, and the commit releases
// all three at 64 under generation 1.
func joinReleased(t *testing.T) released {
	agg, w := releaseAggregator(t, 3, LivenessConfig{SilenceAfter: 5 * time.Second}, []int{2})
	awaitPeers(t, agg, w[:2]...)
	w[2].send(packet.KindJoin, 0, 0, 0)
	for _, r := range w {
		r.await(packet.KindReconfig, 1)
	}
	w[0].send(packet.KindReport, 1, 1, 64)
	w[1].send(packet.KindReport, 1, 1, 64)
	w[2].send(packet.KindReport, 1, 1, 0)
	for _, r := range w {
		r.awaitRelease(1, 64)
	}
	return released{agg: agg, w: w, gen: 1, off: 64}
}

// TestJoinWaitsForAMember: a join solicited before any member has been
// heard from opens no fence. Such a fence would wait for no incumbent
// and commit the joiner alone at offset 0, under an incumbent by then
// tensors ahead (whose resume then fails as preceding its tensor). The
// joiner retries at its RTO; once the incumbent has spoken, the retry
// opens the fence for both.
func TestJoinWaitsForAMember(t *testing.T) {
	agg, w := releaseAggregator(t, 2, LivenessConfig{SilenceAfter: 5 * time.Second}, []int{1})
	w[1].send(packet.KindJoin, 0, 0, 0)
	w[1].quiet(packet.KindReconfig, 200*time.Millisecond)
	agg.mu.Lock()
	opened := agg.join != nil
	agg.mu.Unlock()
	if opened {
		t.Fatal("a join fence opened before any member was heard from")
	}
	awaitPeers(t, agg, w[0])
	w[1].send(packet.KindJoin, 0, 0, 0)
	for _, r := range w {
		r.await(packet.KindReconfig, 1)
	}
}

// adoptionReleased adopts a two-worker job: the workers propose
// generation 1 with frontiers 48 and 16, and the commit releases both at
// 16.
func adoptionReleased(t *testing.T) released {
	agg, w := releaseAggregator(t, 2, LivenessConfig{SilenceAfter: 5 * time.Second}, nil)
	w[0].send(packet.KindAdoptJob, 0, 1, 48)
	w[0].await(packet.KindAdoptJob, 1)
	w[1].send(packet.KindAdoptJob, 0, 1, 16)
	for _, r := range w {
		r.awaitRelease(1, 16)
	}
	return released{agg: agg, w: w, gen: 1, off: 16}
}

// TestLostReleaseRepair covers every path that repairs a lost release:
// a worker that missed the KindResume ending a roll call — and so keeps
// speaking for the generation before it, or repeats its vote — is sent
// the committed generation and offset again. After Reset no release
// stands, and none of them is answered.
func TestLostReleaseRepair(t *testing.T) {
	rows := []struct {
		name  string
		setup func(*testing.T) released
		// lost is what the worker that missed the release sends next.
		lost func(r released) *rawWorker
	}{
		{"stale-generation update after a resume", evictionReleased, func(r released) *rawWorker {
			r.w[0].send(packet.KindUpdate, 0, r.gen-1, 0)
			return r.w[0]
		}},
		{"late report after a resume", evictionReleased, func(r released) *rawWorker {
			r.w[1].send(packet.KindReport, 0, r.gen, 32)
			return r.w[1]
		}},
		{"member re-join after a join commit", joinReleased, func(r released) *rawWorker {
			r.w[0].send(packet.KindJoin, 0, 0, 0)
			return r.w[0]
		}},
		{"repeated confirm after a join commit", joinReleased, func(r released) *rawWorker {
			r.w[1].send(packet.KindReport, 1, r.gen, r.off)
			return r.w[1]
		}},
		{"duplicate adopt after an adoption commit", adoptionReleased, func(r released) *rawWorker {
			r.w[0].send(packet.KindAdoptJob, 0, r.gen, 48)
			return r.w[0]
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := row.setup(t)
			row.lost(r).awaitRelease(r.gen, r.off)
		})
	}
	t.Run("after Reset", func(t *testing.T) {
		for _, row := range rows {
			t.Run(row.name, func(t *testing.T) {
				r := row.setup(t)
				r.agg.Reset()
				row.lost(r).quiet(packet.KindResume, 150*time.Millisecond)
			})
		}
	})
}

// echoAggregator is a one-worker job's aggregator played by hand: it
// tells a dialing worker a job of n workers with 4 slots of 8 elements,
// and while echo is set it answers each update with its result, the
// update itself, and otherwise it stays silent. It remembers where the
// worker sends from, for the directives the test sends it.
type echoAggregator struct {
	conn *net.UDPConn
	echo atomic.Bool
	peer atomic.Pointer[net.UDPAddr]
}

func listenEcho(t *testing.T, n int) *echoAggregator {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	e := &echoAggregator{conn: conn}
	done := make(chan struct{})
	t.Cleanup(func() { conn.Close(); <-done })
	go func() {
		defer close(done)
		buf := make([]byte, 64<<10)
		var p packet.Packet
		for {
			nr, from, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			e.peer.Store(from)
			if packet.UnmarshalInto(&p, buf[:nr]) != nil {
				continue
			}
			if ack := helloAck(&p, 4, 8, n); ack != nil {
				conn.WriteToUDP(ack, from)
				continue
			}
			if p.Kind != packet.KindUpdate || !e.echo.Load() {
				continue
			}
			p.Kind = packet.KindResult
			conn.WriteToUDP(p.AppendMarshal(nil), from)
		}
	}()
	return e
}

// TestResumeInFenceHoldThenTimeout: a §5.6 recovery during a call's
// fence hold re-opens the tensor before it, and the call times out
// driving that tensor with the aggregator silent. The open tensor is
// not the failed call's own, so the next call, given the failed call's
// slice, must not be refused as one with another tensor's slice: it
// drives the re-opened tensor to completion and then aggregates its
// own, with the exact sum.
func TestResumeInFenceHoldThenTimeout(t *testing.T) {
	agg := listenEcho(t, 1)
	agg.echo.Store(true)
	c, err := NewClient(ClientConfig{
		Aggregator: agg.conn.LocalAddr().String(),
		Worker:     core.WorkerConfig{ID: 0, Workers: 1, PoolSize: 4, SlotElems: 8, LossRecovery: true},
		RTO:        20 * time.Millisecond,
		Timeout:    300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tensor := func(base int32) []int32 {
		u := make([]int32, 20)
		for j := range u {
			u[j] = base + int32(j)
		}
		return u
	}
	exact := func(what string, got, u []int32) {
		t.Helper()
		for j := range u {
			if got[j] != u[j] {
				t.Fatalf("%s: elem %d: got %d want %d", what, j, got[j], u[j])
			}
		}
	}
	first, second := tensor(100), tensor(200)
	out, err := c.AllReduceInt32(first)
	if err != nil {
		t.Fatal(err)
	}
	exact("first tensor", out, first)

	// A membership fence is pending; the recovery that supersedes it
	// resumes generation 1 at offset 0, inside the first tensor.
	agg.echo.Store(false)
	c.fenceArmed, c.fenceGen = true, 1
	resume := packet.NewControl(packet.KindResume, 0, 1, 0, nil)
	if _, err := agg.conn.WriteToUDP(resume.AppendMarshal(nil), agg.peer.Load()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AllReduceInt32(second); err == nil {
		t.Fatal("the call finished with the aggregator silent")
	}
	if !c.worker.Busy() || !SameSlice(c.worker.Update(), first) {
		t.Fatal("the recovery did not re-open the first tensor")
	}
	if c.TensorOpen() {
		t.Fatal("the re-opened tensor is taken for the failed call's own")
	}

	agg.echo.Store(true)
	out, err = c.AllReduceInt32(second)
	if err != nil {
		t.Fatalf("the call after the timeout: %v", err)
	}
	exact("second tensor", out, second)
	third := tensor(300)
	if out, err = c.AllReduceInt32(third); err != nil {
		t.Fatal(err)
	}
	exact("third tensor", out, third)
}

// TestDegradeBehindTensorBase: a worker whose tensor goes silent
// degrades to the mesh, and the barrier finds a peer a whole tensor
// behind it. That is a misaligned stream, not a suffix to finish on the
// mesh: the call fails with the misalignment instead of slicing the
// tensor at a negative offset.
func TestDegradeBehindTensorBase(t *testing.T) {
	const d = 20
	agg := listenEcho(t, 2)
	agg.echo.Store(true)
	peer := listenLoopback(t)
	c, err := NewClient(ClientConfig{
		Aggregator: agg.conn.LocalAddr().String(),
		Worker:     core.WorkerConfig{ID: 0, Workers: 2, PoolSize: 4, SlotElems: 8, LossRecovery: true},
		RTO:        10 * time.Millisecond,
		Timeout:    5 * time.Second,
		Fallback:   &FallbackConfig{Listen: "127.0.0.1:0", SuspectAfter: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetMeshPeers([]string{c.MeshAddr().String(), peer.LocalAddr().String()}); err != nil {
		t.Fatal(err)
	}
	// The peer answers every barrier sync from offset 0.
	go func() {
		buf := make([]byte, 2048)
		var p packet.Packet
		for {
			n, from, err := peer.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if packet.UnmarshalInto(&p, buf[:n]) != nil || p.Kind != packet.KindFallbackSync {
				continue
			}
			peer.WriteToUDP(packet.NewControl(packet.KindFallbackSync, 1, p.JobID, 0, nil).AppendMarshal(nil), from)
		}
	}()
	if _, err := c.AllReduceInt32(make([]int32, d)); err != nil {
		t.Fatal(err)
	}
	agg.echo.Store(false)
	_, err = c.AllReduceInt32(make([]int32, d))
	if err == nil || !strings.Contains(err.Error(), "stream misaligned") {
		t.Fatalf("the degrade behind the tensor returned %v, want the misalignment", err)
	}
}
