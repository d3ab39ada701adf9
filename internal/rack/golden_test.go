package rack

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"switchml/internal/core"
	"switchml/internal/faults"
	"switchml/internal/netsim"
	"switchml/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/sim_golden.json from this run")

const goldenPath = "testdata/sim_golden.json"

// goldenLink pins one unidirectional link's delivery counters.
type goldenLink struct {
	Name      string `json:"name"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
}

// goldenStats is every simulated statistic one scenario pins. None of
// it may depend on how the simulator is implemented: only on the
// (at, seq) total order of its events.
type goldenStats struct {
	// TATNs is each step's tensor aggregation time.
	TATNs           []int64           `json:"tat_ns"`
	PacketsSent     uint64            `json:"packets_sent"`
	Retransmissions uint64            `json:"retransmissions"`
	Events          uint64            `json:"events"`
	EndNs           int64             `json:"end_ns"`
	Links           []goldenLink      `json:"links"`
	Counters        map[string]uint64 `json:"counters"`
	Switch          core.SwitchStats  `json:"switch"`
	// TraceEvents and TraceFNV cover the full protocol event stream
	// (type, ts, actor, worker, slot, off, size) in emission order.
	TraceEvents uint64 `json:"trace_events"`
	TraceFNV    string `json:"trace_fnv64a"`
	// AggregateFNV covers every member's final aggregate vector, so a
	// recycled packet read after its release cannot go unnoticed.
	AggregateFNV string `json:"aggregate_fnv64a"`
}

// fnvTracer folds the trace stream into an FNV-64a without retaining
// it.
type fnvTracer struct {
	h   hash.Hash64
	n   uint64
	buf [33]byte
}

func (f *fnvTracer) Emit(e telemetry.Event) {
	b := f.buf[:0]
	b = append(b, byte(e.Type))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.TS))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(e.Slot)))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Off))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Size)<<32|uint64(uint32(e.Worker)))
	f.h.Write(b)
	f.h.Write([]byte(e.Actor))
	f.h.Write([]byte{0})
	f.n++
}

// goldenScenario is one row of the matrix: a rack configuration and
// the steps to run on it.
type goldenScenario struct {
	name  string
	cfg   Config
	elems int
	steps int
	// oddEmpty makes every odd step aggregate an empty tensor.
	oddEmpty bool
}

func goldenMatrix() []goldenScenario {
	rto := 100 * netsim.Microsecond
	straggler := make([]float64, 8)
	straggler[5] = 1e9
	return []goldenScenario{
		{
			// The sim_rack benchmark shape.
			name:  "lossless_8w_1M",
			cfg:   Config{Workers: 8, LinkBitsPerSec: 10e9, LossRecovery: true, Seed: 1},
			elems: 1 << 20, steps: 1,
		},
		{
			name:  "bernoulli_1pct",
			cfg:   Config{Workers: 8, LossRecovery: true, LossRate: 0.01, Seed: 3, RTO: rto},
			elems: 1 << 17, steps: 2,
		},
		{
			name: "gilbert_elliott_burst",
			cfg: Config{
				Workers: 8, LossRecovery: true, Seed: 5, RTO: rto, AdaptiveRTO: true,
				BurstLoss: &netsim.GEConfig{PGoodToBad: 0.002, PBadToGood: 0.1, LossGood: 0.0001, LossBad: 0.5},
			},
			elems: 1 << 16, steps: 2,
		},
		{
			name:  "dup_corrupt_half_pct",
			cfg:   Config{Workers: 8, LossRecovery: true, DupRate: 0.005, CorruptRate: 0.005, Seed: 7, RTO: rto},
			elems: 1 << 17, steps: 2,
		},
		{
			name: "crash_2_of_8_recovery",
			cfg: Config{
				Workers: 8, LossRecovery: true, LossRate: 0.01, Seed: 11, RTO: rto,
				Faults: &faults.Scenario{Actions: []faults.Action{
					{Kind: faults.CrashWorker, Worker: 2, At: 100 * netsim.Microsecond},
					{Kind: faults.RestartWorker, Worker: 2, Step: 2, At: 0},
				}},
			},
			elems: 40000, steps: 3,
		},
		{
			// The restart lands while the crashed host's cores still hold
			// queued results: its fresh state machine must see them at the
			// times, and in the order, the old process would have.
			name: "crash_restart_same_step",
			cfg: Config{
				Workers: 4, LossRecovery: true, Seed: 13, RTO: rto, AdaptiveRTO: true,
				PerPacketCost: 400 * netsim.Nanosecond, Cores: 1,
				Faults: &faults.Scenario{Actions: []faults.Action{
					{Kind: faults.CrashWorker, Worker: 3, Step: 1, At: 50 * netsim.Microsecond},
					{Kind: faults.RestartWorker, Worker: 3, Step: 1, At: 50*netsim.Microsecond + 200},
				}},
			},
			elems: 20000, steps: 3,
		},
		{
			name: "quorum_7_of_8_straggler",
			cfg: Config{
				Workers: 8, LossRecovery: true, Seed: 9, RTO: rto,
				Quorum: 7, LatePolicy: core.LateReconcile,
				WorkerLinkBitsPerSec: straggler,
			},
			elems: 1 << 15, steps: 3,
		},
		{
			name: "switch_kill_standby_failup",
			cfg: failoverTestConfig(&faults.Scenario{Actions: []faults.Action{
				{Kind: faults.KillSwitch, Step: 2, At: 20 * netsim.Microsecond},
				{Kind: faults.ReviveSwitch, Step: 3, At: 100 * netsim.Microsecond},
			}}, 1),
			elems: 4096, steps: 8,
		},
		{
			// Detached at construction, then a join and a leave committed
			// at the same step boundary: one generation bump covering both.
			name: "elastic_join_leave_same_boundary",
			cfg: Config{
				Workers: 6, LossRecovery: true, LossRate: 0.005, Seed: 17, RTO: rto,
				Detached: []int{4, 5},
				Faults: &faults.Scenario{Actions: []faults.Action{
					{Kind: faults.JoinWorker, Worker: 4, Step: 2, At: 10 * netsim.Microsecond},
					{Kind: faults.LeaveWorker, Worker: 1, Step: 2, At: 10 * netsim.Microsecond},
					{Kind: faults.JoinWorker, Worker: 5, Step: 4, At: 0},
					{Kind: faults.LeaveWorker, Worker: 4, Step: 4, At: 0},
				}},
			},
			elems: 8000, steps: 6,
		},
		{
			// The primary dies mid-step with no standby: the job degrades
			// to the host mesh at the frontier and fails back after the
			// probation window.
			name: "mesh_degrade_failback",
			cfg: healthTestConfig(&faults.Scenario{Actions: []faults.Action{
				{Kind: faults.KillSwitch, Step: 2, At: 20 * netsim.Microsecond},
				{Kind: faults.ReviveSwitch, Step: 2, At: 3 * netsim.Millisecond},
			}}),
			elems: 4096, steps: 6,
		},
		{
			// Empty tensors on the switch path and on the host mesh, and a
			// failback taken after an empty degraded step.
			name: "mesh_empty_steps",
			cfg: healthTestConfig(&faults.Scenario{Actions: []faults.Action{
				{Kind: faults.KillSwitch, Step: 2, At: 20 * netsim.Microsecond},
				{Kind: faults.ReviveSwitch, Step: 2, At: 3 * netsim.Millisecond},
			}}),
			elems: 4096, steps: 7, oddEmpty: true,
		},
		{
			name: "switch_restart_recovery",
			cfg: Config{
				Workers: 8, LossRecovery: true, LossRate: 0.01, Seed: 19, RTO: rto,
				Faults: &faults.Scenario{Actions: []faults.Action{
					{Kind: faults.RestartSwitch, At: 80 * netsim.Microsecond},
					{Kind: faults.RestartSwitch, Step: 2, At: 50 * netsim.Microsecond},
				}},
				Liveness: &LivenessConfig{
					SilenceAfter: 1600 * netsim.Microsecond,
					CheckEvery:   50 * netsim.Microsecond,
				},
			},
			elems: 30000, steps: 3,
		},
		{
			// The primary and the first standby die together: the job
			// walks down to the second standby rung.
			name: "standby_descent_two_rungs",
			cfg: failoverTestConfig(&faults.Scenario{Actions: []faults.Action{
				{Kind: faults.KillSwitch, Step: 2, At: 20 * netsim.Microsecond},
				{Kind: faults.KillStandby, Worker: 1, Step: 2, At: 20 * netsim.Microsecond},
			}}, 2),
			elems: 4096, steps: 6,
		},
	}
}

// runGolden executes one scenario and collects its statistics.
func runGolden(t *testing.T, sc goldenScenario) goldenStats {
	t.Helper()
	tr := &fnvTracer{h: fnv.New64a()}
	cfg := sc.cfg
	cfg.Tracer = tr
	r, err := NewRack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var st goldenStats
	agg := fnv.New64a()
	for step := 1; step <= sc.steps; step++ {
		elems := sc.elems
		if sc.oddEmpty && step%2 == 1 {
			elems = 0
		}
		us, _ := stepUpdates(cfg.Workers, elems, step)
		res, err := r.AllReduce(us)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		st.TATNs = append(st.TATNs, int64(res.TAT))
		st.Retransmissions += res.Retransmissions
		for w := 0; w < cfg.Workers; w++ {
			if !r.Member(w) {
				continue
			}
			var b [4]byte
			for _, v := range r.Aggregate(w) {
				binary.LittleEndian.PutUint32(b[:], uint32(v))
				agg.Write(b[:])
			}
		}
	}
	st.Counters = r.Counters()
	st.PacketsSent = st.Counters["packets_sent"]
	st.Switch = r.Switch().Stats()
	st.Events = r.Sim().Processed()
	st.EndNs = int64(r.Sim().Now())
	for _, l := range r.linksOf(-1) {
		ls := l.Stats()
		st.Links = append(st.Links, goldenLink{Name: l.Name(), Delivered: ls.Delivered, Dropped: ls.Dropped})
	}
	st.TraceEvents = tr.n
	st.TraceFNV = fmt.Sprintf("%016x", tr.h.Sum64())
	st.AggregateFNV = fmt.Sprintf("%016x", agg.Sum64())
	return st
}

// TestSimGolden pins every simulated statistic of a fixed scenario
// matrix against a table generated before the event queue and packet
// ownership were rewritten. The Determinism/Replay tests compare two
// runs of the same code; this one fails if a change to the simulator
// reorders a same-time tie, loses or double-delivers a packet, or
// draws from the random source in a different order. Regenerate with
// `go test ./internal/rack -run TestSimGolden -update` — and only when
// a change is meant to alter simulated behaviour.
func TestSimGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the simulator is single-threaded: under the race detector this costs 15 s and covers nothing `go test` does not")
	}
	got := make(map[string]goldenStats)
	for _, sc := range goldenMatrix() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			got[sc.name] = runGolden(t, sc)
		})
	}
	if t.Failed() {
		return
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	want := make(map[string]goldenStats)
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for _, sc := range goldenMatrix() {
		g, w := got[sc.name], want[sc.name]
		if reflect.DeepEqual(g, w) {
			continue
		}
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		t.Errorf("%s: simulated statistics changed\n got %s\nwant %s", sc.name, gj, wj)
	}
	if len(want) != len(got) {
		t.Errorf("golden table has %d scenarios, the matrix %d", len(want), len(got))
	}
}
