package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"switchml/internal/netio"
)

// resultLines parses every contract line the run printed.
func resultLines(t *testing.T, out string) []resultLine {
	t.Helper()
	var lines []resultLine
	for _, l := range strings.Split(out, "\n") {
		if !strings.HasPrefix(l, "{") {
			continue
		}
		var r resultLine
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("bad result line %q: %v", l, err)
		}
		lines = append(lines, r)
	}
	return lines
}

func names(defs []metric) []string {
	var n []string
	for _, d := range defs {
		n = append(n, d.name)
	}
	return n
}

func checkLine(t *testing.T, r resultLine, defs []metric) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d defined", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s not emitted", d.name)
			continue
		}
		if v.Unit != d.unit {
			t.Errorf("metric %s has unit %q, want %q", d.name, v.Unit, d.unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s is %v", d.name, v.Value)
		}
	}
}

// TestQuickAllWorkloads drives the whole harness in -quick mode: the
// untraced pass, the traced pass, the layer replay, the trace file and
// the JSON report, on every workload.
func TestQuickAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	jsonPath := filepath.Join(dir, "report.json")
	var out bytes.Buffer
	err := run(config{
		workload: "all", seed: 5, seconds: 0.15, trials: defaultTrials,
		trace: tracePath, jsonPath: jsonPath, quick: true, repeat: 1,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	lines := resultLines(t, out.String())
	if len(lines) != len(workloads) {
		t.Fatalf("%d result lines for %d workloads", len(lines), len(workloads))
	}
	for i, r := range lines {
		checkLine(t, r, perLayer)
		if workloads[i].kind == kindSim {
			continue
		}
		m := r.Metrics
		sum := m["transport.layer_sum_ns_per_pkt"].Value + m["transport.residual_ns_per_pkt"].Value
		if cpu := m["transport.cpu_ns_per_update_pkt"].Value; math.Abs(sum-cpu) > 1e-6*cpu {
			t.Errorf("%s: layer sum + residual = %v, cpu_ns_per_update_pkt = %v", workloads[i].name, sum, cpu)
		}
	}
	for _, want := range []string{"loopback", "nproc=", "GOMAXPROCS=", "netio=", "trace.overhead_ratio", "reconciliation"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output does not mention %q", want)
		}
	}

	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace file: %v", err)
	}
	seen := make(map[string]bool)
	for _, e := range trace.TraceEvents {
		seen[e.Name] = true
	}
	for _, want := range []string{
		"step", "listen", "dial", "warmup", "peer.allreduce", "transport.allreduce",
		"session.submit_wait", "quant.quantize", "quant.dequantize", "sim.simulate", "replay.netio",
	} {
		if !seen[want] {
			t.Errorf("trace has no %q span", want)
		}
	}
	if _, err := os.Stat(jsonPath); err != nil {
		t.Errorf("report: %v", err)
	}
}

// TestUntracedLineAndRepeat checks the driver's form of the command on
// one workload: end-to-end metrics only, none of them zero, and the
// -repeat self-check printing a verdict per metric.
func TestUntracedLineAndRepeat(t *testing.T) {
	var out bytes.Buffer
	err := run(config{workload: "udp_smallstep", seed: 9, seconds: 0.2, trials: 2, trace: "0", quick: true, repeat: 2}, &out)
	// Two 0.2 s sets may differ by more than the bounds; only a wrong
	// result is a test failure.
	if err != nil && !strings.Contains(err.Error(), "between sets") {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	lines := resultLines(t, out.String())
	if len(lines) != 2 {
		t.Fatalf("%d result lines for 2 sets", len(lines))
	}
	for _, r := range lines {
		checkLine(t, r, endToEnd)
		for name, v := range r.Metrics {
			if v.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, must never be 0", name, v.Value)
			}
		}
	}
	if !strings.Contains(out.String(), "repeatability") {
		t.Error("no repeatability report")
	}
}

func TestUnknownWorkload(t *testing.T) {
	if err := run(config{workload: "nope", seconds: 1, trials: 1, repeat: 1}, &bytes.Buffer{}); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestNetioOverrideRefused: an environment override that changes the
// I/O path must not produce numbers under the same metric names.
func TestNetioOverrideRefused(t *testing.T) {
	t.Setenv(netio.NoMmsgEnv, "1")
	err := run(config{workload: "udp_smallstep", seconds: 0.1, trials: 1, trace: "0", quick: true, repeat: 1}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), netio.NoMmsgEnv) {
		t.Errorf("run with %s set: %v", netio.NoMmsgEnv, err)
	}
}

// TestTimeWindows: windows close at windowLen, the short remainder is
// dropped, and a trial shorter than one window is one window.
func TestTimeWindows(t *testing.T) {
	ms := time.Millisecond
	long := trialResult{
		steps: []time.Duration{100 * ms, 100 * ms, 100 * ms, 50 * ms, 50 * ms, 50 * ms, 50 * ms, 50 * ms, 90 * ms},
		ends:  []time.Duration{100 * ms, 200 * ms, 300 * ms, 350 * ms, 400 * ms, 450 * ms, 500 * ms, 550 * ms, 640 * ms},
	}
	ws := long.timeWindows(1000)
	if len(ws) != 2 {
		t.Fatalf("%d windows, want 2: %+v", len(ws), ws)
	}
	// Steps 0-2 in 300 ms, then steps 3-7 in 250 ms; the last 90 ms are dropped.
	if want := 3 * 1000 / 0.3; math.Abs(ws[0].ate-want) > 1e-6 || ws[0].p50ms != 100 {
		t.Errorf("first window %+v", ws[0])
	}
	if want := 5 * 1000 / 0.25; math.Abs(ws[1].ate-want) > 1e-6 || ws[1].p50ms != 50 {
		t.Errorf("second window %+v", ws[1])
	}
	short := trialResult{steps: []time.Duration{10 * ms, 30 * ms}, ends: []time.Duration{10 * ms, 40 * ms}}
	if ws := short.timeWindows(1000); len(ws) != 1 || math.Abs(ws[0].ate-2*1000/0.04) > 1e-6 || ws[0].p50ms != 20 {
		t.Errorf("short trial: %+v", ws)
	}
}

func TestSelfTimeCountsParallelChildrenOnce(t *testing.T) {
	// Two children overlapping on [20,30) inside a parent of 100.
	got := covered([][2]int64{{10, 30}, {20, 60}, {90, 150}}, 0, 100)
	if want := int64(50 + 10); got != want {
		t.Errorf("covered = %d, want %d", got, want)
	}
}

// benchmarkJSON mirrors BENCHMARK.json; unknown keys are an error.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesHarness fails if BENCHMARK.json names a
// workload or metric the harness does not emit, or the reverse, or if a
// name, unit or bound falls outside the driver's limits.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", spec.RunSeconds, defaultSeconds)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := make(map[string]bool)
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the driver's limits", n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}

	var gotW, wantW [][2]string
	for _, w := range spec.Workloads {
		checkName(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		gotW = append(gotW, [2]string{w.Name, w.Why})
	}
	for _, w := range workloads {
		wantW = append(wantW, [2]string{w.name, w.why})
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("workloads differ:\n json    %v\n harness %v", gotW, wantW)
	}

	var gotE, gotL []metric
	hasSetup := false
	for _, m := range spec.EndToEnd {
		checkName(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		gotE = append(gotE, metric{m.Name, m.Unit, m.Better, m.Bound})
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range spec.PerLayer {
		checkName(m.Name)
		gotL = append(gotL, metric{m.Name, m.Unit, m.Better, 0})
	}
	if !reflect.DeepEqual(gotE, endToEnd) {
		t.Errorf("end_to_end differs:\n json    %v\n harness %v", names(gotE), names(endToEnd))
	}
	if !reflect.DeepEqual(gotL, perLayer) {
		t.Errorf("per_layer differs:\n json    %v\n harness %v", names(gotL), names(perLayer))
	}
	for _, m := range append(gotE, gotL...) {
		if !unitRE.MatchString(m.unit) || (m.better != "higher" && m.better != "lower") {
			t.Errorf("%s: unit %q better %q", m.name, m.unit, m.better)
		}
	}
}
