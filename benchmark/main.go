// Command benchmark is the repository's benchmark: five named
// workloads over the real UDP transport (host loopback) and the rack
// simulator, the end-to-end metrics a user of the system sees, and a
// traced pass that attributes time and counts to each layer. See
// README.md in this directory and BENCHMARK.json at the repository
// root.
//
//	go run ./benchmark                      every workload, untraced
//	go run ./benchmark -trace out.json      plus the traced pass and a Chrome trace
//	go run ./benchmark -repeat 2            repeatability self-check against the bounds
//	go run ./benchmark -workload udp_bulk -seed 7 -seconds 10 -trace 0   (the driver's form)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"switchml/internal/netio"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trials   int
	trace    string // "0", "1" or a path for the Chrome trace
	jsonPath string
	quick    bool
	repeat   int
	// spinners is the number of idle-class spinner processes main started
	// (see spin_linux.go); run only reports it.
	spinners int
}

// spinFlag is how the harness starts itself as an idle-class spinner.
const spinFlag = "idle-spin"

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&c.seed, "seed", 1, "seed for tensor values, tensor order, loss injectors and the simulator")
	flag.Float64Var(&c.seconds, "seconds", defaultSeconds, "timed seconds per workload and pass")
	flag.IntVar(&c.trials, "trials", defaultTrials, "trials per workload, each with fresh sockets")
	flag.StringVar(&c.trace, "trace", "0", "0: untraced pass only; 1: add the traced pass; a path: also write Chrome trace-event JSON there")
	flag.StringVar(&c.jsonPath, "json", "", "write the full report as JSON to this path")
	flag.BoolVar(&c.quick, "quick", false, "smoke mode: 1 trial, tensors 16 times smaller")
	flag.IntVar(&c.repeat, "repeat", 1, "run the untraced set this many times and check the spread against the bounds")
	spin := flag.Bool("spin", true, "keep the CPUs from idling with one SCHED_IDLE spinner process per CPU (Linux only)")
	spinIndex := flag.Int(spinFlag, -1, "internal: run as the idle-class spinner of the n-th CPU")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *spinIndex >= 0 {
		spinMain(*spinIndex)
		return
	}
	stop := func() {}
	if *spin {
		c.spinners, stop = startSpinners()
	}
	err := run(c, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// environment is recorded with every report: numbers from another box,
// core count or I/O mode are not comparable.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	NetioMode  string `json:"netio_mode"`
	Link       string `json:"link"`
	// IdleSpinners is the number of SCHED_IDLE spinner processes keeping
	// the CPUs from halting; 0 means wake-ups paid the host's scheduler.
	IdleSpinners int `json:"idle_spinners"`
}

// probeNetioMode wraps a scratch loopback socket the way the transport
// wraps its own and reports the I/O strategy netio selected.
func probeNetioMode() (string, error) {
	u, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return "", err
	}
	defer u.Close()
	nc, err := netio.Wrap(u, netio.Config{})
	if err != nil {
		return "", err
	}
	return nc.Mode().String(), nil
}

func probeEnvironment() (environment, error) {
	mode, err := probeNetioMode()
	if err != nil {
		return environment{}, fmt.Errorf("probe netio mode: %w", err)
	}
	kernel := runtime.GOOS
	if out, err := exec.Command("uname", "-sr").Output(); err == nil {
		kernel = strings.TrimSpace(string(out))
	}
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: kernel, NetioMode: mode,
		Link: "host loopback (127.0.0.1); no real link is crossed",
	}
	if mode != referenceNetioMode {
		for _, v := range []string{netio.NoMmsgEnv, netio.NoGSOEnv} {
			if os.Getenv(v) != "" {
				return env, fmt.Errorf("%s is set and changed the netio mode to %q; the benchmark is defined for %q", v, mode, referenceNetioMode)
			}
		}
		fmt.Fprintf(os.Stderr, "benchmark: netio mode is %q here, %q on the reference box; numbers are not comparable with it\n", mode, referenceNetioMode)
	}
	return env, nil
}

// workloadReport is everything measured for one workload in one set.
type workloadReport struct {
	Workload    string             `json:"workload"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	StepSamples int                `json:"step_samples"`
	Windows     int                `json:"windows"` // the quietest of which gives the two timings
	EndToEnd    map[string]float64 `json:"end_to_end"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	// Trials holds the untraced pass's per-trial values behind the
	// end-to-end medians, for judging the spread inside one run.
	Trials []map[string]float64 `json:"trials"`
	Spans  []spanTotals         `json:"-"`
}

// resultLine is the driver's contract: the last line of standard
// output of a single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *workloadReport) line(traced bool) resultLine {
	defs, vals := endToEnd, r.EndToEnd
	if traced {
		defs, vals = perLayer, r.PerLayer
	}
	l := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		l.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return l
}

// measure runs one workload: the untraced pass, from which every
// end-to-end number comes, and with tr set the traced pass and the
// layer replay as well. A traced run splits its trials between the two
// passes, so that it takes about as long as an untraced one.
func measure(w *workload, o *options, tr *tracer) (*workloadReport, error) {
	if tr != nil {
		half := *o
		half.trials = (o.trials + 1) / 2
		o = &half
	}
	untraced, err := runPass(w, o, nil)
	if err != nil {
		return nil, err
	}
	rep := &workloadReport{
		Workload: w.name, EndToEnd: untraced.endToEndValues(),
		StepSamples: untraced.stepSamples(), Windows: untraced.windowCount(),
	}
	rep.Attempted, rep.Failed = untraced.attempted()
	for i := range untraced.trials {
		one := &pass{w: w, trials: untraced.trials[i : i+1]}
		rep.Trials = append(rep.Trials, one.endToEndValues())
	}
	if tr != nil {
		traced, err := runPass(w, o, tr)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(o.seed))
		replay, err := layerReplay(seededInts(rng, w.sizes[0]), seededFloats(rng, 1<<16), tr)
		if err != nil {
			return nil, err
		}
		rep.Spans = tr.totals()
		rep.PerLayer = perLayerValues(traced, untraced, replay, rep.Spans)
		a, f := traced.attempted()
		rep.Attempted += a
		rep.Failed += f
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

func run(c config, out io.Writer) error {
	if c.seconds <= 0 || c.trials <= 0 || c.repeat <= 0 {
		return errors.New("-seconds, -trials and -repeat must be positive")
	}
	selected := append([]workload(nil), workloads...)
	if c.workload != "all" {
		w := findWorkload(c.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", c.workload)
		}
		selected = []workload{*w}
	}
	o := &options{seed: c.seed, trials: c.trials}
	if c.quick {
		o.trials = 1
		for i := range selected {
			selected[i] = selected[i].scaled(16)
		}
	}
	o.budget = time.Duration(c.seconds / float64(o.trials) * float64(time.Second))
	env, err := probeEnvironment()
	if err != nil {
		return err
	}
	env.IdleSpinners = c.spinners
	traced := c.trace != "0" && c.trace != ""
	tracePath := ""
	if traced && c.trace != "1" {
		tracePath = c.trace
	}
	fmt.Fprintf(out, "switchml benchmark: nproc=%d GOMAXPROCS=%d %s, %s, netio=%s, idle-class spinners=%d\n",
		env.NProc, env.GOMAXPROCS, env.GoVersion, env.Kernel, env.NetioMode, env.IdleSpinners)
	fmt.Fprintf(out, "load: closed loop, one process, %d workers = %d goroutines = %d UDP connections; traffic crosses the %s\n",
		udpWorkers, udpWorkers, udpWorkers, env.Link)
	fmt.Fprintf(out, "seed=%d seconds=%g trials=%d quick=%v traced=%v\n", c.seed, c.seconds, o.trials, c.quick, traced)

	epoch := time.Now()
	var tracers []*tracer
	sets := make([][]*workloadReport, c.repeat)
	for set := range sets {
		for i := range selected {
			w := &selected[i]
			var tr *tracer
			if traced && set == 0 {
				tr = &tracer{epoch: epoch}
				tracers = append(tracers, tr)
			}
			rep, err := measure(w, o, tr)
			if err != nil {
				return err
			}
			sets[set] = append(sets[set], rep)
			printReport(out, rep)
			// The contract line: per-layer metrics on a traced run,
			// end-to-end metrics otherwise.
			line, err := json.Marshal(rep.line(tr != nil))
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%s\n", line)
		}
	}

	if tracePath != "" {
		if err := writeChrome(tracePath, tracers); err != nil {
			return err
		}
	}
	if c.jsonPath != "" {
		if err := writeJSON(c.jsonPath, map[string]any{"environment": env, "seed": c.seed, "seconds": c.seconds, "sets": sets}); err != nil {
			return err
		}
	}
	var failures []string
	for _, set := range sets {
		for _, rep := range set {
			if !rep.Correct {
				failures = append(failures, fmt.Sprintf("%s: %d of %d operations failed or returned a wrong vector", rep.Workload, rep.Failed, rep.Attempted))
			}
		}
	}
	if c.repeat > 1 {
		failures = append(failures, checkRepeat(out, sets)...)
	}
	if len(failures) > 0 {
		return errors.New(strings.Join(failures, "; "))
	}
	return nil
}

func printReport(out io.Writer, rep *workloadReport) {
	fmt.Fprintf(out, "\n== %s  (%d timed steps in %d windows; %d calls attempted, %d failed; failed_ops_ratio=%g)\n",
		rep.Workload, rep.StepSamples, rep.Windows, rep.Attempted, rep.Failed, float64(rep.Failed)/float64(rep.Attempted))
	for _, d := range endToEnd {
		fmt.Fprintf(out, "  %-34s %16.6g %-14s better=%-6s bound=%g%%\n", d.name, rep.EndToEnd[d.name], d.unit, d.better, d.bound*100)
	}
	if rep.PerLayer == nil {
		return
	}
	fmt.Fprintf(out, "  -- per layer (traced pass + layer replay)\n")
	for _, d := range perLayer {
		fmt.Fprintf(out, "  %-38s %16.6g %-14s better=%s\n", d.name, rep.PerLayer[d.name], d.unit, d.better)
	}
	pl := rep.PerLayer
	fmt.Fprintf(out, "  -- reconciliation: layer_sum %.1f + residual %.1f = cpu_ns_per_update_pkt %.1f = ns_per_update_pkt %.1f x cores_busy %.2f\n",
		pl["transport.layer_sum_ns_per_pkt"], pl["transport.residual_ns_per_pkt"], pl["transport.cpu_ns_per_update_pkt"],
		pl["transport.ns_per_update_pkt"], pl["transport.cores_busy"])
	fmt.Fprintf(out, "  -- spans (self = span minus the interval its children cover)\n")
	for _, s := range rep.Spans {
		fmt.Fprintf(out, "  %-38s n=%-7d total=%-14v self=%v\n", s.name, s.count, s.total, s.self)
	}
}

// checkRepeat compares the first and last set: for every end-to-end
// metric and workload it prints the relative worsening against the
// metric's bound and reports the pairs that exceed it.
func checkRepeat(out io.Writer, sets [][]*workloadReport) []string {
	var failures []string
	first, last := sets[0], sets[len(sets)-1]
	fmt.Fprintf(out, "\n== repeatability: set %d against set 1\n", len(sets))
	for i, a := range first {
		b := last[i]
		for _, d := range endToEnd {
			va, vb := a.EndToEnd[d.name], b.EndToEnd[d.name]
			diff := (vb - va) / va
			if d.better == "higher" {
				diff = -diff
			}
			verdict := "ok"
			if diff > d.bound || diff < -d.bound {
				verdict = "EXCEEDS BOUND"
				failures = append(failures, fmt.Sprintf("%s %s differs by %.1f%% between sets (bound %g%%)", a.Workload, d.name, diff*100, d.bound*100))
			}
			fmt.Fprintf(out, "  %-18s %-22s %14.6g -> %-14.6g %+7.2f%% of bound %g%%  %s\n",
				a.Workload, d.name, va, vb, diff*100, d.bound*100, verdict)
		}
	}
	return failures
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
