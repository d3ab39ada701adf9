package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps spans in memory for the traced pass. A nil *tracer is
// the tracing-off state: every method returns at once, so the untraced
// pass runs the same harness code with no span recorded.
//
// Spans are recorded from the benchmark's own files, around the calls
// into each layer; spans inside the program are a later change.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int32

	mu    sync.Mutex
	spans []span
}

// span is one timed interval. parent is the id of the span that caused
// it (0 for a root); all spans of one step share the root's label.
type span struct {
	name       string
	label      string // workload/trial/step on roots, "" elsewhere
	id, parent int32
	tid        int32
	start, dur int64 // ns since the tracer's epoch
}

// open is a started, not yet finished span.
type open struct {
	span
	t0 time.Time
}

// Thread ids in the trace file: the harness, one per worker goroutine,
// one per worker's Session goroutine, and the layer replay.
const (
	tidHarness = 0
	tidWorker  = 1  // + worker index
	tidSession = 11 // + worker index
	tidReplay  = 99
)

func (t *tracer) start(name string, parent int32, tid int) open {
	if t == nil {
		return open{}
	}
	return open{span: span{name: name, id: t.nextID.Add(1), parent: parent, tid: int32(tid)}, t0: time.Now()}
}

func (t *tracer) startRoot(name, label string, tid int) open {
	o := t.start(name, 0, tid)
	o.label = label
	return o
}

// finish records the span.
func (t *tracer) finish(o open) {
	if t == nil {
		return
	}
	o.dur = int64(time.Since(o.t0))
	o.start = int64(o.t0.Sub(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, o.span)
	t.mu.Unlock()
}

// spanTotals is the per-name roll-up of a trace.
type spanTotals struct {
	name  string
	count int
	total time.Duration
	// self is total minus the part of each span's interval that its
	// child spans cover (children running in parallel count once).
	self time.Duration
}

// totals computes duration and self time per span name.
func (t *tracer) totals() []spanTotals {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.start + s.dur})
		}
	}
	byName := make(map[string]*spanTotals)
	for _, s := range spans {
		st := byName[s.name]
		if st == nil {
			st = &spanTotals{name: s.name}
			byName[s.name] = st
		}
		st.count++
		st.total += time.Duration(s.dur)
		st.self += time.Duration(s.dur - covered(children[s.id], s.start, s.start+s.dur))
	}
	out := make([]spanTotals, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	end := lo
	for _, v := range iv {
		a, b := v[0], v[1]
		if a < end {
			a = end
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += b - a
			end = b
		}
	}
	return sum
}

// total returns the summed duration of every span with the given name.
func total(ts []spanTotals, name string) time.Duration {
	for _, t := range ts {
		if t.name == name {
			return t.total
		}
	}
	return 0
}

// writeChrome writes the tracers' spans as Chrome trace-event JSON
// (load it in chrome://tracing or ui.perfetto.dev).
func writeChrome(path string, tracers []*tracer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int32          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var events []event
	for pid, t := range tracers {
		t.mu.Lock()
		for _, s := range t.spans {
			args := map[string]any{"id": s.id, "parent": s.parent}
			if s.label != "" {
				args["step"] = s.label
			}
			events = append(events, event{
				Name: s.name, Ph: "X", Pid: pid + 1, Tid: s.tid, Args: args,
				Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3,
			})
		}
		t.mu.Unlock()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
