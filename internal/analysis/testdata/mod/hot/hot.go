// Package hot seeds hotpath-analyzer violations: each annotated line
// carries a want comment the golden test matches against the
// analyzer's output.
package hot

import (
	"fmt"
	"time"

	"vettest/telemetry"
)

// Sink receives boxed values so boxing sites type-check.
var Sink any

// Table is a package-level map written on the hot path.
var Table = map[string]int{}

// Root is a hot-path root exercising the direct allocation checks.
//
//switchml:hotpath
func Root(n int, s string, dst []byte) []byte {
	buf := make([]byte, n)          // want "make allocates in hot.Root"
	dst = append(dst, buf...)       // want "append may grow its backing array in hot.Root"
	label := s + "!"                // want "string concatenation allocates in hot.Root"
	raw := []byte(label)            // want "conversion string -> \\[\\]byte copies and allocates in hot.Root"
	Sink = n                        // want "assignment boxes int into an interface in hot.Root"
	fmt.Println(label)              // want "fmt.Println allocates in hot.Root"
	Table[label] = n                // want "map write may rehash and allocate in hot.Root"
	p := &point{x: n}               // want "address of composite literal escapes to the heap in hot.Root"
	go tick(p)                      // want "go statement allocates a goroutine in hot.Root" // want "goroutine has no shutdown tie"
	f := func() int { return n }    // want "closure captures n and allocates in hot.Root"
	helper()
	var r ring[int]
	r.push(n)
	return append(raw, byte(f())) // want "append may grow its backing array in hot.Root"
}

// ring is a generic container: a call to a method of an instantiated
// type must still be followed into the generic declaration.
type ring[T any] struct{ items []T }

func (r *ring[T]) push(v T) {
	r.items = append(r.items, v) // want "append may grow its backing array in hot.ring.push \\(on the hot path of hot.Root\\)"
}

type point struct{ x int }

func tick(*point) {}

// helper is reached from Root, so its allocations are on the hot
// path too.
func helper() {
	_ = new(point) // want "new allocates in hot.helper \\(on the hot path of hot.Root\\)"
}

// Reuse is a clean hot-path root: guarded grow fallbacks are
// suppressed with justified allows, and everything else reuses
// capacity.
//
//switchml:hotpath
func Reuse(dst []int32, n int) []int32 {
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		//switchml:allow hotpath -- guarded grow fallback, cold by construction
		dst = make([]int32, n)
	}
	for i := range dst {
		dst[i] = int32(i)
	}
	capFree(func() {}) // capture-free literal: no allocation, no finding
	cold()
	return dst
}

func capFree(f func()) { f() }

// exempted is called from Reuse via cold(); the function-level allow
// keeps the analyzer out of its body entirely.
//
//switchml:allow hotpath -- diagnostics-only path, never taken per packet
func exempted() string {
	return fmt.Sprintf("%d", 42)
}

func cold() { _ = exempted() }

// Stamp is a hot-path root exercising the wall-clock rule: per-packet
// code takes its time from the burst's one clock reading (the burst
// argument here), never from the clock itself.
//
//switchml:hotpath
func Stamp(burst, sent time.Time) int64 {
	now := time.Now()             // want "time.Now reads the wall clock per packet; stamp from the burst's one reading in hot.Stamp"
	rtt := time.Since(sent)       // want "time.Since reads the wall clock per packet; stamp from the burst's one reading in hot.Stamp"
	left := time.Until(sent)      // want "time.Until reads the wall clock per packet; stamp from the burst's one reading in hot.Stamp"
	wall := telemetry.WallClock() // want "telemetry.WallClock reads the wall clock per packet; stamp from the burst's one reading in hot.Stamp"
	//switchml:allow hotpath -- error path: the failure is stamped for the log, once
	failed := time.Now()
	return now.UnixNano() + int64(rtt+left) + wall + failed.UnixNano() + stale(burst).Nanoseconds() + burst.Sub(sent).Nanoseconds()
}

// stale is reached from Stamp, so its clock read is on the hot path.
func stale(burst time.Time) time.Duration {
	return time.Since(burst) // want "time.Since reads the wall clock per packet; stamp from the burst's one reading in hot.stale \\(on the hot path of hot.Stamp\\)"
}
