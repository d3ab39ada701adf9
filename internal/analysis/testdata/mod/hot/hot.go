// Package hot seeds hotpath-analyzer violations: each annotated line
// carries a want comment the golden test matches against the
// analyzer's output.
package hot

import "fmt"

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
