// Package telemetry stands in for the module's wall-clock helper: the
// hotpath analyzer reports a call to WallClock where it is made and
// does not descend into it.
package telemetry

import "time"

// WallClock returns wall-clock nanoseconds.
func WallClock() int64 { return time.Now().UnixNano() }
