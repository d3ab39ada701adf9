//go:build race

package rack

// raceEnabled reports that the race detector is on. Under it
// sync.Pool deliberately discards a quarter of what is Put, so the
// packet pool allocates and the zero-allocation gate cannot hold, and
// the single-threaded golden matrix runs ten times slower for nothing.
const raceEnabled = true
