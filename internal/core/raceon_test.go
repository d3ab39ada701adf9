//go:build race

package core

// raceEnabled reports that the race detector is on. Under it sync.Pool
// deliberately discards a quarter of what is Put, so the packet pool
// allocates and a zero-allocation gate that cycles pooled packets
// cannot hold.
const raceEnabled = true
