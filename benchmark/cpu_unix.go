//go:build unix

package main

import (
	"syscall"
	"time"
)

// processCPU returns the CPU time (user + system) this process has
// consumed so far, on all threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
