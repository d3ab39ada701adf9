//go:build !unix

package main

import "time"

// processCPU is unavailable here; the CPU rows of the traced pass read 0.
func processCPU() time.Duration { return 0 }
