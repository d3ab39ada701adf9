//go:build !linux

package main

// Idle-class spinners need Linux's SCHED_IDLE; elsewhere the harness
// runs without them and says so in its output.
func spinMain(int) {}

func startSpinners() (int, func()) { return 0, func() {} }
