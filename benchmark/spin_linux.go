//go:build linux

package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"unsafe"
)

// The reference box is a 2-vCPU guest on a shared host. The UDP
// workloads keep 1.3-1.5 cores busy, so a vCPU goes idle thousands of
// times a second; an idle vCPU halts, and waking a halted vCPU is a
// trip through the host's scheduler whose cost follows the host's load,
// not the program's. Measured here, that alone moved udp_smallstep's
// median step by 45 % between runs of the same code and udp_bulk's by
// 18 %. The harness therefore does what one does to a benchmark machine
// with C-states: it keeps the CPUs from idling. One child process per
// CPU spins on a thread in the SCHED_IDLE class, which the kernel runs
// only when the CPU has nothing else to do and preempts at once when
// it has, so the program under test loses no cycles to it and every
// wake-up stays inside the guest.

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

type cpuSet [16]uint64 // 1024 CPUs, the kernel's default cpu_set_t

// spinMain is the child: a thread pinned to the index-th CPU this
// process may run on drops to SCHED_IDLE and spins until standard input
// closes (the parent holds the other end, so the child cannot outlive
// it). It never spins at normal priority: any failure exits instead.
func spinMain(index int) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runtime.LockOSThread()
		if err := enterIdleClass(index); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: idle spinner:", err)
			os.Exit(1)
		}
		os.Stdout.Write([]byte{'+'}) // tells the parent this CPU no longer idles
		for {
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	io.Copy(io.Discard, os.Stdin)
	close(done)
	wg.Wait()
}

// enterIdleClass pins the calling thread to the index-th allowed CPU
// and moves it to the SCHED_IDLE class.
func enterIdleClass(index int) error {
	var allowed cpuSet
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return fmt.Errorf("sched_getaffinity: %w", e)
	}
	cpu := -1
	for c, seen := 0, 0; c < len(allowed)*64 && cpu < 0; c++ {
		if allowed[c/64]&(1<<(c%64)) != 0 {
			if seen == index {
				cpu = c
			}
			seen++
		}
	}
	if cpu < 0 {
		return fmt.Errorf("no CPU number %d in the affinity mask", index)
	}
	var one cpuSet
	one[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	var priority int32 // sched_param: must be 0 for SCHED_IDLE
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&priority))); e != 0 {
		return fmt.Errorf("sched_setscheduler: %w", e)
	}
	return nil
}

// startSpinners starts one idle-class spinner per CPU, waits until each
// is spinning or has given up, and returns how many are spinning and a
// function that stops them and waits for each to end.
func startSpinners() (n int, stop func()) {
	exe, err := os.Executable()
	if err != nil {
		return 0, func() {}
	}
	type child struct {
		cmd   *exec.Cmd
		stdin io.WriteCloser
	}
	var children []child
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(exe, "-"+spinFlag, strconv.Itoa(i))
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			continue
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			continue
		}
		if err := cmd.Start(); err != nil {
			continue
		}
		if _, err := io.ReadFull(stdout, make([]byte, 1)); err != nil {
			cmd.Wait() // it could not enter the idle class and has exited
			continue
		}
		children = append(children, child{cmd, stdin})
	}
	return len(children), func() {
		for _, c := range children {
			c.stdin.Close()
			c.cmd.Process.Kill()
		}
		for _, c := range children {
			c.cmd.Wait()
		}
	}
}
