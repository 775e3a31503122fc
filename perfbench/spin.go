package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// keepCPUsAwake runs one busy loop per CPU at the SCHED_IDLE policy
// until the returned function is called. The benchmark runs on small
// virtual machines: an idle vCPU halts, and waking it for the next
// request costs a trip through the hypervisor whose delay depends on
// the neighbours' load, which then dominates the latency of a
// sub-millisecond request and varies run to run. A SCHED_IDLE thread
// only ever gets CPU time nothing else wants, and the kernel preempts
// it at once when a daemon or generator thread wakes, so it keeps the
// vCPUs from halting without taking time from the system under test.
// The spinners sit on extra GOMAXPROCS slots so they never hold a P a
// generator goroutine needs.
func keepCPUsAwake() func() {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) + n)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Never unlocked: the thread carries the idle policy and
			// exits with this goroutine.
			runtime.LockOSThread()
			const schedIdle = 5
			var param struct{ priority int32 }
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
				return // without the idle policy a spinner would compete; do without
			}
			for !stop.Load() {
			}
		}()
	}
	return func() {
		stop.Store(true)
		wg.Wait()
		runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) - n)
	}
}
