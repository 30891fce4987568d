package main

import (
	"syscall"
	"unsafe"
)

// cpuNow reads the process CPU clock (CLOCK_PROCESS_CPUTIME_ID) in
// nanoseconds: the CPU time of all the process's threads. The end-to-end
// timings use it rather than the wall clock because on a virtual machine
// the hypervisor steals the CPU in bursts, and stolen time counts toward
// wall time but not toward the process CPU clock. On the 2-vCPU machine the
// bounds were set on, steal reached 40% of wall time and swung wall-clock
// throughput by 12–36% between runs of the same code.
func cpuNow() int64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error()) // Linux supports it since 2.6.12
	}
	return ts.Nano()
}
