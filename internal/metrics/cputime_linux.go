//go:build linux

package metrics

import (
	"syscall"
	"time"
	"unsafe"
)

// threadCPU reads the calling OS thread's CPU clock.
func threadCPU() (time.Duration, bool) {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, false
	}
	return time.Duration(ts.Nano()), true
}
