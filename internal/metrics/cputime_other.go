//go:build !linux

package metrics

import "time"

// threadCPU reports that this platform has no per-thread CPU clock.
func threadCPU() (time.Duration, bool) { return 0, false }
