//go:build !unix

package gstored

import (
	"testing"
	"time"
)

var processStart = time.Now()

// cpuTime falls back to the wall time since the test binary started
// where the process's CPU time cannot be read.
func cpuTime(*testing.T) time.Duration { return time.Since(processStart) }
