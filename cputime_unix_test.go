//go:build unix

package gstored

import (
	"syscall"
	"testing"
	"time"
)

// cpuTime reports the user and system CPU time this process has spent.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
