package gstored

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"
)

// probeQuery shares no variable between its two patterns: on LUBM(32),
// 4,448 name triples make a 19.8 M-row cross product, far past the
// engine's held-data budget under ordered delivery.
var probeQuery = fmt.Sprintf(`SELECT * WHERE { ?a <%sname> ?b . ?c <%sname> ?d }`, ubPrefix, ubPrefix)

// TestBudgetStopsTheProbe runs the probe in process and over two loopback
// workers: each fails with ErrBudget, not a cancellation, within a second
// and 256 MB of allocation, and the database answers the next query as
// before, with no goroutine left behind.
func TestBudgetStopsTheProbe(t *testing.T) {
	ds := GenerateLUBM(32)
	addrs, _ := startWorkers(t, 2)
	baseline := runtime.NumGoroutine()
	local, err := Open(ds.Graph, Config{Sites: 4})
	if err != nil {
		t.Fatal(err)
	}
	wired, err := Open(ds.Graph, Config{Sites: 4, Workers: addrs})
	if err != nil {
		t.Fatal(err)
	}
	// The race detector slows the cross product's loop about eightfold.
	limit := time.Second
	if raceEnabled() {
		limit *= 10
	}
	next := fmt.Sprintf(`SELECT * WHERE { ?a <%sname> ?b }`, ubPrefix)
	want, err := local.Query(next)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		db   *DB
	}{{"in-process", local}, {"two workers", wired}} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, err := c.db.Query(probeQuery)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBudget) || errors.Is(err, context.Canceled) {
			t.Fatalf("%s: probe error = %v, want ErrBudget", c.name, err)
		}
		if wall > limit {
			t.Errorf("%s: probe failed after %v, want within %v", c.name, wall, limit)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 256<<20 {
			t.Errorf("%s: probe allocated %d MB, want at most 256", c.name, alloc>>20)
		}
		got, err := c.db.Query(next)
		if err != nil {
			t.Fatalf("%s: next query: %v", c.name, err)
		}
		if !slices.EqualFunc(got.Rows, want.Rows, slices.Equal[Row]) {
			t.Errorf("%s: next query answered %d rows, want the %d before the probe", c.name, got.Len(), want.Len())
		}
	}
	if err := wired.Close(); err != nil {
		t.Fatal(err)
	}
	checkGoroutines(t, baseline)
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
