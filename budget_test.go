package gstored

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"
)

// probeQuery shares no variable between its two patterns: on LUBM(32),
// 4,448 name triples make a 19.8 M-row cross product, far past the
// engine's held-data budget under ordered delivery.
var probeQuery = fmt.Sprintf(`SELECT * WHERE { ?a <%sname> ?b . ?c <%sname> ?d }`, ubPrefix, ubPrefix)

// TestBudgetStopsTheProbe runs the probe in process and over two loopback
// workers: each fails with ErrBudget, not a cancellation, within a second
// of the process's CPU time and 256 MB of allocation, and the database
// answers the next query as before, with no goroutine left behind. CPU
// time, not wall time, is bounded because other packages' tests share the
// machine under go test ./...; a wall-clock guard at the race detector's
// allowance still catches a stall.
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
	limit, stall := time.Second, 10*time.Second
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
		start, startCPU := time.Now(), cpuTime(t)
		_, err := c.db.Query(probeQuery)
		wall, cpu := time.Since(start), cpuTime(t)-startCPU
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBudget) || errors.Is(err, context.Canceled) {
			t.Fatalf("%s: probe error = %v, want ErrBudget", c.name, err)
		}
		t.Logf("%s: probe took %v of CPU time, %v of wall time", c.name, cpu, wall)
		if cpu > limit || wall > stall {
			t.Errorf("%s: probe failed after %v of CPU time and %v of wall time, want within %v and %v", c.name, cpu, wall, limit, stall)
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

// pathProbe joins three patterns with open labels along a path: on
// LUBM(32) over 12 sites its 378,210 partial matches assemble into
// 1,011,266 crossing matches, 1,015,684 rows in all, and every row is
// held by the ordered sink, so ordered delivery overruns the budget.
const (
	pathProbe     = `SELECT * WHERE { ?x ?p ?y . ?z ?q ?y . ?z ?r ?w }`
	pathProbeRows = 1015684
)

// TestPathProbeHoldsNoRow runs the path probe streamed and ordered.
// Streamed, it answers every row at a peak heap of at most 400 MB,
// sampled every 5 ms, and its first crossing row leaves from inside the
// closure walk: no complete combination and no assembled row is kept.
// Ordered, in process and over two loopback workers, it fails with
// ErrBudget, not a cancellation, after at most 512 MB of allocation.
func TestPathProbeHoldsNoRow(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's shadow memory and slowdown void the heap bounds")
	}
	ds := GenerateLUBM(32)
	local, err := Open(ds.Graph, Config{Sites: 12})
	if err != nil {
		t.Fatal(err)
	}
	q, err := local.Parse(pathProbe)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var peak uint64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			peak = max(peak, m.HeapAlloc)
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	rows, fromWalk := 0, false
	_, err = local.QueryGraphStreamContext(context.Background(), q, func(Row) bool {
		rows++
		if !fromWalk {
			pcs := make([]uintptr, 64)
			frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
			for more := true; more && !fromWalk; {
				var f runtime.Frame
				f, more = frames.Next()
				fromWalk = strings.Contains(f.Function, "gstored/internal/lec.Walk")
			}
		}
		return true
	})
	close(stop)
	<-sampled
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("streamed: %d rows, peak heap %d MB", rows, peak>>20)
	if rows != pathProbeRows {
		t.Errorf("streamed %d rows, want %d", rows, pathProbeRows)
	}
	if peak > 400<<20 {
		t.Errorf("streamed at a peak heap of %d MB, want at most 400", peak>>20)
	}
	if !fromWalk {
		t.Error("no row left from inside lec.Walk: the walk finished before assembly emitted")
	}

	addrs, _ := startWorkers(t, 2)
	wired, err := Open(ds.Graph, Config{Sites: 12, Workers: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer wired.Close()
	for _, c := range []struct {
		name string
		db   *DB
	}{{"in-process", local}, {"two workers", wired}} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, err := c.db.Query(pathProbe)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s ordered: %v after %v, %d MB allocated", c.name, err, wall, alloc>>20)
		if !errors.Is(err, ErrBudget) || errors.Is(err, context.Canceled) {
			t.Errorf("%s: ordered probe error = %v, want ErrBudget", c.name, err)
		}
		if alloc > 512<<20 {
			t.Errorf("%s: ordered probe allocated %d MB, want at most 512", c.name, alloc>>20)
		}
	}
}
