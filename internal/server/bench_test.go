package server

// BenchmarkServeTracing is the one serving benchmark BENCHMARK.json does
// not supersede: no workload there runs with the slow-query log armed,
// so this is the only in-tree measurement of what attaching a trace to
// every request costs (ROADMAP item 9 replaces it with a paired-run
// budget). CI runs it as a -benchtime=1x smoke under -race. Every other
// serve-path number comes from BENCHMARK.json's workloads, except the
// serializer's own cost (BenchmarkSerialize, termtable_test.go); the
// paths those benchmarks drove stay under -race through the tests named
// in CHANGES.md (PR 17).

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"testing"
	"time"

	"gstored"
)

const ub = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"

// measureLoop runs fn b.N times, measuring wall time and heap allocation
// across the loop (client and server share the process, so bytes/op is
// the full request round trip).
func measureLoop(b *testing.B, fn func()) (nsPerOp float64) {
	b.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
	b.StopTimer()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(b.N)
	b.ReportMetric(n/elapsed.Seconds(), "queries/sec")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "alloc-bytes/query")
	return float64(elapsed.Nanoseconds()) / n
}

func benchGet(b *testing.B, base, sparql string) {
	b.Helper()
	resp, err := http.Get(base + "/sparql?query=" + url.QueryEscape(sparql))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		b.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
}

// largeCrossQuery multiplies four disconnected patterns into 168,885
// rows on LUBM(1) — beyond the default 65,536-row cache cap, so every
// request takes the streaming BYPASS path.
func largeCrossQuery() string {
	return fmt.Sprintf(`SELECT ?a ?b ?c ?d ?e ?f ?g ?h WHERE {
		?a <%stakesCourse> ?b .
		?c <%sname> ?d .
		?e <%ssubOrganizationOf> ?f .
		?g <%sheadOf> ?h }`, ub, ub, ub, ub)
}

// largeCrossRows is largeCrossQuery's row count on the deterministic
// LUBM(1) generator; TestLargeCrossQueryStreams re-derives it from a
// direct engine run so drift fails loudly.
const largeCrossRows = 168885

// BenchmarkServeTracing measures the observability overhead: the same
// cached-hit and cold distributed-query workloads against a default
// server (tracing off) and one with the slow-query log wide open
// (threshold 0, discard sink) — the configuration under which every
// request allocates a trace, records every span, and marshals one JSON
// record. A cache hit does no engine work, so the cached pair has the
// least room to hide tracing cost.
func BenchmarkServeTracing(b *testing.B) {
	ds := gstored.GenerateLUBM(1)
	db, err := gstored.Open(ds.Graph, gstored.Config{Sites: 4})
	if err != nil {
		b.Fatal(err)
	}
	cachedQ := fmt.Sprintf(`SELECT ?x ?y WHERE { ?x <%sadvisor> ?y }`, ub)
	// A distributed non-star query (no vertex common to all patterns), so
	// the cold pair clocks the full partial-evaluation pipeline with
	// per-site spans and fragment attribution.
	coldQ := fmt.Sprintf(`SELECT ?x ?y ?z ?w WHERE { ?x <%sadvisor> ?y . ?y <%sworksFor> ?z . ?w <%smemberOf> ?z }`, ub, ub, ub)

	newServer := func(cfg Config) (*httptest.Server, func()) {
		cfg.MaxInFlight = 256
		cfg.QueryTimeout = 5 * time.Minute
		srv := New(db, cfg)
		ts := httptest.NewServer(srv)
		return ts, func() { ts.Close(); srv.Close() }
	}
	// The operational tracing config: traces attached to every request,
	// slow-log armed with a threshold fast queries never reach — so the
	// hit path pays trace allocation and span recording but no JSON
	// marshal. Threshold 0 (log every query) is measured separately: it
	// is a diagnosis/CI knob, not a steady-state config.
	traced := Config{SlowQueryLog: io.Discard, SlowQueryThreshold: 250 * time.Millisecond}
	logAll := Config{SlowQueryLog: io.Discard}

	b.Run("cached_off", func(b *testing.B) {
		ts, done := newServer(Config{})
		defer done()
		benchGet(b, ts.URL, cachedQ) // prime
		measureLoop(b, func() { benchGet(b, ts.URL, cachedQ) })
	})
	b.Run("cached_on", func(b *testing.B) {
		ts, done := newServer(traced)
		defer done()
		benchGet(b, ts.URL, cachedQ)
		measureLoop(b, func() { benchGet(b, ts.URL, cachedQ) })
	})
	b.Run("cached_log_all", func(b *testing.B) {
		ts, done := newServer(logAll)
		defer done()
		benchGet(b, ts.URL, cachedQ)
		measureLoop(b, func() { benchGet(b, ts.URL, cachedQ) })
	})
	b.Run("cold_off", func(b *testing.B) {
		ts, done := newServer(Config{CacheEntries: -1})
		defer done()
		measureLoop(b, func() { benchGet(b, ts.URL, coldQ) })
	})
	b.Run("cold_on", func(b *testing.B) {
		ts, done := newServer(Config{CacheEntries: -1, SlowQueryLog: io.Discard})
		defer done()
		measureLoop(b, func() { benchGet(b, ts.URL, coldQ) })
	})
}

// TestLargeCrossQueryStreams pins the large-result serve path outside
// benchmark runs: >=100k rows, HTTP 200, BYPASS, and a sane row count.
func TestLargeCrossQueryStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("large result; skipped in -short")
	}
	ds := gstored.GenerateLUBM(1)
	db, err := gstored.Open(ds.Graph, gstored.Config{Sites: 4})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := db.Query(largeCrossQuery())
	if err != nil {
		t.Fatal(err)
	}
	if direct.Len() < 100_000 {
		t.Fatalf("cross query returns %d rows, want >=100k for the streaming scenario", direct.Len())
	}
	if direct.Len() != largeCrossRows {
		t.Errorf("cross query rows = %d; update largeCrossRows (%d)", direct.Len(), largeCrossRows)
	}
	s, ts := newTestServer(t, db, Config{QueryTimeout: 5 * time.Minute})
	resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(largeCrossQuery()) + "&format=tsv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "BYPASS" {
		t.Errorf("X-Cache = %q, want BYPASS", got)
	}
	lines := 0
	buf := make([]byte, 1<<16)
	for {
		n, err := resp.Body.Read(buf)
		for _, c := range buf[:n] {
			if c == '\n' {
				lines++
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if want := direct.Len() + 1; lines != want { // header + rows
		t.Errorf("streamed %d lines, want %d", lines, want)
	}
	if st := s.CacheStats(); st.Entries != 0 {
		t.Errorf("large result retained in cache: %+v", st)
	}
}
