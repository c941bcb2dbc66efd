package server

// Serving benchmarks over an httptest server on LUBM scale 1, reporting
// queries/sec and bytes allocated per query. BenchmarkWriteJSON compares the streaming serializer against the
// pre-streaming materialize-then-encode baseline (kept below as the
// reference implementation) on an identical 100k-row result.
//
// CI runs these as a -benchtime=1x smoke under -race; the serve-path
// numbers that gate PRs come from BENCHMARK.json's workloads, not from here.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gstored"
	"gstored/internal/engine"
	"gstored/internal/rdf"
)

const ub = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"

// benchEnv is the shared LUBM(1) server, built once per test binary.
var benchEnv struct {
	once sync.Once
	db   *gstored.DB
	srv  *Server
	ts   *httptest.Server
	err  error
}

func benchServer(b *testing.B) (*Server, *httptest.Server) {
	b.Helper()
	benchEnv.once.Do(func() {
		ds := gstored.GenerateLUBM(1)
		db, err := gstored.Open(ds.Graph, gstored.Config{Sites: 4})
		if err != nil {
			benchEnv.err = err
			return
		}
		benchEnv.db = db
		benchEnv.srv = New(db, Config{MaxInFlight: 256, QueryTimeout: 5 * time.Minute})
		benchEnv.ts = httptest.NewServer(benchEnv.srv)
	})
	if benchEnv.err != nil {
		b.Fatal(benchEnv.err)
	}
	return benchEnv.srv, benchEnv.ts
}

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

// BenchmarkServeCachedSmall is the steady-state hot path: a small query
// answered from the result cache.
func BenchmarkServeCachedSmall(b *testing.B) {
	_, ts := benchServer(b)
	q := fmt.Sprintf(`SELECT ?x ?y WHERE { ?x <%sadvisor> ?y }`, ub)
	benchGet(b, ts.URL, q) // prime the cache
	measureLoop(b, func() { benchGet(b, ts.URL, q) })
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

// BenchmarkServeLargeStreaming is the acceptance scenario: a SELECT
// returning >=100k rows streams through the bypass path; bytes/op covers
// engine execution plus serialization with no materialized projected
// copy and no cache retention.
func BenchmarkServeLargeStreaming(b *testing.B) {
	srv, ts := benchServer(b)
	q := largeCrossQuery()
	measureLoop(b, func() { benchGet(b, ts.URL, q) })
	if srv.metrics.CacheBypass.Load() == 0 {
		b.Fatal("large query did not take the bypass path")
	}
}

// getTTFB issues one request and returns the time to the first body
// byte. The serializers flush after the first row, so the
// first byte marks the first delivered row, not just response headers.
func getTTFB(b *testing.B, base, sparql string) time.Duration {
	b.Helper()
	start := time.Now()
	resp, err := http.Get(base + "/sparql?query=" + url.QueryEscape(sparql))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	var one [1]byte
	if _, err := resp.Body.Read(one[:]); err != nil && err != io.EOF {
		b.Fatal(err)
	}
	ttfb := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	return ttfb
}

// BenchmarkServeTTFB is the tentpole's headline number: time-to-first-
// byte on the >=100k-row cross query, ordered (default: the engine
// materializes and canonically sorts everything before the serializer
// starts) versus unordered first-row-early delivery (rows stream from
// the final cross product as they are merged). Both paths execute the
// engine every op (the result exceeds the cache row cap; unordered never
// caches), so the delta is purely the delivery mode.
func BenchmarkServeTTFB(b *testing.B) {
	run := func(b *testing.B, base string) {
		var ttfbSum time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ttfbSum += getTTFB(b, base, largeCrossQuery())
		}
		b.StopTimer()
		b.ReportMetric(float64(ttfbSum.Nanoseconds())/float64(b.N), "ttfb-ns/op")
	}
	b.Run("ordered", func(b *testing.B) {
		_, ts := benchServer(b)
		run(b, ts.URL)
	})
	b.Run("unordered", func(b *testing.B) {
		benchServer(b) // ensure the shared LUBM(1) db exists
		srv := New(benchEnv.db, Config{MaxInFlight: 256, QueryTimeout: 5 * time.Minute, Unordered: true})
		ts := httptest.NewServer(srv)
		defer func() {
			ts.Close()
			srv.Close()
		}()
		run(b, ts.URL)
	})
}

// BenchmarkServeTracing measures the observability overhead: the same
// cached-hit and cold distributed-query workloads against a default
// server (tracing off) and one with the slow-query log wide open
// (threshold 0, discard sink) — the configuration under which every
// request allocates a trace, records every span, and marshals one JSON
// record. A cache hit does no engine work, so the cached pair has the
// least room to hide tracing cost.
func BenchmarkServeTracing(b *testing.B) {
	benchServer(b) // ensure the shared LUBM(1) db exists
	cachedQ := fmt.Sprintf(`SELECT ?x ?y WHERE { ?x <%sadvisor> ?y }`, ub)
	// A distributed non-star query (no vertex common to all patterns), so
	// the cold pair clocks the full partial-evaluation pipeline with
	// per-site spans and fragment attribution.
	coldQ := fmt.Sprintf(`SELECT ?x ?y ?z ?w WHERE { ?x <%sadvisor> ?y . ?y <%sworksFor> ?z . ?w <%smemberOf> ?z }`, ub, ub, ub)

	newServer := func(cfg Config) (*httptest.Server, func()) {
		cfg.MaxInFlight = 256
		cfg.QueryTimeout = 5 * time.Minute
		srv := New(benchEnv.db, cfg)
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

// shapeQueries are the three structural classes of the per-shape serve
// benchmark: a star (fast path, center-owned dedup), a chain that runs
// full distributed partial evaluation, and the large disconnected cross
// product (the tentpole's cold acceptance scenario).
func shapeQueries() map[string]string {
	return map[string]string{
		"star":  fmt.Sprintf(`SELECT ?x ?y ?z WHERE { ?x <%sadvisor> ?y . ?x <%smemberOf> ?z }`, ub, ub),
		"path":  fmt.Sprintf(`SELECT ?x ?y ?z ?w WHERE { ?x <%sadvisor> ?y . ?y <%sworksFor> ?z . ?w <%smemberOf> ?z }`, ub, ub, ub),
		"cross": largeCrossQuery(),
	}
}

// BenchmarkServeCold measures each query shape cold (cache disabled:
// every op runs the engine and streams) and warm (primed cache with an
// uncapped row limit: every op is a hit).
func BenchmarkServeCold(b *testing.B) {
	benchServer(b) // ensure the shared LUBM(1) db exists
	newServer := func(cfg Config) (*httptest.Server, func()) {
		cfg.MaxInFlight = 256
		cfg.QueryTimeout = 5 * time.Minute
		srv := New(benchEnv.db, cfg)
		ts := httptest.NewServer(srv)
		return ts, func() { ts.Close(); srv.Close() }
	}
	for shape, q := range shapeQueries() {
		b.Run("cold_"+shape, func(b *testing.B) {
			ts, done := newServer(Config{CacheEntries: -1})
			defer done()
			measureLoop(b, func() { benchGet(b, ts.URL, q) })
		})
		b.Run("warm_"+shape, func(b *testing.B) {
			// CacheMaxRows negative lifts the row cap so even the 168k-row
			// cross product warms into the cache.
			ts, done := newServer(Config{CacheMaxRows: -1})
			defer done()
			benchGet(b, ts.URL, q) // prime
			measureLoop(b, func() { benchGet(b, ts.URL, q) })
		})
	}
}

// BenchmarkUpdate measures write throughput end to end over HTTP: each
// op POSTs one INSERT DATA batch and one DELETE DATA batch of
// updateBatch triples against a live writable LUBM(1) server, so the
// database returns to its baseline every op and the steady state clocks
// exactly the write path — parse, net-delta, incremental index, touched-
// fragment rebuild, generation swap, cache flush. A separate server is
// used so epoch bumps don't flush the shared benchmark server's cache.
func BenchmarkUpdate(b *testing.B) {
	const updateBatch = 64
	ds := gstored.GenerateLUBM(1)
	db, err := gstored.Open(ds.Graph, gstored.Config{Sites: 4})
	if err != nil {
		b.Fatal(err)
	}
	srv := New(db, Config{MaxInFlight: 256, QueryTimeout: 5 * time.Minute, Writable: true})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	var ins, del strings.Builder
	ins.WriteString("INSERT DATA {\n")
	del.WriteString("DELETE DATA {\n")
	for i := 0; i < updateBatch; i++ {
		t := fmt.Sprintf("<http://ex/bench/s%d> <%sadvisor> <http://ex/bench/o%d> .\n", i, ub, i%9)
		ins.WriteString(t)
		del.WriteString(t)
	}
	ins.WriteString("}")
	del.WriteString("}")
	post := func(body string) {
		resp, err := http.Post(ts.URL+"/sparql", "application/sparql-update", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			b.Fatalf("status %d: %s", resp.StatusCode, msg)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
	}
	// Warm once so new-vertex dictionary/assignment growth is out of the
	// steady state, then verify the cycle really reverts.
	post(ins.String())
	post(del.String())
	baseline := db.NumTriples()
	ns := measureLoop(b, func() {
		post(ins.String())
		post(del.String())
	})
	if db.NumTriples() != baseline {
		b.Fatalf("update cycle drifted: %d triples, want %d", db.NumTriples(), baseline)
	}
	tps := float64(2*updateBatch) / (ns / float64(time.Second))
	b.ReportMetric(tps, "triples/sec")
}

// synthResult builds an n-row, 3-var materialized row set for the
// serializer-only comparison.
func synthResult(n int) (*rdf.Dictionary, []string, []engine.Row) {
	dict := rdf.NewDictionary()
	ids := make([]rdf.TermID, 100)
	for i := range ids {
		ids[i] = dict.Encode(rdf.NewIRI(fmt.Sprintf("http://ex/entity/%d", i)))
	}
	rows := make([]engine.Row, n)
	for i := range rows {
		rows[i] = engine.Row{ids[i%100], ids[(i*7)%100], ids[(i*13)%100]}
	}
	return dict, []string{"s", "p", "o"}, rows
}

// BenchmarkWriteJSON is the before/after of the tentpole at the
// serializer layer: identical 100k-row results through the streaming
// writer versus the pre-streaming materialize-then-encode baseline.
func BenchmarkWriteJSON(b *testing.B) {
	dict, vars, rows := synthResult(100_000)
	b.Run("streaming", func(b *testing.B) {
		measureLoop(b, func() {
			if err := WriteResultsJSON(io.Discard, dict, vars, SliceSeq(rows)); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("materialized", func(b *testing.B) {
		measureLoop(b, func() {
			if err := writeResultsJSONMaterialized(io.Discard, dict, vars, rows); err != nil {
				b.Fatal(err)
			}
		})
	})
}

// BenchmarkWriteTSV measures the streaming TSV writer on the same rows.
func BenchmarkWriteTSV(b *testing.B) {
	dict, vars, rows := synthResult(100_000)
	measureLoop(b, func() {
		if err := WriteResultsTSV(io.Discard, dict, vars, SliceSeq(rows)); err != nil {
			b.Fatal(err)
		}
	})
}

// writeResultsJSONMaterialized is the pre-streaming serializer, kept as
// the benchmark baseline: it builds the entire SPARQL JSON document —
// one map per row — and encodes it in a single shot.
func writeResultsJSONMaterialized(w io.Writer, dict *rdf.Dictionary, vars []string, rows []engine.Row) error {
	type results struct {
		Bindings []map[string]jsonTerm `json:"bindings"`
	}
	doc := struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results results `json:"results"`
	}{}
	doc.Head.Vars = vars
	doc.Results.Bindings = make([]map[string]jsonTerm, 0, len(rows))
	for _, row := range rows {
		binding := make(map[string]jsonTerm, len(vars))
		for i, name := range vars {
			if i >= len(row) || row[i] == rdf.NoTerm {
				continue
			}
			t, ok := dict.Decode(row[i])
			if !ok {
				return fmt.Errorf("server: row references unknown term ID %d", row[i])
			}
			binding[name] = termJSON(t)
		}
		doc.Results.Bindings = append(doc.Results.Bindings, binding)
	}
	return json.NewEncoder(w).Encode(doc)
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
