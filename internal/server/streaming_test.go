package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"gstored"
)

// TestNegotiateMatrix pins Accept-header parsing: media ranges split on
// commas, a q=0 range skipped, other parameters ignored, exact
// media-type match, first acceptable supported range wins, JSON default.
// The substring bug it replaces picked TSV whenever the header merely
// contained the TSV type.
func TestNegotiateMatrix(t *testing.T) {
	cases := []struct {
		accept  string
		format  string // ?format override, usually empty
		wantTSV bool
	}{
		{accept: "", wantTSV: false},
		{accept: ContentTypeTSV, wantTSV: true},
		{accept: ContentTypeJSON, wantTSV: false},
		// The q-param regression: JSON listed first must win even though
		// the raw header contains the TSV media type.
		{accept: "application/sparql-results+json, text/tab-separated-values;q=0.1", wantTSV: false},
		{accept: "text/tab-separated-values;q=0.9, application/sparql-results+json", wantTSV: true},
		{accept: "text/tab-separated-values; q=0.3", wantTSV: true},
		// Weight 0 means "not acceptable" (RFC 9110 §12.4.2): the range is
		// skipped, never chosen.
		{accept: "text/tab-separated-values;q=0, application/sparql-results+json", wantTSV: false},
		{accept: "text/tab-separated-values;q=0", wantTSV: false},
		{accept: "application/json", wantTSV: false},
		{accept: "application/*", wantTSV: false},
		{accept: "*/*", wantTSV: false},
		{accept: "text/*", wantTSV: true},
		// Unsupported types fall through to the JSON default; a type that
		// merely shares a prefix with TSV must not match.
		{accept: "text/html, application/xhtml+xml", wantTSV: false},
		{accept: "text/tab-separated-values-extended", wantTSV: false},
		{accept: "TEXT/TAB-SEPARATED-VALUES", wantTSV: true},
		// Explicit ?format= override beats any Accept header.
		{accept: ContentTypeJSON, format: "tsv", wantTSV: true},
		{accept: ContentTypeTSV, format: "json", wantTSV: false},
	}
	for _, tc := range cases {
		target := "/sparql?query=x"
		if tc.format != "" {
			target += "&format=" + tc.format
		}
		req, _ := http.NewRequest("GET", target, nil)
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		ct, tsv := negotiate(req, req.URL.Query().Get("format"))
		if tsv != tc.wantTSV {
			t.Errorf("negotiate(Accept=%q, format=%q): tsv = %v, want %v", tc.accept, tc.format, tsv, tc.wantTSV)
		}
		wantCT := ContentTypeJSON
		if tc.wantTSV {
			wantCT = ContentTypeTSV
		}
		if ct != wantCT {
			t.Errorf("negotiate(Accept=%q): contentType = %q, want %q", tc.accept, ct, wantCT)
		}
	}
}

// TestTSVEscapesControlCharacters is the column-shift regression: a
// literal containing a raw tab, newline, and quote must serialize as its
// escaped N-Triples form on one line, leaving every later column in
// place.
func TestTSVEscapesControlCharacters(t *testing.T) {
	g := gstored.NewGraph()
	g.Add(gstored.IRI("http://ex/alice"), gstored.IRI("http://ex/note"), gstored.Literal("tab\there\nline\"quote"))
	g.AddIRIs("http://ex/alice", "http://ex/site", "http://ex/home")
	db, err := gstored.Open(g, gstored.Config{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, db, Config{})

	// The hazardous literal is in the FIRST column: if its tab or newline
	// leaked raw, ?x and ?site would shift right or onto another line.
	q := `SELECT ?n ?x ?site WHERE { ?x <http://ex/note> ?n . ?x <http://ex/site> ?site }`
	resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(q) + "&format=tsv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("TSV = %q: want header + 1 row, got %d lines", body, len(lines))
	}
	for i, line := range lines {
		if got := strings.Count(line, "\t"); got != 2 {
			t.Errorf("line %d %q has %d tabs, want 2", i, line, got)
		}
	}
	cells := strings.Split(lines[1], "\t")
	if want := `"tab\there\nline\"quote"`; cells[0] != want {
		t.Errorf("literal cell = %q, want %q", cells[0], want)
	}
	if cells[1] != "<http://ex/alice>" || cells[2] != "<http://ex/home>" {
		t.Errorf("later columns shifted: %q", cells[1:])
	}
}

// TestSingleflightCoalescesIdenticalQueries pins the acceptance
// criterion: N concurrent identical cold queries execute the engine
// exactly once — one leader reports MISS, the waiters COALESCED (or HIT
// if they arrive after the leader cached) — and every client still gets
// the full result.
func TestSingleflightCoalescesIdenticalQueries(t *testing.T) {
	s, ts := newTestServer(t, testDB(t), Config{Workers: 1, MaxInFlight: 32})

	// Park the scheduler's only worker so the leader's engine run cannot
	// start; the remaining identical queries must pile onto its flight.
	started := make(chan struct{})
	release := make(chan struct{})
	go s.sched.Run(context.Background(), func(context.Context) error {
		close(started)
		<-release
		return nil
	})
	<-started

	const n = 6
	type reply struct {
		state    string
		bindings int
		err      error
	}
	replies := make(chan reply, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, doc := getJSONc(ts.URL, knowsChain)
			if resp == nil {
				replies <- reply{err: fmt.Errorf("request failed")}
				return
			}
			replies <- reply{state: resp.Header.Get("X-Cache"), bindings: len(doc.Results.Bindings)}
		}()
	}

	// All requests are in: 1 leader (queued behind the parked worker) and
	// n-1 waiters on its flight. Coalesced counts the waiters as they
	// join, so once it reaches n-1 the engine can safely run.
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.Coalesced.Load() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters coalesced", s.metrics.Coalesced.Load(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	states := map[string]int{}
	for i := 0; i < n; i++ {
		rp := <-replies
		if rp.err != nil {
			t.Fatal(rp.err)
		}
		if rp.bindings != 1 {
			t.Errorf("coalesced reply had %d bindings, want 1", rp.bindings)
		}
		states[rp.state]++
	}
	if states["MISS"] != 1 {
		t.Errorf("X-Cache states = %v, want exactly one MISS", states)
	}
	if states["COALESCED"]+states["HIT"] != n-1 {
		t.Errorf("X-Cache states = %v, want %d COALESCED/HIT", states, n-1)
	}
	if runs := s.metrics.EngineRuns.Load(); runs != 1 {
		t.Errorf("engine executed %d times for %d identical queries, want 1", runs, n)
	}
	if waiters := s.metrics.Coalesced.Load(); waiters != n-1 {
		t.Errorf("coalesced waiters = %d, want %d", waiters, n-1)
	}

	// A later identical query is a plain cache hit, not a new flight.
	resp, _ := getJSONc(ts.URL, knowsChain)
	if resp.Header.Get("X-Cache") != "HIT" {
		t.Errorf("post-flight request: X-Cache = %q, want HIT", resp.Header.Get("X-Cache"))
	}
}

// TestSingleflightSurvivesLeaderDisconnect pins the detached-execution
// rule: once a waiter has coalesced onto a flight, the leader's client
// hanging up must not cancel the shared engine run — the waiter still
// gets the full result.
func TestSingleflightSurvivesLeaderDisconnect(t *testing.T) {
	s, ts := newTestServer(t, testDB(t), Config{Workers: 1, MaxInFlight: 32})

	// Park the only worker so the leader's engine run cannot start yet.
	started := make(chan struct{})
	release := make(chan struct{})
	go s.sched.Run(context.Background(), func(context.Context) error {
		close(started)
		<-release
		return nil
	})
	<-started

	// Leader request on a cancelable context.
	leaderCtx, leaderCancel := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		req, _ := http.NewRequestWithContext(leaderCtx, "GET",
			ts.URL+"/sparql?query="+url.QueryEscape(knowsChain), nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	// Wait until the flight exists, then attach one waiter.
	deadline := time.Now().Add(5 * time.Second)
	for s.flightCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never opened a flight")
		}
		time.Sleep(time.Millisecond)
	}
	waiterReply := make(chan reply1, 1)
	go func() {
		resp, doc := getJSONc(ts.URL, knowsChain)
		if resp == nil {
			waiterReply <- reply1{err: fmt.Errorf("waiter request failed")}
			return
		}
		waiterReply <- reply1{state: resp.Header.Get("X-Cache"), bindings: len(doc.Results.Bindings)}
	}()
	for s.metrics.Coalesced.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never coalesced")
		}
		time.Sleep(time.Millisecond)
	}

	// Leader hangs up; give the cancellation a moment to propagate, then
	// let the engine run.
	leaderCancel()
	<-leaderDone
	time.Sleep(20 * time.Millisecond)
	close(release)

	rp := <-waiterReply
	if rp.err != nil {
		t.Fatal(rp.err)
	}
	if rp.state != "COALESCED" && rp.state != "HIT" {
		t.Errorf("waiter X-Cache = %q, want COALESCED or HIT", rp.state)
	}
	if rp.bindings != 1 {
		t.Errorf("waiter got %d bindings, want 1 (leader disconnect canceled the shared run?)", rp.bindings)
	}
	if runs := s.metrics.EngineRuns.Load(); runs != 1 {
		t.Errorf("engine runs = %d, want 1", runs)
	}
}

type reply1 struct {
	state    string
	bindings int
	err      error
}

// getJSONc is getJSON without the testing.T plumbing, for concurrent use.
func getJSONc(base, query string) (*http.Response, sparqlJSON) {
	var doc sparqlJSON
	resp, err := http.Get(base + "/sparql?query=" + url.QueryEscape(query))
	if err != nil {
		return nil, doc
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		_ = json.Unmarshal(body, &doc)
	}
	return resp, doc
}

// TestCacheBypassOversizedResult pins the row cap: a result larger than
// CacheMaxRows streams to the client (X-Cache: BYPASS), is not stored,
// and therefore re-executes — while a result at the cap is cached.
func TestCacheBypassOversizedResult(t *testing.T) {
	db := testDB(t) // the knows cycle has 3 rows for {?x knows ?y}
	s, ts := newTestServer(t, db, Config{CacheMaxRows: 2})

	big := `SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y }`
	for i := 0; i < 2; i++ {
		resp, doc := getJSONc(ts.URL, big)
		if got := resp.Header.Get("X-Cache"); got != "BYPASS" {
			t.Fatalf("request %d: X-Cache = %q, want BYPASS", i, got)
		}
		if len(doc.Results.Bindings) != 3 {
			t.Fatalf("request %d: got %d bindings, want 3", i, len(doc.Results.Bindings))
		}
	}
	if st := s.CacheStats(); st.Entries != 0 {
		t.Errorf("oversized result was cached: %+v", st)
	}
	if n := s.metrics.EngineRuns.Load(); n != 2 {
		t.Errorf("engine runs = %d, want 2 (bypass never caches)", n)
	}
	if n := s.metrics.CacheBypass.Load(); n != 2 {
		t.Errorf("cache bypasses = %d, want 2", n)
	}

	// A query at the cap (1 row <= 2) is admitted and hits next time.
	small := knowsChain
	if resp, _ := getJSONc(ts.URL, small); resp.Header.Get("X-Cache") != "MISS" {
		t.Fatal("small query should miss first")
	}
	if resp, _ := getJSONc(ts.URL, small); resp.Header.Get("X-Cache") != "HIT" {
		t.Error("small query should hit second")
	}
}

// TestStreamingEmptyAndUnboundJSON exercises the incremental JSON writer
// on its edge shapes: zero rows must still produce a well-formed
// document, and unbound variables are omitted from their binding.
func TestStreamingEmptyAndUnboundJSON(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), Config{})
	resp, doc := getJSON(t, ts.URL, `SELECT ?x WHERE { ?x <http://ex/knows> <http://ex/nobody> }`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(doc.Head.Vars) != 1 || doc.Head.Vars[0] != "x" {
		t.Errorf("vars = %v", doc.Head.Vars)
	}
	if len(doc.Results.Bindings) != 0 {
		t.Errorf("bindings = %v, want none", doc.Results.Bindings)
	}
}

// TestConcurrentMixedQueriesUnderStreaming hammers the new handler path
// from many goroutines mixing hits, misses, bypasses and coalesced
// waiters; run under -race in CI it pins the pipeline's thread safety.
func TestConcurrentMixedQueriesUnderStreaming(t *testing.T) {
	s, ts := newTestServer(t, testDB(t), Config{CacheMaxRows: 2})
	queries := []string{
		knowsChain,
		`SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y }`, // 3 rows: bypass
		`SELECT ?n WHERE { ?c <http://ex/name> ?n }`,
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, _ := getJSONc(ts.URL, queries[(c+i)%len(queries)])
				if resp == nil || resp.StatusCode != http.StatusOK {
					t.Errorf("client %d request %d failed", c, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if errs := s.metrics.Errors.Load(); errs != 0 {
		t.Errorf("errors = %d, want 0", errs)
	}
}
