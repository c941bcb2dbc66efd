package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"testing"
	"time"

	"gstored"
)

// TestUnorderedServeConformance drives the -unordered serve path over a
// small database: DISTINCT dedups, LIMIT bounds, the X-Cache header
// reports STREAM, and nothing is admitted to the result cache.
func TestUnorderedServeConformance(t *testing.T) {
	g := gstored.NewGraph()
	for s, o := range map[string]string{"a1": "b", "a2": "b", "a3": "c", "a4": "c", "a5": "c"} {
		g.AddIRIs("http://ex/"+s, "http://ex/knows", "http://ex/"+o)
	}
	db, err := gstored.Open(g, gstored.Config{Sites: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, db, Config{Unordered: true})

	for _, c := range []struct {
		query string
		want  int
	}{
		{`SELECT ?y WHERE { ?x <http://ex/knows> ?y }`, 5},
		{`SELECT DISTINCT ?y WHERE { ?x <http://ex/knows> ?y }`, 2},
		{`SELECT DISTINCT ?y WHERE { ?x <http://ex/knows> ?y } LIMIT 1`, 1},
		{`SELECT ?y WHERE { ?x <http://ex/knows> ?y } LIMIT 2 OFFSET 4`, 1},
		{`SELECT ?y WHERE { ?x <http://ex/knows> ?y } LIMIT 0`, 0},
	} {
		resp, doc := getJSONc(ts.URL, c.query)
		if resp == nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("query %q failed", c.query)
		}
		if got := resp.Header.Get("X-Cache"); got != "STREAM" {
			t.Errorf("query %q: X-Cache = %q, want STREAM", c.query, got)
		}
		if len(doc.Results.Bindings) != c.want {
			t.Errorf("query %q: %d bindings, want %d", c.query, len(doc.Results.Bindings), c.want)
		}
	}
	// Streamed responses are never materialized, so nothing can be cached.
	if st := s.CacheStats(); st.Entries != 0 {
		t.Errorf("unordered serving populated the cache: %+v", st)
	}
	// A distinct query emitted a set drawn from {b, c}.
	_, doc := getJSONc(ts.URL, `SELECT DISTINCT ?y WHERE { ?x <http://ex/knows> ?y }`)
	var vals []string
	for _, b := range doc.Results.Bindings {
		vals = append(vals, b["y"].Value)
	}
	sort.Strings(vals)
	if fmt.Sprint(vals) != fmt.Sprint([]string{"http://ex/b", "http://ex/c"}) {
		t.Errorf("distinct values = %v", vals)
	}
}

// TestUnorderedLimitStreamsEarly is the acceptance scenario: LIMIT 10 on
// a ≥100k-row LUBM query under -unordered ships bounded bytes and
// cancels the engine's remaining work, observable through the
// early-termination counter and the engine row counters (10 rows
// produced, not 168,885).
func TestUnorderedLimitStreamsEarly(t *testing.T) {
	if testing.Short() {
		t.Skip("LUBM build; skipped in -short")
	}
	ds := gstored.GenerateLUBM(1)
	db, err := gstored.Open(ds.Graph, gstored.Config{Sites: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, db, Config{Unordered: true, QueryTimeout: 5 * time.Minute})

	q := largeCrossQuery() + " LIMIT 10"
	resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "STREAM" {
		t.Errorf("X-Cache = %q, want STREAM", got)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// 10 rows of 8 IRI bindings each serialize to a few KB; the full
	// 168,885-row answer is tens of MB. A loose 64 KiB ceiling proves the
	// response was bounded by the LIMIT, not the result size.
	if len(body) > 64<<10 {
		t.Errorf("LIMIT 10 response is %d bytes; the limit did not bound the stream", len(body))
	}
	var doc sparqlJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("response is not valid JSON (truncated stream?): %v", err)
	}
	if len(doc.Results.Bindings) != 10 {
		t.Errorf("bindings = %d, want 10", len(doc.Results.Bindings))
	}
	if n := s.metrics.EarlyStops.Load(); n != 1 {
		t.Errorf("gstored_early_terminations_total = %d, want 1 (engine kept running past the limit?)", n)
	}
	if n := s.metrics.EngineRuns.Load(); n != 1 {
		t.Errorf("engine runs = %d, want 1", n)
	}
	if n := s.metrics.Matches.Load(); n != 10 {
		t.Errorf("gstored_matches_total = %d, want 10 — the engine materialized more than the limit", n)
	}
}

// TestUnorderedFirstRowBeforeCompletion pins first-row-early delivery at
// the HTTP layer: on the large cross query, the first body bytes arrive
// while the engine execution is still in flight (the engine-run counter
// has not yet been bumped, which happens only after the stream ends).
func TestUnorderedFirstRowBeforeCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("LUBM build; skipped in -short")
	}
	ds := gstored.GenerateLUBM(1)
	db, err := gstored.Open(ds.Graph, gstored.Config{Sites: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, db, Config{Unordered: true, QueryTimeout: 5 * time.Minute})

	resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(largeCrossQuery()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read one byte: with first-row flushing this returns as soon as the
	// first row is serialized, strictly before the engine finishes the
	// remaining ~168k rows (EngineRuns is only incremented afterwards).
	var b [1]byte
	if _, err := resp.Body.Read(b[:]); err != nil {
		t.Fatal(err)
	}
	if n := s.metrics.EngineRuns.Load(); n != 0 {
		t.Errorf("first byte arrived only after the engine completed (EngineRuns=%d)", n)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
}

// TestUnorderedFailureBeforeFirstRowGetsRealStatus pins the deferred
// commit: an execution that dies before producing any row must still
// reach the client as a real HTTP error, not as a well-formed empty
// result document claiming success.
func TestUnorderedFailureBeforeFirstRowGetsRealStatus(t *testing.T) {
	s, ts := newTestServer(t, testDB(t), Config{Unordered: true, QueryTimeout: time.Nanosecond})
	resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(knowsChain))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d (body %q), want 504 — a pre-first-row failure must not masquerade as an empty 200", resp.StatusCode, body)
	}
	if n := s.metrics.Timeouts.Load(); n != 1 {
		t.Errorf("timeouts = %d, want 1", n)
	}
}

// TestFailQueryClassifiesClientDisconnect pins the disconnect/error
// split: context.Canceled is the client's own fault and must count in
// gstored_client_disconnects_total, leaving the error counter — the one
// operator dashboards page on — untouched. Server faults still count as
// errors, deadlines as timeouts.
func TestFailQueryClassifiesClientDisconnect(t *testing.T) {
	s, _ := newTestServer(t, testDB(t), Config{})

	s.failQuery(httptest.NewRecorder(), context.Canceled)
	if got := s.metrics.ClientDisconnects.Load(); got != 1 {
		t.Errorf("client disconnects = %d, want 1", got)
	}
	if got := s.metrics.Errors.Load(); got != 0 {
		t.Errorf("errors = %d after a client disconnect, want 0 (dashboards would page)", got)
	}

	s.failQuery(httptest.NewRecorder(), fmt.Errorf("disk on fire"))
	if got := s.metrics.Errors.Load(); got != 1 {
		t.Errorf("errors = %d after a server fault, want 1", got)
	}

	s.failQuery(httptest.NewRecorder(), context.DeadlineExceeded)
	if got := s.metrics.Timeouts.Load(); got != 1 {
		t.Errorf("timeouts = %d, want 1", got)
	}
	if got := s.metrics.ClientDisconnects.Load(); got != 1 {
		t.Errorf("client disconnects = %d after unrelated failures, want still 1", got)
	}
}

// TestClientDisconnectCountedOnLiveQuery drives a real disconnect: the
// client hangs up while its uncontended query is queued behind a parked
// worker; the server must record a disconnect, not an error.
func TestClientDisconnectCountedOnLiveQuery(t *testing.T) {
	s, ts := newTestServer(t, testDB(t), Config{Workers: 1, MaxInFlight: 8})

	// Park the only worker so the query cannot start.
	started := make(chan struct{})
	release := make(chan struct{})
	go s.sched.Run(context.Background(), func(context.Context) error {
		close(started)
		<-release
		return nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequestWithContext(ctx, "GET",
			ts.URL+"/sparql?query="+url.QueryEscape(knowsChain), nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	// Wait for the request to open its flight, then hang up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.flightCount() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("query never opened a flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	// Give the server a moment to observe the closed connection (the
	// request context cancels asynchronously), then free the worker: it
	// dequeues the query, finds its (detached but disconnect-cancelled)
	// context expired, and fails it without running.
	time.Sleep(50 * time.Millisecond)
	close(release)

	for s.metrics.ClientDisconnects.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("disconnect not recorded (errors=%d)", s.metrics.Errors.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.metrics.Errors.Load(); got != 0 {
		t.Errorf("errors = %d after a pure client disconnect, want 0", got)
	}
}
