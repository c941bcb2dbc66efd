package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"gstored"
)

// testDB builds a three-site database over a small social graph.
func testDB(t *testing.T) *gstored.DB {
	t.Helper()
	g := gstored.NewGraph()
	g.AddIRIs("http://ex/alice", "http://ex/knows", "http://ex/bob")
	g.AddIRIs("http://ex/bob", "http://ex/knows", "http://ex/carol")
	g.AddIRIs("http://ex/carol", "http://ex/knows", "http://ex/alice")
	g.Add(gstored.IRI("http://ex/carol"), gstored.IRI("http://ex/name"), gstored.LangLiteral("Carol", "en"))
	db, err := gstored.Open(g, gstored.Config{Sites: 3})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func newTestServer(t *testing.T, db *gstored.DB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(db, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// sparqlJSON is the SPARQL 1.1 JSON results document shape.
type sparqlJSON struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []map[string]struct {
			Type     string `json:"type"`
			Value    string `json:"value"`
			Lang     string `json:"xml:lang"`
			Datatype string `json:"datatype"`
		} `json:"bindings"`
	} `json:"results"`
}

func getJSON(t *testing.T, base, query string) (*http.Response, sparqlJSON) {
	t.Helper()
	resp, err := http.Get(base + "/sparql?query=" + url.QueryEscape(query))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var doc sparqlJSON
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("bad JSON (%s): %v", body, err)
		}
	}
	return resp, doc
}

const knowsChain = `SELECT ?x ?n WHERE { ?x <http://ex/knows> ?y . ?y <http://ex/name> ?n }`

func TestSparqlGetJSON(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), Config{})
	resp, doc := getJSON(t, ts.URL, knowsChain)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeJSON {
		t.Errorf("Content-Type = %q", ct)
	}
	if resp.Header.Get("X-Cache") != "MISS" {
		t.Errorf("first request should be a MISS, got %q", resp.Header.Get("X-Cache"))
	}
	if len(doc.Head.Vars) != 2 || doc.Head.Vars[0] != "x" || doc.Head.Vars[1] != "n" {
		t.Errorf("vars = %v", doc.Head.Vars)
	}
	if len(doc.Results.Bindings) != 1 {
		t.Fatalf("bindings = %v", doc.Results.Bindings)
	}
	b := doc.Results.Bindings[0]
	if b["x"].Type != "uri" || b["x"].Value != "http://ex/bob" {
		t.Errorf("x = %+v", b["x"])
	}
	if b["n"].Type != "literal" || b["n"].Value != "Carol" || b["n"].Lang != "en" {
		t.Errorf("n = %+v", b["n"])
	}
}

func TestCacheHitOnVariableRenamedQuery(t *testing.T) {
	s, ts := newTestServer(t, testDB(t), Config{})
	if resp, _ := getJSON(t, ts.URL, knowsChain); resp.Header.Get("X-Cache") != "MISS" {
		t.Fatal("first request should miss")
	}
	renamed := `SELECT ?who ?label WHERE { ?who <http://ex/knows> ?mid . ?mid <http://ex/name> ?label }`
	resp, doc := getJSON(t, ts.URL, renamed)
	if resp.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("renamed variant should hit, got %q", resp.Header.Get("X-Cache"))
	}
	// The hit is served under the submitted query's variable names.
	if len(doc.Head.Vars) != 2 || doc.Head.Vars[0] != "who" || doc.Head.Vars[1] != "label" {
		t.Errorf("vars = %v", doc.Head.Vars)
	}
	b := doc.Results.Bindings[0]
	if b["who"].Value != "http://ex/bob" || b["label"].Value != "Carol" {
		t.Errorf("binding = %v", b)
	}
	st := s.CacheStats()
	if st.Hits != 1 || st.Misses < 1 {
		t.Errorf("cache stats = %+v", st)
	}
}

func TestSparqlPostForms(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), Config{})
	resp, err := http.PostForm(ts.URL+"/sparql", url.Values{"query": {knowsChain}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("form POST status = %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/sparql", "application/sparql-query", strings.NewReader(knowsChain))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("raw POST status = %d", resp.StatusCode)
	}
}

func TestSparqlTSV(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), Config{})
	req, _ := http.NewRequest("GET", ts.URL+"/sparql?query="+url.QueryEscape(knowsChain), nil)
	req.Header.Set("Accept", ContentTypeTSV)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeTSV {
		t.Errorf("Content-Type = %q", ct)
	}
	want := "?x\t?n\n<http://ex/bob>\t\"Carol\"@en\n"
	if string(body) != want {
		t.Errorf("TSV = %q, want %q", body, want)
	}
}

func TestSparqlErrors(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), Config{})
	cases := []struct {
		name string
		do   func() (*http.Response, error)
		want int
	}{
		{"missing query", func() (*http.Response, error) { return http.Get(ts.URL + "/sparql") }, http.StatusBadRequest},
		{"syntax error", func() (*http.Response, error) {
			return http.Get(ts.URL + "/sparql?query=" + url.QueryEscape("SELECT WHERE"))
		}, http.StatusBadRequest},
		{"bad method", func() (*http.Response, error) {
			req, _ := http.NewRequest("DELETE", ts.URL+"/sparql", nil)
			return http.DefaultClient.Do(req)
		}, http.StatusMethodNotAllowed},
		{"bad content type", func() (*http.Response, error) {
			return http.Post(ts.URL+"/sparql", "application/xml", strings.NewReader("x"))
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

func TestAdmissionControlSheds503(t *testing.T) {
	s, ts := newTestServer(t, testDB(t), Config{MaxInFlight: 1, Workers: 1})
	// Occupy the scheduler's only slot with a blocking task so the next
	// HTTP query is shed deterministically.
	started := make(chan struct{})
	release := make(chan struct{})
	go s.sched.Run(context.Background(), func(context.Context) error {
		close(started)
		<-release
		return nil
	})
	<-started
	defer close(release)

	resp, _ := getJSON(t, ts.URL, knowsChain)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 should carry Retry-After")
	}
	if n := s.metrics.Rejected.Load(); n != 1 {
		t.Errorf("rejected counter = %d", n)
	}
}

func TestQueryTimeout504(t *testing.T) {
	s, ts := newTestServer(t, testDB(t), Config{QueryTimeout: time.Nanosecond})
	resp, _ := getJSON(t, ts.URL, knowsChain)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if n := s.metrics.Timeouts.Load(); n != 1 {
		t.Errorf("timeout counter = %d", n)
	}
}

// TestQueryOverBudget422 sends the probe, two name patterns that share no
// variable and make a 19.8 M-row cross product on LUBM(32): it fails the
// engine's held-data budget with 422 and its own counter, counts as no
// server error, and leaves nothing resident in the result table.
func TestQueryOverBudget422(t *testing.T) {
	db, err := gstored.Open(gstored.GenerateLUBM(32).Graph, gstored.Config{Sites: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, db, Config{})
	probe := fmt.Sprintf(`SELECT * WHERE { ?a <%sname> ?b . ?c <%sname> ?d }`, ub, ub)
	resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(probe))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
	metrics := scrapeMetrics(t, ts.URL)
	for name, want := range map[string]string{
		"gstored_query_budget_exceeded_total": "1",
		"gstored_query_errors_total":          "0",
		"gstored_cache_entries":               "0",
	} {
		if got := metricValue(t, metrics, name); got != want {
			t.Errorf("%s = %s, want %s", name, got, want)
		}
	}
	if n := s.results.stats().Entries; n != 0 {
		t.Errorf("%d entries resident after the failed query", n)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), Config{})
	if _, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(knowsChain)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" || health["sites"] != float64(3) {
		t.Errorf("healthz = %v", health)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{
		"gstored_queries_total 1",
		"gstored_cache_misses_total 1",
		"gstored_cache_entries 1",
		"gstored_stage_seconds_total{stage=\"partial\"}",
		"gstored_queries_inflight 0",
	} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("metrics missing %q in:\n%s", metric, body)
		}
	}
}

// TestUnknownConstantQuery pins the read-only parse path: querying for a
// term absent from the data returns an empty result set and must not
// grow the shared dictionary (a client could otherwise leak server
// memory one constant per request).
func TestUnknownConstantQuery(t *testing.T) {
	db := testDB(t)
	_, ts := newTestServer(t, db, Config{})
	before := db.Graph.Dict.Len()
	for i := 0; i < 3; i++ {
		q := fmt.Sprintf(`SELECT ?x WHERE { ?x <http://ex/knows> <http://junk/nobody%d> }`, i)
		resp, doc := getJSON(t, ts.URL, q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if len(doc.Results.Bindings) != 0 {
			t.Errorf("unknown constant matched %v", doc.Results.Bindings)
		}
	}
	if after := db.Graph.Dict.Len(); after != before {
		t.Errorf("dictionary grew from %d to %d terms", before, after)
	}
}

func TestCacheDisabled(t *testing.T) {
	s, ts := newTestServer(t, testDB(t), Config{CacheEntries: -1})
	for i := 0; i < 2; i++ {
		resp, _ := getJSON(t, ts.URL, knowsChain)
		if resp.Header.Get("X-Cache") != "MISS" {
			t.Fatalf("request %d: caching disabled but got %q", i, resp.Header.Get("X-Cache"))
		}
	}
	if st := s.CacheStats(); st != (CacheStats{}) {
		t.Errorf("disabled cache stats = %+v", st)
	}
}

// discardResponse is a ResponseWriter that keeps only its header map, so
// a handler's allocations can be counted without a recorder's.
type discardResponse struct{ header http.Header }

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// TestCachedGetDecodesQueryOnce pins the single decode of a request's URL
// query: every /sparql parameter reader (requestText, negotiate,
// explainRequested) shares one decode, which a cache hit pays too. So
// padding a repeated cached GET's URL with parameters the server ignores
// costs the handler what one url.ParseQuery spends on them, not a
// multiple of it.
func TestCachedGetDecodesQueryOnce(t *testing.T) {
	s, _ := newTestServer(t, testDB(t), Config{})
	raw := "query=" + url.QueryEscape(knowsChain)
	var pad strings.Builder
	for i := range 32 {
		fmt.Fprintf(&pad, "&pad%d=a+b", i)
	}
	padded := raw + pad.String()
	serve := func(rawQuery string) float64 {
		req := httptest.NewRequest(http.MethodGet, "/sparql?"+rawQuery, nil)
		w := &discardResponse{header: http.Header{}}
		s.ServeHTTP(w, req)
		allocs := testing.AllocsPerRun(50, func() { s.ServeHTTP(w, req) })
		if got := w.header.Get("X-Cache"); got != string(cacheHit) {
			t.Fatalf("repeated GET answered X-Cache %q, want %q", got, cacheHit)
		}
		return allocs
	}
	var sink url.Values
	decode := testing.AllocsPerRun(50, func() { sink, _ = url.ParseQuery(padded) }) -
		testing.AllocsPerRun(50, func() { sink, _ = url.ParseQuery(raw) })
	_ = sink
	plain, more := serve(raw), serve(padded)
	t.Logf("cached GET: %.0f allocations; the padding adds %.0f, one decode of it %.0f", plain, more-plain, decode)
	if more-plain > 1.5*decode {
		t.Errorf("the padding costs a cached GET %.0f allocations, %.1f decodes' worth (one decode: %.0f)", more-plain, (more-plain)/decode, decode)
	}
}
