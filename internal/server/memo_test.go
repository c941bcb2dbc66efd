package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"gstored/internal/trace"
)

// serveText sends one request straight to the handler and returns the
// recorder. A POST carries text as an application/sparql-query body;
// rawQuery is the URL's query either way.
func serveText(s *Server, method, rawQuery, text, accept string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, "/sparql?"+rawQuery, strings.NewReader(text))
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/sparql-query")
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// bindings counts a JSON answer's rows.
func bindings(t *testing.T, w *httptest.ResponseRecorder) int {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var doc sparqlJSON
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON (%s): %v", w.Body, err)
	}
	return len(doc.Results.Bindings)
}

// TestMemoHitAllocations pins what a repeated cached GET costs through
// the handler: the memo hands it its parsed query and table key, so it
// decodes no URL, parses nothing and builds no key (96 allocations
// before the memo).
func TestMemoHitAllocations(t *testing.T) {
	s, _ := newTestServer(t, testDB(t), Config{})
	req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(knowsChain), nil)
	w := &discardResponse{header: http.Header{}}
	s.ServeHTTP(w, req)
	allocs := testing.AllocsPerRun(50, func() { s.ServeHTTP(w, req) })
	if got := w.header.Get("X-Cache"); got != string(cacheHit) {
		t.Fatalf("repeated GET answered X-Cache %q, want %q", got, cacheHit)
	}
	if st := s.CacheStats(); st.MemoHits < 50 {
		t.Fatalf("%d memo hits over 50 repeats", st.MemoHits)
	}
	t.Logf("memo hit: %.0f allocations", allocs)
	if allocs > 48 {
		t.Errorf("a repeated cached GET costs %.0f allocations, want at most 48", allocs)
	}
}

// TestMemoSeesInsertedConstant is the memo's exactness rule: a text
// naming a constant the data lacks parses to a placeholder, is not
// memoized, and so sees the constant once an INSERT adds it.
func TestMemoSeesInsertedConstant(t *testing.T) {
	s, _ := newTestServer(t, testDB(t), Config{Writable: true})
	raw := "query=" + url.QueryEscape(`SELECT ?x WHERE { ?x <http://ex/knows> <http://ex/dave> }`)
	for i := range 2 {
		if n := bindings(t, serveText(s, http.MethodGet, raw, "", "")); n != 0 {
			t.Fatalf("request %d before the insert: %d rows, want 0", i, n)
		}
	}
	if st := s.CacheStats(); st.MemoHits != 0 {
		t.Fatalf("a parse holding a placeholder was memoized: %d memo hits", st.MemoHits)
	}
	req := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(`INSERT DATA { <http://ex/erin> <http://ex/knows> <http://ex/dave> }`))
	req.Header.Set("Content-Type", "application/sparql-update")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("update status %d: %s", w.Code, w.Body)
	}
	// Another read moves the table to the new epoch first, so the repeat
	// below takes the memo's path rather than parsing because it found
	// the table behind.
	serveText(s, http.MethodGet, "query="+url.QueryEscape(knowsChain), "", "")
	for i, want := range []string{"MISS", "HIT"} {
		w := serveText(s, http.MethodGet, raw, "", "")
		if n := bindings(t, w); n != 1 || w.Header().Get("X-Cache") != want {
			t.Errorf("request %d after the insert: %d rows, X-Cache %q; want 1 row, %s", i, n, w.Header().Get("X-Cache"), want)
		}
	}
	if st := s.CacheStats(); st.MemoHits != 1 {
		t.Errorf("%d memo hits, want 1: the resolved parse is memoized", st.MemoHits)
	}
}

// TestMemoHitNegotiates checks that a memo hit answers in the format its
// own request asks for: ?format= is part of the memoized text, and the
// Accept header is negotiated on every request.
func TestMemoHitNegotiates(t *testing.T) {
	s, _ := newTestServer(t, testDB(t), Config{})
	raw := "query=" + url.QueryEscape(knowsChain)
	cases := []struct {
		method, rawQuery, body, accept, want string
	}{
		{http.MethodGet, raw + "&format=tsv", "", "", ContentTypeTSV},
		{http.MethodGet, raw + "&format=json", "", ContentTypeTSV, ContentTypeJSON},
		{http.MethodGet, raw, "", ContentTypeTSV, ContentTypeTSV},
		{http.MethodGet, raw, "", ContentTypeJSON, ContentTypeJSON},
		{http.MethodGet, raw, "", "", ContentTypeJSON},
		{http.MethodPost, "", knowsChain, ContentTypeTSV, ContentTypeTSV},
		{http.MethodPost, "format=tsv", knowsChain, "", ContentTypeTSV},
		{http.MethodPost, "", knowsChain, "", ContentTypeJSON},
	}
	for _, tc := range cases {
		serveText(s, tc.method, tc.rawQuery, tc.body, tc.accept) // memoizes the text, or hits
		before := s.CacheStats().MemoHits
		w := serveText(s, tc.method, tc.rawQuery, tc.body, tc.accept)
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != string(cacheHit) || s.CacheStats().MemoHits != before+1 {
			t.Errorf("%s %q Accept %q: status %d, X-Cache %q, memo hits %d → %d; want a memo hit",
				tc.method, tc.rawQuery, tc.accept, w.Code, w.Header().Get("X-Cache"), before, s.CacheStats().MemoHits)
		}
		if ct := w.Header().Get("Content-Type"); ct != tc.want {
			t.Errorf("%s %q Accept %q: Content-Type %q, want %q", tc.method, tc.rawQuery, tc.accept, ct, tc.want)
		}
	}
	// Texts that canonicalize alike share one table entry.
	if st := s.CacheStats(); st.Entries != 1 {
		t.Errorf("%d resident entries, want 1", st.Entries)
	}
}

// TestMemoKeepsParseSpan checks the observability of a memoized text: a
// memo hit's slow-log line still has a parse span (timing the lookup),
// and an EXPLAIN of the text, which is never memoized, parses and
// reports it.
func TestMemoKeepsParseSpan(t *testing.T) {
	sink := &syncBuffer{}
	s, _ := newTestServer(t, testDB(t), Config{SlowQueryLog: sink})
	raw := "query=" + url.QueryEscape(pathQuery)
	for range 2 {
		serveText(s, http.MethodGet, raw, "", "")
	}
	if st := s.CacheStats(); st.MemoHits != 1 {
		t.Fatalf("%d memo hits, want 1", st.MemoHits)
	}
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	var hit SlowQueryRecord
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &hit); err != nil {
		t.Fatal(err)
	}
	if hit.Outcome != "hit" || parseSpans(hit.Trace) != 1 {
		t.Errorf("memo hit's slow-log line: outcome %q, trace %+v; want a hit with one parse span", hit.Outcome, hit.Trace)
	}

	w := serveText(s, http.MethodGet, "explain=1&"+raw, "", "")
	var rep ExplainReport
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatalf("explain (%d): %v", w.Code, err)
	}
	if n := parseSpans(rep.Trace); n != 1 {
		t.Errorf("EXPLAIN of a memoized text: %d parse spans, want 1", n)
	}
}

func parseSpans(spans []trace.Span) (n int) {
	for _, sp := range spans {
		if sp.Stage == "parse" {
			n++
		}
	}
	return n
}

// TestMemoSharedQueryUnderUpdates runs memo hits of two renamed texts of
// one query beside updates that keep changing its answer (run it under
// -race). Every update moves the epoch, so requests lead engine runs on
// the one memoized query graph while others serve from it: the engine
// and the serializers must only read it.
func TestMemoSharedQueryUnderUpdates(t *testing.T) {
	s, _ := newTestServer(t, testDB(t), Config{Writable: true})
	texts := []string{
		"query=" + url.QueryEscape(knowsChain),
		"query=" + url.QueryEscape(strings.ReplaceAll(knowsChain, "?y", "?mid")),
	}
	const workers, reads, updates = 4, 40, 10
	var wg sync.WaitGroup
	errs := make(chan error, workers*reads)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range reads {
				rec := serveText(s, http.MethodGet, texts[(w+i)%2], "", "")
				var doc sparqlJSON
				if err := json.Unmarshal(rec.Body.Bytes(), &doc); rec.Code != http.StatusOK || err != nil {
					errs <- fmt.Errorf("status %d: %s", rec.Code, rec.Body)
					continue
				}
				// dave->carol, present after every odd update, is the second row.
				if n := len(doc.Results.Bindings); n != 1 && n != 2 {
					errs <- fmt.Errorf("%d rows, want 1 or 2", n)
				}
			}
		}()
	}
	for i := range updates {
		op := "INSERT"
		if i%2 == 1 {
			op = "DELETE"
		}
		req := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(op+` DATA { <http://ex/dave> <http://ex/knows> <http://ex/carol> }`))
		req.Header.Set("Content-Type", "application/sparql-update")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("update %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := s.CacheStats(); st.MemoHits == 0 {
		t.Error("no request was a memo hit")
	}
}
