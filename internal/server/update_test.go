package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"

	"gstored"
	"gstored/internal/remote"
)

// postUpdate sends text as an application/sparql-update body.
func postUpdate(t *testing.T, base, text string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/sparql", "application/sparql-update", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	doc := map[string]any{}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("bad update response (%s): %v", body, err)
		}
	}
	return resp, doc
}

func TestUpdateRequiresWritable(t *testing.T) {
	db := testDB(t)
	_, ts := newTestServer(t, db, Config{})
	e0 := db.Epoch()
	resp, _ := postUpdate(t, ts.URL, `INSERT DATA { <http://ex/x> <http://ex/knows> <http://ex/alice> }`)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("read-only update status = %d, want 403", resp.StatusCode)
	}
	if db.Epoch() != e0 || db.NumTriples() != 4 {
		t.Error("read-only server mutated the database")
	}
	// The form variant is refused the same way.
	fresp, err := http.PostForm(ts.URL+"/sparql", url.Values{"update": {`INSERT DATA { <http://ex/x> <http://ex/knows> <http://ex/alice> }`}})
	if err != nil {
		t.Fatal(err)
	}
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusForbidden {
		t.Errorf("form update status = %d, want 403", fresp.StatusCode)
	}
}

// TestUpdateInvalidatesCache is the acceptance-criteria scenario: a
// cached query re-executes after INSERT DATA (epoch advanced, X-Cache
// MISS) and reflects the new triple; after DELETE DATA the triple is
// gone again.
func TestUpdateInvalidatesCache(t *testing.T) {
	db := testDB(t)
	srv, ts := newTestServer(t, db, Config{Writable: true, CacheEntries: 64})

	if resp, _ := getJSON(t, ts.URL, knowsChain); resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("first run X-Cache = %q", resp.Header.Get("X-Cache"))
	}
	resp, doc := getJSON(t, ts.URL, knowsChain)
	if resp.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("second run X-Cache = %q, want HIT", resp.Header.Get("X-Cache"))
	}
	if len(doc.Results.Bindings) != 1 {
		t.Fatalf("pre-update bindings = %v", doc.Results.Bindings)
	}

	// dave->carol adds a second (x, n) result row for the chain query.
	uresp, udoc := postUpdate(t, ts.URL, `INSERT DATA { <http://ex/dave> <http://ex/knows> <http://ex/carol> }`)
	if uresp.StatusCode != http.StatusOK {
		t.Fatalf("update status = %d", uresp.StatusCode)
	}
	if udoc["inserted"] != float64(1) || udoc["deleted"] != float64(0) {
		t.Errorf("update response = %v", udoc)
	}

	resp, doc = getJSON(t, ts.URL, knowsChain)
	if resp.Header.Get("X-Cache") != "MISS" {
		t.Errorf("post-insert X-Cache = %q, want MISS (epoch advanced)", resp.Header.Get("X-Cache"))
	}
	if len(doc.Results.Bindings) != 2 {
		t.Fatalf("post-insert bindings = %v, want bob and dave", doc.Results.Bindings)
	}
	// The insert changed the cached answer, so revalidation dropped the
	// entry; an update the revalidation can follow flushes nothing whole.
	if dropped := srv.metrics.CacheRevalidated[revalidationDropped].Load(); dropped != 1 {
		t.Errorf("revalidation dropped %d entries, want the changed one", dropped)
	}
	if flushes := srv.metrics.CacheFlushes.Load(); flushes != 0 {
		t.Errorf("update flushed the cache %d times; revalidation should have crossed it", flushes)
	}

	if resp, _ := getJSON(t, ts.URL, knowsChain); resp.Header.Get("X-Cache") != "HIT" {
		t.Errorf("repeat post-insert X-Cache = %q, want HIT under the new epoch", resp.Header.Get("X-Cache"))
	}

	if uresp, _ := postUpdate(t, ts.URL, `DELETE DATA { <http://ex/dave> <http://ex/knows> <http://ex/carol> }`); uresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", uresp.StatusCode)
	}
	resp, doc = getJSON(t, ts.URL, knowsChain)
	if resp.Header.Get("X-Cache") != "MISS" {
		t.Errorf("post-delete X-Cache = %q, want MISS", resp.Header.Get("X-Cache"))
	}
	if len(doc.Results.Bindings) != 1 {
		t.Fatalf("post-delete bindings = %v, want bob only", doc.Results.Bindings)
	}
}

// TestUpdateNoopKeepsCacheWarm: an update that changes nothing must not
// advance the epoch, so cached entries keep serving.
func TestUpdateNoopKeepsCacheWarm(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), Config{Writable: true, CacheEntries: 64})
	getJSON(t, ts.URL, knowsChain) // prime
	if resp, _ := postUpdate(t, ts.URL, `INSERT DATA { <http://ex/alice> <http://ex/knows> <http://ex/bob> }`); resp.StatusCode != http.StatusOK {
		t.Fatalf("no-op update status = %d", resp.StatusCode)
	}
	if resp, _ := getJSON(t, ts.URL, knowsChain); resp.Header.Get("X-Cache") != "HIT" {
		t.Errorf("X-Cache after no-op update = %q, want HIT (epoch unchanged)", resp.Header.Get("X-Cache"))
	}
}

func TestUpdateViaForm(t *testing.T) {
	db := testDB(t)
	_, ts := newTestServer(t, db, Config{Writable: true})
	resp, err := http.PostForm(ts.URL+"/sparql", url.Values{"update": {`INSERT DATA { <http://ex/erin> <http://ex/knows> <http://ex/alice> }`}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("form update status = %d", resp.StatusCode)
	}
	if db.NumTriples() != 5 {
		t.Errorf("NumTriples = %d, want 5", db.NumTriples())
	}
	// query= and update= together are ambiguous.
	resp, err = http.PostForm(ts.URL+"/sparql", url.Values{
		"query":  {knowsChain},
		"update": {`INSERT DATA { <http://ex/a> <http://ex/b> <http://ex/c> }`},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("query+update status = %d, want 400", resp.StatusCode)
	}
}

func TestUpdateBadRequests(t *testing.T) {
	db := testDB(t)
	srv, ts := newTestServer(t, db, Config{Writable: true})
	e0 := db.Epoch()
	for _, text := range []string{
		``,
		`SELECT ?x WHERE { ?x <http://ex/knows> ?y }`,
		`INSERT DATA { ?x <http://ex/knows> <http://ex/alice> }`,
		`DELETE WHERE { <http://ex/a> <http://ex/b> <http://ex/c> }`,
	} {
		resp, _ := postUpdate(t, ts.URL, text)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("update %q status = %d, want 400", text, resp.StatusCode)
		}
	}
	if db.Epoch() != e0 {
		t.Error("bad updates advanced the epoch")
	}
	if got := srv.metrics.Updates.Load(); got != 0 {
		t.Errorf("gstored_updates_total = %d after only failures", got)
	}
}

// TestUpdateFormBodyCapped: the form encoding gets the same 1 MiB body
// cap as a direct application/sparql-update body — switching encodings
// must not buy a 10x larger mutation.
func TestUpdateFormBodyCapped(t *testing.T) {
	db := testDB(t)
	_, ts := newTestServer(t, db, Config{Writable: true})
	big := `INSERT DATA { <http://ex/a> <http://ex/p> "` + strings.Repeat("x", 2<<20) + `" }`
	resp, err := http.PostForm(ts.URL+"/sparql", url.Values{"update": {big}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized form update status = %d, want 400", resp.StatusCode)
	}
	if db.NumTriples() != 4 {
		t.Error("oversized form update mutated the database")
	}
}

func TestUpdateMetrics(t *testing.T) {
	srv, ts := newTestServer(t, testDB(t), Config{Writable: true})
	postUpdate(t, ts.URL, `INSERT DATA { <http://ex/u1> <http://ex/p> <http://ex/u2> . <http://ex/u2> <http://ex/p> <http://ex/u3> }`)
	postUpdate(t, ts.URL, `DELETE DATA { <http://ex/u1> <http://ex/p> <http://ex/u2> }`)
	if got := srv.metrics.Updates.Load(); got != 2 {
		t.Errorf("updates = %d, want 2", got)
	}
	if got := srv.metrics.TriplesInserted.Load(); got != 2 {
		t.Errorf("inserted = %d, want 2", got)
	}
	if got := srv.metrics.TriplesDeleted.Load(); got != 1 {
		t.Errorf("deleted = %d, want 1", got)
	}
	m := scrapeMetrics(t, ts.URL)
	for metric, want := range map[string]string{
		"gstored_updates_total":          "2",
		"gstored_triples_inserted_total": "2",
		"gstored_triples_deleted_total":  "1",
		"gstored_partition_epoch":        "3", // open=1, two data-changing updates
	} {
		if got := metricValue(t, m, metric); got != want {
			t.Errorf("%s = %s, want %s", metric, got, want)
		}
	}
}

// TestUpdateAdmissionSheds503: update requests beyond the MaxInFlight
// write-queue bound are shed with 503 + Retry-After instead of piling
// onto the swap mutex (white-box: the slots are filled directly, since
// holding the mutex long enough to queue real writers isn't
// deterministic in a test).
func TestUpdateAdmissionSheds503(t *testing.T) {
	db := testDB(t)
	srv, ts := newTestServer(t, db, Config{Writable: true, MaxInFlight: 2})
	for i := 0; i < cap(srv.updateSlots); i++ {
		srv.updateSlots <- struct{}{}
	}
	resp, _ := postUpdate(t, ts.URL, `INSERT DATA { <http://ex/x> <http://ex/p> <http://ex/y> }`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated update status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed update carries no Retry-After")
	}
	if srv.metrics.Rejected.Load() != 1 {
		t.Errorf("rejected = %d, want 1", srv.metrics.Rejected.Load())
	}
	for i := 0; i < cap(srv.updateSlots); i++ {
		<-srv.updateSlots
	}
	if resp, _ := postUpdate(t, ts.URL, `INSERT DATA { <http://ex/x> <http://ex/p> <http://ex/y> }`); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain update status = %d, want 200", resp.StatusCode)
	}
}

// TestServeDuringUpdate hammers /sparql from several clients while a
// writer flips a marker triple: every response must be HTTP 200 with
// either the pre-write or the post-write binding set, whichever
// generation the execution pinned. go test -race is part of the
// assertion (the TestServeDuringRepartition pattern, for writes).
func TestServeDuringUpdate(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), Config{Writable: true, CacheEntries: 64, MaxInFlight: 64})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	stop := make(chan struct{})
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, doc := getJSON(t, ts.URL, knowsChain)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d during update", resp.StatusCode)
					return
				}
				if n := len(doc.Results.Bindings); n != 1 && n != 2 {
					errs <- fmt.Errorf("bindings = %v during update", doc.Results.Bindings)
					return
				}
			}
		}()
	}
	for i := 0; i < 15; i++ {
		if resp, _ := postUpdate(t, ts.URL, `INSERT DATA { <http://ex/dave> <http://ex/knows> <http://ex/carol> }`); resp.StatusCode != http.StatusOK {
			t.Fatalf("insert %d failed: %d", i, resp.StatusCode)
		}
		if resp, _ := postUpdate(t, ts.URL, `DELETE DATA { <http://ex/dave> <http://ex/knows> <http://ex/carol> }`); resp.StatusCode != http.StatusOK {
			t.Fatalf("delete %d failed: %d", i, resp.StatusCode)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestUpdateWorkerDownIs500: only a syntax error is the client's fault.
// An update that fails because a fragment-hosting worker is down at the
// generation swap is a server fault — 500 and gstored_query_errors_total,
// like any engine fault — and leaves the epoch where it was.
func TestUpdateWorkerDownIs500(t *testing.T) {
	w := remote.NewWorker(0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- w.Serve(ln) }()

	g := gstored.NewGraph()
	g.AddIRIs("http://ex/alice", "http://ex/knows", "http://ex/bob")
	g.AddIRIs("http://ex/bob", "http://ex/knows", "http://ex/carol")
	db, err := gstored.Open(g, gstored.Config{Sites: 2, Workers: []string{ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = db.Close() }() // the transport is already torn down
	srv, ts := newTestServer(t, db, Config{Writable: true})
	e0 := db.Epoch()

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("worker serve: %v", err)
	}

	resp, _ := postUpdate(t, ts.URL, `INSERT DATA { <http://ex/carol> <http://ex/knows> <http://ex/alice> }`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("update with its worker down: status = %d, want 500", resp.StatusCode)
	}
	if got := srv.metrics.Errors.Load(); got != 1 {
		t.Errorf("gstored_query_errors_total = %d, want 1", got)
	}
	if got := srv.metrics.Updates.Load(); got != 0 {
		t.Errorf("gstored_updates_total = %d after a failed update", got)
	}
	if db.Epoch() != e0 {
		t.Errorf("failed update advanced the epoch %d -> %d", e0, db.Epoch())
	}
}
