package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func postRepartition(t *testing.T, base, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/repartition", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var doc map[string]any
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("bad repartition JSON (%s): %v", raw, err)
		}
	}
	return resp, doc
}

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return string(body)
}

func metricValue(t *testing.T, metrics, name string) string {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimPrefix(line, name+" ")
		}
	}
	t.Fatalf("metric %s not exposed:\n%s", name, metrics)
	return ""
}

func TestRepartitionEndpoint(t *testing.T) {
	db := testDB(t)
	_, ts := newTestServer(t, db, Config{})

	resp, doc := postRepartition(t, ts.URL, `{"strategy": "semantic-hash", "k": 2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	applied := doc["applied"].(map[string]any)
	if applied["strategy"] != "semantic-hash" || applied["k"].(float64) != 2 {
		t.Errorf("applied = %v", applied)
	}
	if doc["epoch"].(float64) != 2 {
		t.Errorf("epoch = %v, want 2", doc["epoch"])
	}
	if db.Strategy() != "semantic-hash" || db.NumSites() != 2 {
		t.Errorf("live cluster = (%s,%d)", db.Strategy(), db.NumSites())
	}

	// Queries still answer correctly on the swapped cluster.
	qresp, qdoc := getJSON(t, ts.URL, knowsChain)
	if qresp.StatusCode != http.StatusOK || len(qdoc.Results.Bindings) != 1 {
		t.Errorf("post-swap query: status %d, bindings %v", qresp.StatusCode, qdoc.Results.Bindings)
	}

	// Every rejected body leaves the live generation alone. A k above the
	// vertex count could only add empty fragments, and an unbounded one
	// would size per-fragment allocations from the client's number.
	epoch := db.Epoch()
	tooMany := fmt.Sprintf(`{"strategy": "hash", "k": %d}`, db.Distributed().Global.NumVertices()+1)
	for body, want := range map[string]int{
		``:                                http.StatusBadRequest, // an explicit body is required
		`{"strategy": "hash"}`:            http.StatusBadRequest, // k missing
		`{"k": 2}`:                        http.StatusBadRequest, // strategy missing
		`{"strategy": "nope", "k": 2}`:    http.StatusBadRequest,
		`{"strategy": "hash", "k": -1}`:   http.StatusBadRequest,
		`{"strategy": "hash", "k": 2 ???`: http.StatusBadRequest,
		tooMany:                           http.StatusBadRequest,
	} {
		if resp, _ := postRepartition(t, ts.URL, body); resp.StatusCode != want {
			t.Errorf("POST /repartition %s = %d, want %d", body, resp.StatusCode, want)
		}
		if got := db.Epoch(); got != epoch {
			t.Errorf("POST /repartition %s moved the epoch %d → %d", body, epoch, got)
		}
	}
	if resp, err := http.Get(ts.URL + "/repartition"); err != nil {
		t.Fatal(err)
	} else if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /repartition = %d, want 405", resp.StatusCode)
	}
}

// TestCacheNeverServesPreSwapEntry pins the epoch-versioning
// correctness claim: a result cached before a repartition must not
// answer a request after it, and the flush is visible in /metrics.
func TestCacheNeverServesPreSwapEntry(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), Config{CacheEntries: 64})
	if resp, _ := getJSON(t, ts.URL, knowsChain); resp.Header.Get("X-Cache") != "MISS" {
		t.Fatal("first request should miss")
	}
	if resp, _ := getJSON(t, ts.URL, knowsChain); resp.Header.Get("X-Cache") != "HIT" {
		t.Fatal("second request should hit")
	}

	if resp, _ := postRepartition(t, ts.URL, `{"strategy": "hash", "k": 2}`); resp.StatusCode != http.StatusOK {
		t.Fatal("repartition failed")
	}

	resp, doc := getJSON(t, ts.URL, knowsChain)
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("post-swap request served X-Cache: %s; pre-swap entries must not survive the epoch", got)
	}
	if len(doc.Results.Bindings) != 1 {
		t.Errorf("post-swap bindings = %v", doc.Results.Bindings)
	}
	// And the new epoch caches normally.
	if resp, _ := getJSON(t, ts.URL, knowsChain); resp.Header.Get("X-Cache") != "HIT" {
		t.Error("post-swap repeat should hit the refilled cache")
	}

	m := scrapeMetrics(t, ts.URL)
	if got := metricValue(t, m, "gstored_cache_flushes_total"); got != "1" {
		t.Errorf("gstored_cache_flushes_total = %s, want 1", got)
	}
	if got := metricValue(t, m, "gstored_repartitions_total"); got != "1" {
		t.Errorf("gstored_repartitions_total = %s, want 1", got)
	}
	if got := metricValue(t, m, "gstored_partition_epoch"); got != "2" {
		t.Errorf("gstored_partition_epoch = %s, want 2", got)
	}
	if got := metricValue(t, m, "gstored_sites"); got != "2" {
		t.Errorf("gstored_sites = %s, want 2", got)
	}
}

// TestServeDuringRepartition hammers /sparql from several clients while
// the partitioning is hot-swapped underneath them: every response must
// be HTTP 200 with the same single binding, whichever generation served
// it. go test -race is part of the assertion.
func TestServeDuringRepartition(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), Config{CacheEntries: 64, MaxInFlight: 64})
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
					errs <- fmt.Errorf("status %d during swap", resp.StatusCode)
					return
				}
				if len(doc.Results.Bindings) != 1 {
					errs <- fmt.Errorf("bindings = %v during swap", doc.Results.Bindings)
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		body := fmt.Sprintf(`{"strategy": %q, "k": %d}`, []string{"hash", "semantic-hash", "metis"}[i%3], 2+i%2)
		if resp, _ := postRepartition(t, ts.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("swap %d failed: %d", i, resp.StatusCode)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// syncBuffer guards a bytes.Buffer for concurrent appends: a sink's
// writes may race with String, so keep the tests well-defined.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
