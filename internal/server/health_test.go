package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"gstored"
	"gstored/internal/remote"
)

// TestHealthzSiteTable checks the per-site table: one row per site with
// address, epoch, fragment count, up flag, and a heartbeat stamped by
// the probe itself.
func TestHealthzSiteTable(t *testing.T) {
	db := testDB(t)
	_, ts := newTestServer(t, db, Config{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Status    string       `json:"status"`
		Epoch     uint64       `json:"epoch"`
		SiteTable []healthSite `json:"site_table"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" {
		t.Errorf("status = %q", body.Status)
	}
	if len(body.SiteTable) != 3 {
		t.Fatalf("site table has %d rows, want 3", len(body.SiteTable))
	}
	for i, row := range body.SiteTable {
		if row.Site != i || !row.Up || row.Addr != "in-process" || row.Epoch != body.Epoch {
			t.Errorf("row %d = %+v", i, row)
		}
		if row.Fragments != 1 {
			t.Errorf("row %d fragments = %d, want 1 (each in-process site hosts one)", i, row.Fragments)
		}
		beat, err := time.Parse(time.RFC3339Nano, row.LastHeartbeat)
		if err != nil || time.Since(beat) > time.Minute {
			t.Errorf("row %d heartbeat %q (%v)", i, row.LastHeartbeat, err)
		}
	}
}

// TestMetricsSiteUpGauge checks the per-site liveness gauge appears with
// one labeled sample per site.
func TestMetricsSiteUpGauge(t *testing.T) {
	db := testDB(t)
	_, ts := newTestServer(t, db, Config{})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	for _, want := range []string{
		`gstored_site_up{site="0"} 1`,
		`gstored_site_up{site="1"} 1`,
		`gstored_site_up{site="2"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestStalledWorkerDegradesHealth: a worker that accepts connections but
// never answers (stopped, partitioned) must not hang the probes. Within
// QueryTimeout /healthz reads degraded with that worker's sites down, and
// /metrics reports gstored_site_up 0 for them. The sites of a worker that
// still answers stay up, with a fresh heartbeat: the stalled worker's
// probes do not spend their deadline.
func TestStalledWorkerDegradesHealth(t *testing.T) {
	for _, tc := range []struct {
		name           string
		workers, sites int
	}{
		{"one worker", 1, 2},
		{"two workers", 2, 4},
	} {
		t.Run(tc.name, func(t *testing.T) { checkStalledWorker(t, tc.workers, tc.sites) })
	}
}

// checkStalledWorker serves sites over workers loopback workers, stalls
// the first, and checks /healthz and /metrics. Sites map to workers
// round-robin, so the stalled worker hosts the sites i with
// i%workers == 0.
func checkStalledWorker(t *testing.T, workers, sites int) {
	const timeout = 200 * time.Millisecond
	var stalled *remote.Worker
	var addrs []string
	for i := 0; i < workers; i++ {
		w := remote.NewWorker(0)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = w.Serve(ln) }() // ends at Close
		if i == 0 {
			stalled = w
		} else {
			t.Cleanup(func() { _ = w.Close() })
		}
		addrs = append(addrs, ln.Addr().String())
	}
	g := gstored.NewGraph()
	g.AddIRIs("http://ex/alice", "http://ex/knows", "http://ex/bob")
	g.AddIRIs("http://ex/bob", "http://ex/knows", "http://ex/carol")
	db, err := gstored.Open(g, gstored.Config{Sites: sites, Workers: addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	_, ts := newTestServer(t, db, Config{QueryTimeout: timeout})

	// Stop the first worker and put a black hole on its address.
	if err := stalled.Close(); err != nil {
		t.Fatal(err)
	}
	hole, err := net.Listen("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 16)
	go func() {
		for {
			c, err := hole.Accept()
			if err != nil {
				close(accepted)
				return
			}
			accepted <- c // held open, never read
		}
	}()
	// Registered after newTestServer, so it runs first: a request still
	// stuck in a probe gets its EOF before the test server waits for it.
	t.Cleanup(func() {
		_ = hole.Close()
		for c := range accepted {
			_ = c.Close()
		}
	})

	client := &http.Client{Timeout: 2 * time.Second}
	get := func(path string) (string, time.Duration) {
		t.Helper()
		start := time.Now()
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Errorf("GET %s with a stalled worker: %v", path, err)
			return "", time.Since(start)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b), time.Since(start)
	}
	healthz, took := get("/healthz")
	metrics, _ := get("/metrics")
	if slack := 800 * time.Millisecond; took > timeout+slack {
		t.Errorf("/healthz took %v with a stalled worker, want at most QueryTimeout %v plus %v", took, timeout, slack)
	}
	var body struct {
		Status    string       `json:"status"`
		SiteTable []healthSite `json:"site_table"`
	}
	if err := json.Unmarshal([]byte(healthz), &body); err != nil || body.Status != "degraded" || len(body.SiteTable) != sites {
		t.Fatalf("/healthz with a stalled worker: %q (%v), want degraded with %d sites", healthz, err, sites)
	}
	for i, row := range body.SiteTable {
		up, gauge := i%workers != 0, 0
		if up {
			gauge = 1
		}
		if row.Up != up || (up && row.LastHeartbeat == "") {
			t.Errorf("site %d: %+v, want up %v with a heartbeat when up", i, row, up)
		}
		if want := fmt.Sprintf(`gstored_site_up{site="%d"} %d`, i, gauge); !strings.Contains(metrics, want) {
			t.Errorf("/metrics with a stalled worker lacks %s", want)
		}
	}
}
