package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
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
