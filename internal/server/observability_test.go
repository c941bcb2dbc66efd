package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"gstored"
	"gstored/internal/trace"
)

// pathQuery is a distributed non-star query on the testDB graph: a
// three-hop knows-path (no vertex common to all edges, so the star fast
// path cannot apply) whose matches cross fragments under hash
// partitioning, exercising the full partial-evaluation pipeline. On the
// knows-triangle it walks each cycle once: 3 rows.
const pathQuery = `SELECT ?x ?w WHERE { ?x <http://ex/knows> ?y . ?y <http://ex/knows> ?z . ?z <http://ex/knows> ?w }`

// --- /healthz ---

type healthzDoc struct {
	Status   string `json:"status"`
	Triples  int    `json:"triples"`
	Sites    int    `json:"sites"`
	Strategy string `json:"strategy"`
	Epoch    uint64 `json:"epoch"`
	Mode     string `json:"mode"`
	Writable bool   `json:"writable"`
}

func getHealthz(t *testing.T, base string) healthzDoc {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("healthz Content-Type = %q", ct)
	}
	var doc healthzDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestHealthzFields pins the /healthz contract: the probe reports the
// dataset size, cluster shape, and generation, and the epoch field
// advances when an update swaps in a new generation.
func TestHealthzFields(t *testing.T) {
	db := testDB(t)
	_, ts := newTestServer(t, db, Config{Writable: true})

	doc := getHealthz(t, ts.URL)
	if doc.Status != "ok" {
		t.Errorf("status = %q", doc.Status)
	}
	if doc.Triples != 4 {
		t.Errorf("triples = %d, want 4", doc.Triples)
	}
	if doc.Sites != 3 {
		t.Errorf("sites = %d, want 3", doc.Sites)
	}
	if doc.Strategy == "" || doc.Mode == "" {
		t.Errorf("strategy/mode missing: %+v", doc)
	}
	if !doc.Writable {
		t.Error("writable = false on a writable server")
	}
	e0 := doc.Epoch

	resp, _ := postUpdate(t, ts.URL, `INSERT DATA { <http://ex/dave> <http://ex/knows> <http://ex/alice> }`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status = %d", resp.StatusCode)
	}
	doc = getHealthz(t, ts.URL)
	if doc.Epoch <= e0 {
		t.Errorf("epoch did not advance after update: %d -> %d", e0, doc.Epoch)
	}
	if doc.Triples != 5 {
		t.Errorf("triples after insert = %d, want 5", doc.Triples)
	}
}

// --- /metrics exposition lint ---

// TestMetricsExpositionLint checks /metrics the way promtool's lint
// does: every sample belongs to a family declared by exactly one
// HELP+TYPE pair, no family is declared twice, histogram families carry
// a le="+Inf" bucket per label whose value equals the _count series,
// bucket counts are cumulative, and _sum/_count exist for each label.
func TestMetricsExpositionLint(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), Config{})
	// Populate: a miss, a hit, and an explain run so histograms and
	// engine counters hold observations.
	getJSON(t, ts.URL, pathQuery)
	getJSON(t, ts.URL, pathQuery)
	resp, err := http.Get(ts.URL + "/sparql?explain=1&query=" + url.QueryEscape(pathQuery))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	checkGolden(t, "metrics.golden", maskMetrics(body))

	type family struct {
		help, typ bool
	}
	families := map[string]*family{}
	// samples[name][labels] = value, name with _bucket/_sum/_count suffix intact.
	samples := map[string]map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if f := families[name]; f != nil && f.help {
				t.Errorf("family %s declared HELP twice", name)
			}
			if families[name] == nil {
				families[name] = &family{}
			}
			families[name].help = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if f := families[name]; f != nil && f.typ {
				t.Errorf("family %s declared TYPE twice", name)
			}
			if families[name] == nil {
				families[name] = &family{}
			}
			families[name].typ = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("unrecognized comment line: %q", line)
			continue
		}
		// Sample line: name{labels} value  or  name value
		nameAndLabels, valStr, ok := strings.Cut(line, " ")
		if !ok {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Errorf("unparseable value in %q: %v", line, err)
			continue
		}
		name, labels := nameAndLabels, ""
		if i := strings.IndexByte(nameAndLabels, '{'); i >= 0 {
			name, labels = nameAndLabels[:i], nameAndLabels[i:]
			if !strings.HasSuffix(labels, "}") {
				t.Errorf("malformed labels in %q", line)
			}
		}
		famName := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && families[base] != nil {
				famName = base
				break
			}
		}
		f := families[famName]
		if f == nil || !f.help || !f.typ {
			t.Errorf("sample %s has no preceding HELP+TYPE for family %s", name, famName)
		}
		if samples[name] == nil {
			samples[name] = map[string]float64{}
		}
		if _, dup := samples[name][labels]; dup {
			t.Errorf("duplicate sample %s%s", name, labels)
		}
		samples[name][labels] = val
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// Histogram family checks: cumulative buckets ending in a +Inf equal
	// to _count, and a _sum per label.
	for _, fam := range []struct {
		name  string
		label string
	}{
		{"gstored_query_duration_seconds", "outcome"},
		{"gstored_stage_duration_seconds", "stage"},
	} {
		buckets := samples[fam.name+"_bucket"]
		if len(buckets) == 0 {
			t.Fatalf("no %s_bucket samples", fam.name)
		}
		counts := samples[fam.name+"_count"]
		sums := samples[fam.name+"_sum"]
		perLabel := map[string][]struct {
			le  float64
			val float64
		}{}
		for labels, val := range buckets {
			lv := labelValue(t, labels, fam.label)
			le := labelValue(t, labels, "le")
			f := math_Inf
			if le != "+Inf" {
				var err error
				f, err = strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("bad le %q", le)
				}
			}
			perLabel[lv] = append(perLabel[lv], struct {
				le  float64
				val float64
			}{f, val})
		}
		for lv, bs := range perLabel {
			var infVal float64
			infSeen := false
			maxBelow := -1.0
			for _, b := range bs {
				if b.le == math_Inf {
					infSeen, infVal = true, b.val
				} else if b.val > maxBelow {
					maxBelow = b.val
				}
			}
			if !infSeen {
				t.Errorf("%s{%s=%q} has no +Inf bucket", fam.name, fam.label, lv)
				continue
			}
			if maxBelow > infVal {
				t.Errorf("%s{%s=%q} buckets not cumulative: finite max %v > +Inf %v", fam.name, fam.label, lv, maxBelow, infVal)
			}
			cKey := fmt.Sprintf("{%s=%q}", fam.label, lv)
			cnt, ok := counts[cKey]
			if !ok {
				t.Errorf("%s_count%s missing", fam.name, cKey)
			} else if cnt != infVal {
				t.Errorf("%s%s: _count %v != +Inf bucket %v", fam.name, cKey, cnt, infVal)
			}
			if _, ok := sums[cKey]; !ok {
				t.Errorf("%s_sum%s missing", fam.name, cKey)
			}
		}
	}

	// The e2e acceptance bit: after real traffic, the latency histogram
	// holds the requests we just made (1 miss + 1 hit + 1 explain).
	for _, want := range []struct {
		outcome string
		min     float64
	}{{"miss", 1}, {"hit", 1}, {"explain", 1}} {
		key := fmt.Sprintf("{outcome=%q}", want.outcome)
		if got := samples["gstored_query_duration_seconds_count"][key]; got < want.min {
			t.Errorf("gstored_query_duration_seconds_count%s = %v, want >= %v", key, got, want.min)
		}
	}
	// The shipment meters are exposed and non-zero after a distributed
	// query.
	if v := samples["gstored_messages_total"][""]; v <= 0 {
		t.Errorf("gstored_messages_total = %v, want > 0", v)
	}
	if v := samples["gstored_shipment_bytes_total"][""]; v <= 0 {
		t.Errorf("gstored_shipment_bytes_total = %v, want > 0", v)
	}
	// The LEC path's work counters sit beside the partial-match count.
	// The path query is evaluated in Full mode, so features are joined
	// and join steps tried; nothing need be pruned.
	for _, name := range []string{"gstored_partial_matches_total", "gstored_lec_features_total", "gstored_join_attempts_total"} {
		if v := samples[name][""]; v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	if v, ok := samples["gstored_partial_matches_pruned_total"][""]; !ok || v < 0 || v > samples["gstored_partial_matches_total"][""] {
		t.Errorf("gstored_partial_matches_pruned_total = %v (present %v), want within [0, partial matches]", v, ok)
	}
	// Every in-process site that found partial matches decided its
	// semijoin exchange.
	decisions := 0.0
	for _, v := range samples["gstored_semijoin_decisions_total"] {
		decisions += v
	}
	if decisions <= 0 {
		t.Errorf("gstored_semijoin_decisions_total sums to %v, want > 0", decisions)
	}
	// Stage histograms saw the engine runs (miss + explain = 2).
	if got := samples["gstored_stage_duration_seconds_count"][`{stage="partial"}`]; got < 2 {
		t.Errorf(`stage_duration count{stage="partial"} = %v, want >= 2`, got)
	}
}

// math_Inf marks the +Inf bucket in the lint's per-label grouping.
var math_Inf = math.Inf(1)

// labelValue extracts one label's value from a rendered {a="b",c="d"}
// label set.
func labelValue(t *testing.T, labels, name string) string {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	for _, pair := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			continue
		}
		if k == name {
			unq, err := strconv.Unquote(v)
			if err != nil {
				t.Fatalf("bad label value %q: %v", v, err)
			}
			return unq
		}
	}
	t.Fatalf("label %s not found in %s", name, labels)
	return ""
}

// --- EXPLAIN e2e ---

// TestExplainEndToEnd is the acceptance-criteria scenario: one
// /sparql?explain=1 request for a distributed (non-star) query returns
// per-stage AND per-fragment timings plus the span timeline, from a
// single execution, and leaves the cache untouched.
func TestExplainEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), Config{})
	resp, err := http.Get(ts.URL + "/sparql?explain=1&query=" + url.QueryEscape(pathQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("explain status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("explain Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	var rep ExplainReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "explain.golden", jsonShape(t, body))

	if rep.Plan != "distributed" {
		t.Errorf("plan = %q, want distributed", rep.Plan)
	}
	if rep.Mode == "" || rep.CanonicalKey == "" || rep.Pattern == "" {
		t.Errorf("missing identity fields: %+v", rep)
	}
	if rep.Sites != 3 || rep.Epoch == 0 {
		t.Errorf("cluster fields: sites=%d epoch=%d", rep.Sites, rep.Epoch)
	}
	if rep.Rows != 3 { // alice->bob->carol, bob->carol->alice, carol->alice->bob
		t.Errorf("rows = %d, want 3", rep.Rows)
	}
	if rep.Cache.Disposition != "miss" || !rep.Cache.Enabled {
		t.Errorf("cache disposition = %+v, want enabled miss", rep.Cache)
	}

	// Per-stage timings: all four pipeline stages present.
	stages := map[string]bool{}
	for _, st := range rep.Stages {
		stages[st.Stage] = true
	}
	for _, want := range []string{"candidates", "partial", "lec", "assembly"} {
		if !stages[want] {
			t.Errorf("stage %q missing from %+v", want, rep.Stages)
		}
	}

	// The candidates stage accounts for its own bytes: a row per query
	// variable plus the encodings' framing, summing to what it shipped.
	cand := rep.Stages[0]
	sum := cand.FramingBytes
	for _, v := range cand.Vars {
		switch v.Form {
		case "list", "bits":
		case "dropped": // not broadcast: an empty slot to each site
			if v.Count != 0 || v.BytesDown != int64(rep.Sites) {
				t.Errorf("variable %s dropped with count %d and bytes_down %d", v.Var, v.Count, v.BytesDown)
			}
		default:
			t.Errorf("variable %s: form %q", v.Var, v.Form)
		}
		sum += v.BytesUp + v.BytesDown
	}
	if len(cand.Vars) != len(rep.Vars) || sum != cand.ShipmentBytes || sum == 0 {
		t.Errorf("candidates stage: %d variable rows summing to %d bytes; want %d rows and shipment_bytes %d",
			len(cand.Vars), sum, len(rep.Vars), cand.ShipmentBytes)
	}

	// Per-fragment rows: one per site, with wall time recorded.
	if len(rep.Fragments) != 3 {
		t.Fatalf("fragments = %+v, want 3 rows", rep.Fragments)
	}
	var totalLocal int
	for i, f := range rep.Fragments {
		if f.Site != i {
			t.Errorf("fragment[%d].site = %d", i, f.Site)
		}
		if f.WallMillis < 0 {
			t.Errorf("fragment %d wall = %v", i, f.WallMillis)
		}
		totalLocal += f.LocalMatches + f.PartialMatches
	}
	if totalLocal == 0 {
		t.Error("no fragment produced any local or partial match")
	}

	// The span timeline: a parse span, per-site partial spans, and
	// coordinator assembly — all from this one execution.
	spansByStage := map[string][]int{}
	for _, sp := range rep.Trace {
		spansByStage[sp.Stage] = append(spansByStage[sp.Stage], sp.Fragment)
		if sp.DurationMicros < 0 {
			t.Errorf("span %+v has negative duration", sp)
		}
	}
	if len(spansByStage["parse"]) != 1 {
		t.Errorf("parse spans = %v, want 1", spansByStage["parse"])
	}
	if got := len(spansByStage["partial"]); got != 3 {
		t.Errorf("partial spans = %d, want 3 (one per site)", got)
	}
	sites := map[int]bool{}
	for _, frag := range spansByStage["partial"] {
		sites[frag] = true
	}
	if len(sites) != 3 {
		t.Errorf("partial spans cover sites %v, want 3 distinct", spansByStage["partial"])
	}
	for _, coord := range []string{"lec", "assembly"} {
		frs := spansByStage[coord]
		if len(frs) != 1 || frs[0] != trace.Coordinator {
			t.Errorf("%s spans = %v, want one coordinator span", coord, frs)
		}
	}

	// Diagnostics must be side-effect free: the explain run did not
	// populate the cache (next request is a MISS).
	normal, _ := getJSON(t, ts.URL, pathQuery)
	if xc := normal.Header.Get("X-Cache"); xc != "MISS" {
		t.Errorf("request after explain got X-Cache %q, want MISS (explain must not populate the cache)", xc)
	}
}

// TestExplainDispositionAcrossUpdate: EXPLAIN peeks at the entry valid at
// the request's epoch. After an insert, a cached query the insert cannot
// touch was re-stamped and reports "hit"; one it changed was dropped and
// reports "miss". The explain that ran the revalidation shows its span,
// in its trace and on its slow-log line.
func TestExplainDispositionAcrossUpdate(t *testing.T) {
	sink := &syncBuffer{}
	_, ts := newTestServer(t, testDB(t), Config{Writable: true, SlowQueryLog: sink})
	names := `SELECT ?x ?n WHERE { ?x <http://ex/name> ?n }`
	getJSON(t, ts.URL, names)
	getJSON(t, ts.URL, knowsChain)
	// dave->carol gives knowsChain a second row and cannot touch names.
	postUpdate(t, ts.URL, `INSERT DATA { <http://ex/dave> <http://ex/knows> <http://ex/carol> }`)
	explain := func(q string) ExplainReport {
		t.Helper()
		resp, err := http.Get(ts.URL + "/sparql?explain=1&query=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rep ExplainReport
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	kept, dropped := explain(names), explain(knowsChain)
	if kept.Cache.Disposition != "hit" || dropped.Cache.Disposition != "miss" {
		t.Errorf("dispositions after the insert: unrelated %q (want hit), changed %q (want miss)", kept.Cache.Disposition, dropped.Cache.Disposition)
	}
	spans := func(rep ExplainReport) (n int) {
		for _, sp := range rep.Trace {
			if sp.Stage == "revalidate" {
				n++
			}
		}
		return n
	}
	if spans(kept) != 1 || spans(dropped) != 0 {
		t.Errorf("revalidate spans: %d on the revalidating explain (want 1), %d on the next (want 0)", spans(kept), spans(dropped))
	}
	// Two reads, then the two explains.
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 4 || !strings.Contains(lines[2], `"stage":"revalidate"`) || strings.Contains(lines[3], `"stage":"revalidate"`) {
		t.Errorf("want the revalidate span on the third of four slow-log lines only:\n%s", sink.String())
	}
}

// TestExplainStagesSumToShipment: every byte of an in-process report
// belongs to a stage row or to the query broadcast. LQ7 under metis has
// complete local matches beside its partial matches, so in LO mode the
// partial, lec and assembly rows each carry their own bytes.
func TestExplainStagesSumToShipment(t *testing.T) {
	ds := gstored.GenerateLUBM(1)
	db, err := gstored.Open(ds.Graph, gstored.Config{Sites: 4, Strategy: "metis", Mode: gstored.ModeLO})
	if err != nil {
		t.Fatal(err)
	}
	lq7, err := ds.Query("LQ7")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, db, Config{})
	resp, err := http.Get(ts.URL + "/sparql?explain=1&query=" + url.QueryEscape(lq7.SPARQL))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep ExplainReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(lq7.SPARQL)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Stats.InitShipment
	byStage := map[string]int64{}
	for _, st := range rep.Stages {
		sum += st.ShipmentBytes
		byStage[st.Stage] = st.ShipmentBytes
	}
	if sum != rep.ShipmentBytes {
		t.Errorf("init %d + stages %v = %d, report shipment_bytes = %d", res.Stats.InitShipment, byStage, sum, rep.ShipmentBytes)
	}
	if byStage["partial"] == 0 || byStage["lec"] == 0 || byStage["assembly"] == 0 {
		t.Errorf("stages %v: want local rows, LEC features and retained matches all shipped", byStage)
	}
}

// TestExplainViaPostForm covers the explain=1 form-field spelling.
func TestExplainViaPostForm(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), Config{})
	resp, err := http.PostForm(ts.URL+"/sparql", url.Values{
		"query":   {pathQuery},
		"explain": {"1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep ExplainReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Plan != "distributed" || len(rep.Fragments) != 3 {
		t.Errorf("form explain: plan=%q fragments=%d", rep.Plan, len(rep.Fragments))
	}
}

// TestExplainUnorderedDelivery pins that explain mirrors the serving
// mode: under Config.Unordered the report says so and still carries the
// trace of a streaming-shaped execution.
func TestExplainUnorderedDelivery(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), Config{Unordered: true})
	resp, err := http.Get(ts.URL + "/sparql?explain=1&query=" + url.QueryEscape(pathQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep ExplainReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Delivery != "unordered" {
		t.Errorf("delivery = %q", rep.Delivery)
	}
	if len(rep.Trace) == 0 {
		t.Error("unordered explain carried no trace")
	}
}

// TestExplainUnorderedReportsCacheDisabled: under -unordered every real
// request streams past the cache (X-Cache: STREAM) and none fills it, so
// with the default cache size EXPLAIN must still report the cache
// disabled rather than a miss a repeat could turn into a hit.
func TestExplainUnorderedReportsCacheDisabled(t *testing.T) {
	s, ts := newTestServer(t, testDB(t), Config{Unordered: true})
	for i := 0; i < 2; i++ {
		if resp, _ := getJSON(t, ts.URL, pathQuery); resp.Header.Get("X-Cache") != "STREAM" {
			t.Fatalf("request %d: X-Cache = %q, want STREAM", i, resp.Header.Get("X-Cache"))
		}
	}
	resp, err := http.Get(ts.URL + "/sparql?explain=1&query=" + url.QueryEscape(pathQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep ExplainReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Cache.Enabled || rep.Cache.Disposition != "disabled" {
		t.Errorf("unordered explain reports cache %+v, want enabled false and disposition disabled", rep.Cache)
	}
	if st := s.CacheStats(); st != (CacheStats{}) {
		t.Errorf("unordered serving moved the cache counters: %+v", st)
	}
}

// --- slow-query log ---

// TestSlowLogThresholdZero is the CI acceptance knob: with a zero
// threshold every answered query emits one structured JSON line,
// including cache hits, and executed queries carry stage, fragment, and
// span detail.
func TestSlowLogThresholdZero(t *testing.T) {
	sink := &syncBuffer{}
	_, ts := newTestServer(t, testDB(t), Config{SlowQueryLog: sink})

	getJSON(t, ts.URL, pathQuery) // miss: runs the engine
	getJSON(t, ts.URL, pathQuery) // hit: served from cache

	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("slow log lines = %d (%q), want 2", len(lines), sink.String())
	}
	var recs []SlowQueryRecord
	for i, ln := range lines {
		var rec SlowQueryRecord
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("line %d is not JSON (%q): %v", i, ln, err)
		}
		recs = append(recs, rec)
	}
	checkGolden(t, "slowlog.golden", jsonShape(t, []byte(lines[0]))+"--- hit ---\n"+jsonShape(t, []byte(lines[1])))
	if recs[0].Outcome != "miss" || recs[1].Outcome != "hit" {
		t.Errorf("outcomes = %q, %q; want miss, hit", recs[0].Outcome, recs[1].Outcome)
	}
	for i, rec := range recs {
		if rec.Key == "" || rec.Epoch == 0 || rec.Time == "" {
			t.Errorf("record %d missing identity fields: %+v", i, rec)
		}
		if rec.WallMillis < 0 {
			t.Errorf("record %d wall = %v", i, rec.WallMillis)
		}
	}
	// Both carry the engine detail: the miss from its own execution, the
	// hit from the cached execution's stats.
	for i, rec := range recs {
		if len(rec.Stages) == 0 || rec.ShipmentBytes == 0 {
			t.Errorf("record %d lacks engine detail: %+v", i, rec)
		}
	}
	// The miss executed with a trace attached, so its line has spans.
	if len(recs[0].Trace) == 0 {
		t.Error("miss record carries no trace spans")
	}
	if len(recs[0].Fragments) != 3 {
		t.Errorf("miss record fragments = %d, want 3", len(recs[0].Fragments))
	}
}

// TestSlowLogThresholdFilters pins that a high threshold suppresses
// fast queries.
func TestSlowLogThresholdFilters(t *testing.T) {
	sink := &syncBuffer{}
	_, ts := newTestServer(t, testDB(t), Config{
		SlowQueryLog:       sink,
		SlowQueryThreshold: time.Hour,
	})
	getJSON(t, ts.URL, pathQuery)
	if got := sink.String(); got != "" {
		t.Errorf("sub-threshold query was logged: %q", got)
	}
}

// --- rotating writer ---

func TestRotatingWriter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slow.jsonl")
	w, err := NewRotatingWriter(path, 1<<10) // minimum size: rotate fast
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	line := []byte(strings.Repeat("x", 99) + "\n") // 100 bytes
	for i := 0; i < 25; i++ {                      // 2500 bytes: must rotate at least once
		if _, err := w.Write(line); err != nil {
			t.Fatal(err)
		}
	}

	cur, err := os.Stat(path)
	if err != nil {
		t.Fatalf("current log missing: %v", err)
	}
	old, err := os.Stat(path + ".1")
	if err != nil {
		t.Fatalf("rotated log missing: %v", err)
	}
	if cur.Size() > 1<<10 || old.Size() > 1<<10 {
		t.Errorf("sizes after rotation: %d, %d; want both <= %d", cur.Size(), old.Size(), 1<<10)
	}
	// Every byte written is still on disk across the two files... except
	// nothing: rotation replaces .1, so with two files only the last two
	// windows survive — but with 2500 bytes and 1 KiB windows we wrote 3
	// windows; assert the retained files hold whole lines.
	for _, p := range []string{path, path + ".1"} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(b)%100 != 0 {
			t.Errorf("%s holds a torn line (%d bytes)", p, len(b))
		}
	}

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(line); err == nil {
		t.Error("write after Close succeeded")
	}
}

// TestRotatingWriterSurvivesFailedRotation pins that a rotation whose
// rename fails (here: <path>.1 is a non-empty directory) fails only the
// write that triggered it; the records after it land in <path>.
func TestRotatingWriterSurvivesFailedRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slow.jsonl")
	if err := os.MkdirAll(filepath.Join(path+".1", "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := NewRotatingWriter(path, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	line := []byte(strings.Repeat("x", 99) + "\n")
	for i := 0; i < 10; i++ { // 1000 bytes: just under the window
		if _, err := w.Write(line); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Write(line); err == nil {
		t.Fatal("the write that triggered the failed rotation succeeded")
	}
	for i := 0; i < 2; i++ {
		if _, err := w.Write(line); err != nil {
			t.Fatalf("write %d after the failed rotation: %v", i+1, err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := 12 * len(line); len(b) != want {
		t.Errorf("%s holds %d bytes, want %d (10 before the failed rotation, 2 after)", path, len(b), want)
	}
}
