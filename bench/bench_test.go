package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// No test here asserts on a timing: they pin determinism, the verifier's
// power and the reported names.

func smokePlan(t *testing.T, name string, seed int64) (*plan, oracle) {
	t.Helper()
	s, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	p := newPlan(s.smoke(), seed)
	or, err := buildOracle(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return p, or
}

func TestSameSeedSamePlan(t *testing.T) {
	for _, s := range specs {
		a, _ := smokePlan(t, s.Name, 7)
		b, _ := smokePlan(t, s.Name, 7)
		if !reflect.DeepEqual(a.Passes, b.Passes) {
			t.Errorf("%s: same seed gave different op lists", s.Name)
		}
		if a.Insert != b.Insert || a.Delete != b.Delete || a.Delta != b.Delta {
			t.Errorf("%s: same seed gave different update triples", s.Name)
		}
		var fa, fb bytes.Buffer
		if err := writeNTriples(&fa, a); err != nil {
			t.Fatal(err)
		}
		if err := writeNTriples(&fb, b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fa.Bytes(), fb.Bytes()) {
			t.Errorf("%s: same seed gave different datasets", s.Name)
		}
		c, _ := smokePlan(t, s.Name, 8)
		if c.Insert == a.Insert {
			t.Errorf("%s: seeds 7 and 8 share their update triples", s.Name)
		}
		if len(a.Passes) != warmupPasses+a.Spec.Passes {
			t.Errorf("%s: %d passes planned, want %d", s.Name, len(a.Passes), warmupPasses+a.Spec.Passes)
		}
	}
}

func TestPassCountIsAFunctionOfSeconds(t *testing.T) {
	s, _ := specByName("crossing")
	if got := s.scaled(nominalSeconds).Passes; got != s.Passes {
		t.Errorf("nominal seconds changed the pass count: %d -> %d", s.Passes, got)
	}
	if half := s.scaled(nominalSeconds / 2).Passes; half >= s.Passes || half%2 != 0 {
		t.Errorf("half the seconds gave %d passes of %d", half, s.Passes)
	}
}

// TestOracleSeesBothStates pins that the update changes answers, so a
// stale read cannot pass verification.
func TestOracleSeesBothStates(t *testing.T) {
	p, or := smokePlan(t, "crossing", 3)
	lq1 := or[p.Passes[0][0].Oracle]
	if lq1[0].Rows.Count == 0 || lq1[1].Rows.Count != lq1[0].Rows.Count+1 {
		t.Errorf("LQ1 rows: base %d, with delta %d; want a non-empty answer that grows by one", lq1[0].Rows.Count, lq1[1].Rows.Count)
	}
	if lq1[0].Rows.Sum == lq1[1].Rows.Sum {
		t.Error("checksum did not move with the extra row")
	}
}

func tsvBody(rows []string) []byte {
	return []byte("?x\t?y\n" + strings.Join(rows, "\n") + "\n")
}

func TestChecksumIsOrderIndependentAndSensitive(t *testing.T) {
	rows := []string{
		"<http://a>\t\"one\"", "<http://b>\t\"two\"@en", "<http://c>\t\"3\"^^<http://www.w3.org/2001/XMLSchema#int>",
		"_:b0\t", "<http://a>\t\"tab\\there\"",
	}
	var want expect
	hs, err := tsvRowHashes(tsvBody(rows))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hs {
		want.Rows.add(h)
	}
	o := op{TSV: true}

	shuffled := slices.Clone(rows)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if err := checkRead(o, &want, tsvBody(shuffled)); err != nil {
		t.Errorf("reordered rows rejected: %v", err)
	}
	if err := checkRead(o, &want, tsvBody(rows[1:])); err == nil {
		t.Error("dropped row accepted")
	}
	if err := checkRead(o, &want, tsvBody(append(slices.Clone(rows), rows[0]))); err == nil {
		t.Error("duplicated row accepted")
	}
	// Same count, one row replaced by a copy of another: only the sum sees it.
	swapped := slices.Clone(rows)
	swapped[1] = swapped[0]
	if err := checkRead(o, &want, tsvBody(swapped)); err == nil {
		t.Error("row replaced by a duplicate accepted")
	}
	// Two rows each delivered twice would cancel under xor.
	if err := checkRead(o, &want, tsvBody(append(slices.Clone(rows), rows[0], rows[0]))); err == nil {
		t.Error("row delivered three times accepted")
	}
}

func TestJSONAndTSVHashAlike(t *testing.T) {
	body := `{"head":{"vars":["x","y"]},"results":{"bindings":[` +
		`{"x":{"type":"uri","value":"http://a"},"y":{"type":"literal","value":"one"}},` +
		`{"y":{"type":"literal","value":"two","xml:lang":"en"},"x":{"type":"uri","value":"http://b"}},` +
		`{"x":{"type":"uri","value":"http://c"},"y":{"type":"literal","value":"3","datatype":"http://www.w3.org/2001/XMLSchema#int"}},` +
		`{"x":{"type":"bnode","value":"b0"}},` +
		`{"x":{"type":"uri","value":"http://a"},"y":{"type":"literal","value":"tab\there"}}` +
		"]}}\n"
	fromJSON, err := jsonRowHashes([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	fromTSV, err := tsvRowHashes(tsvBody([]string{
		"<http://a>\t\"one\"", "<http://b>\t\"two\"@en", "<http://c>\t\"3\"^^<http://www.w3.org/2001/XMLSchema#int>",
		"_:b0\t", "<http://a>\t\"tab\\there\"",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fromJSON, fromTSV) {
		t.Errorf("JSON rows hash to %x, the same rows as TSV to %x", fromJSON, fromTSV)
	}
	for _, bad := range []string{``, `{"head":{"vars":["x"]}}`, `{"head":{"vars":["x"]},"results":{"bindings":[{"z":{"type":"uri","value":"v"}}]}}`, body + "x"} {
		if _, err := jsonRowHashes([]byte(bad)); err == nil {
			t.Errorf("malformed body accepted: %q", bad)
		}
	}
}

func TestLimitAcceptsAnySubsetOfTheRightSize(t *testing.T) {
	all, err := tsvRowHashes(tsvBody([]string{"<a>\t<1>", "<b>\t<2>", "<c>\t<3>"}))
	if err != nil {
		t.Fatal(err)
	}
	want := expect{Members: map[uint64]struct{}{}}
	for _, h := range all {
		want.Rows.add(h)
		want.Members[h] = struct{}{}
	}
	o := op{TSV: true, Limit: 2}
	if err := checkRead(o, &want, tsvBody([]string{"<c>\t<3>", "<a>\t<1>"})); err != nil {
		t.Errorf("valid LIMIT 2 answer rejected: %v", err)
	}
	if err := checkRead(o, &want, tsvBody([]string{"<c>\t<3>"})); err == nil {
		t.Error("short LIMIT answer accepted")
	}
	if err := checkRead(o, &want, tsvBody([]string{"<c>\t<3>", "<d>\t<4>"})); err == nil {
		t.Error("LIMIT answer with a foreign row accepted")
	}
}

func TestPercentilesAndNormalisation(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 100}
	if got := median(xs); got != 3.5 {
		t.Errorf("median = %v, want 3.5", got)
	}
	if got := median(xs[:5]); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := percentile(xs, 90); got != 100 {
		t.Errorf("p90 = %v, want 100", got)
	}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("nearest-rank p50 = %v, want 3", got)
	}
	if median(nil) != 0 || percentile(nil, 90) != 0 || ratio(1, 0) != 0 {
		t.Error("empty samples and zero denominators must read 0")
	}
	// A box on which the kernel takes twice the nominal time is running at
	// half speed: its raw times are halved.
	if got := normFactor(2 * RefNominalMS); got != 0.5 {
		t.Errorf("normFactor(2×nominal) = %v, want 0.5", got)
	}
	if normFactor(0) != 1 {
		t.Error("a run without calibration samples must not rescale")
	}
	if calibratedTimeout(nil) != uncalibratedTimeout || calibratedTimeout([]float64{1, 1, 1}) != minTimeout {
		t.Error("timeout floor or fallback is off")
	}
	if got := calibratedTimeout([]float64{500, 600, 700}); got.Seconds() != 12 {
		t.Errorf("timeout = %v, want 20× the 600 ms median", got)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := &tracer{Spans: []span{
		{Trace: "t", ID: 1, Parent: 0, Name: "root", StartNS: 0, EndNS: 10e6},
		{Trace: "t", ID: 2, Parent: 1, Name: "a", StartNS: 1e6, EndNS: 4e6},
		{Trace: "t", ID: 3, Parent: 1, Name: "a", StartNS: 4e6, EndNS: 6e6},
		{Trace: "t", ID: 4, Parent: 3, Name: "b", StartNS: 4e6, EndNS: 5e6},
	}}
	got := tr.selfTimes()
	want := map[string]float64{"root": 5, "a": 4, "b": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatches(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, pass counts are sized for %d", b.RunSeconds, nominalSeconds)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d: declared %q, implemented %q (or their rationale differs)", i, w.Name, specs[i].Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	var e2e []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	if !reflect.DeepEqual(e2e, endToEndDefs) {
		t.Errorf("end_to_end declared %v\nimplemented %v", e2e, endToEndDefs)
	}
	var layers []metricDef
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(layers, perLayerDefs()) {
		t.Errorf("per_layer declared %v\nimplemented %v", layers, perLayerDefs())
	}
}

func names(m map[string]metricValue) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// TestSmokeRunEmitsDeclaredMetrics runs every workload end to end at
// LUBM(2) against the real binary — workers, updates, layer drive and all
// — and checks that exactly the declared workloads and metric names come
// out, with every op verified.
func TestSmokeRunEmitsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the gstored binary")
	}
	b := readBenchmarkJSON(t)
	var wantE2E, wantLayers []string
	for _, m := range b.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
	}
	for _, m := range b.PerLayer {
		wantLayers = append(wantLayers, m.Name)
	}
	slices.Sort(wantE2E)
	slices.Sort(wantLayers)

	ctx := context.Background()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildSUT(ctx, root)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{root: root, bin: bin, env: readEnv(ctx, root), opts: options{seed: 5, seconds: nominalSeconds, smoke: true}}
	for _, w := range b.Workloads {
		s, ok := specByName(w.Name)
		if !ok {
			t.Fatalf("declared workload %q is not implemented", w.Name)
		}
		rec, err := h.runWorkload(ctx, s, modeBoth)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if rec.Failed != 0 || rec.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.Name, rec.Failed, rec.Attempted, rec.Failures)
		}
		if got := names(rec.EndToEnd); !slices.Equal(got, wantE2E) {
			t.Errorf("%s: end-to-end metrics %v, declared %v", w.Name, got, wantE2E)
		}
		if got := names(rec.PerLayer); !slices.Equal(got, wantLayers) {
			t.Errorf("%s: per-layer metrics %v, declared %v", w.Name, got, wantLayers)
		}
		for name, v := range rec.EndToEnd {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v; they must never be 0", w.Name, name, v.Value)
			}
		}
		if rec.Env.GoVersion == "" || rec.Env.NProc == 0 || rec.Env.CPUModel == "" || rec.CalibMS <= 0 || rec.Passes != 3 {
			t.Errorf("%s: record lacks its environment: %+v", w.Name, rec)
		}
		data, err := os.ReadFile(rec.TraceFile)
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			Spans  []span                        `json:"spans"`
			Counts map[string]map[string]float64 `json:"counts"`
		}
		if err := json.Unmarshal(data, &tr); err != nil {
			t.Fatal(err)
		}
		for _, ts := range newPlan(s.smoke(), 5).Templates {
			trace := w.Name + "/" + ts.Name + "/0"
			if _, ok := tr.Counts[trace]; !ok {
				t.Errorf("%s: no counts recorded for %s", w.Name, trace)
			}
			if !slices.ContainsFunc(tr.Spans, func(sp span) bool { return sp.Trace == trace && sp.Name == "bench.pipeline" }) {
				t.Errorf("%s: no pipeline span for %s", w.Name, trace)
			}
		}
		if v := rec.PerLayer["engine.closure_ratio"].Value; v <= 0 {
			t.Errorf("%s: engine.closure_ratio = %v", w.Name, v)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(root, buildDir, "data-*")); len(left) > 0 {
		t.Errorf("dataset files left behind: %v", left)
	}
}

// TestDriverLine pins the last line of a single-workload run to the
// benchmark contract's shape, for both values of -trace.
func TestDriverLine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the gstored binary")
	}
	b := readBenchmarkJSON(t)
	for trace, want := range [][]string{nil, nil} {
		if trace == 0 {
			for _, m := range b.EndToEnd {
				want = append(want, m.Name)
			}
		} else {
			for _, m := range b.PerLayer {
				want = append(want, m.Name)
			}
		}
		slices.Sort(want)
		var out bytes.Buffer
		if code := run(context.Background(), options{workload: "star_stream", seed: 2, seconds: nominalSeconds, trace: trace, smoke: true}, &out); code != 0 {
			t.Fatalf("-trace %d: exit code %d\n%s", trace, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
			t.Fatalf("-trace %d: last line is not JSON: %v", trace, err)
		}
		if got := len(raw); got != 4 {
			t.Errorf("-trace %d: last line has %d keys, want exactly correct/attempted/failed/metrics", trace, got)
		}
		var line driverLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("-trace %d: %+v", trace, line)
		}
		if got := names(line.Metrics); !slices.Equal(got, want) {
			t.Errorf("-trace %d: metrics %v, want %v", trace, got, want)
		}
	}
}
