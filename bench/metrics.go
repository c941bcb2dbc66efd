package main

import "strings"

// metricDef declares one reported metric. BENCHMARK.json carries the
// same table; TestBenchmarkJSONMatches keeps the two from drifting.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics have none.
	Bound float64
}

// endToEndDefs are the seven metrics a user of the deployment sees. Every
// workload reports all of them.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pass_p50_ms", "ms", "lower", 0.20},
	{"update_p50_ms", "ms", "lower", 0.15},
	{"throughput_qps", "1/s", "higher", 0.20},
	{"cpu_ms_per_pass", "ms", "lower", 0.20},
	{"shipped_bytes_per_pass", "bytes", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// e2eLayerNames are the per-layer metrics read during the e2e run itself,
// from the client's clock, /metrics and /proc.
func e2eLayerNames() []string {
	out := []string{
		"server.ttfb_p50_ms", "server.write_syscalls_per_pass", "server.cache_hit_ratio", "server.engine_share",
		"client.pass_p90_ms",
	}
	for _, t := range allTemplates {
		out = append(out, "client."+t+"_p50_ms")
	}
	return append(out, "client.raw_pass_p50_ms", "client.calib_ms", "client.warmup_s", "client.samples")
}

// higherIsBetter lists the per-layer metrics whose direction is not the
// default "lower": useful-outcome ratios, speed-ups and sample counts.
var higherIsBetter = map[string]bool{
	"assembly.yield_ratio":    true,
	"engine.parallel_speedup": true,
	"engine.closure_ratio":    true,
	"server.cache_hit_ratio":  true,
	"server.engine_share":     true,
	"client.samples":          true,
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_speedup"):
		return "ratio"
	case strings.Contains(name, "bytes"):
		return "bytes"
	}
	return "count"
}

// perLayerDefs lists every per-layer metric with the unit and direction
// its name implies.
func perLayerDefs() []metricDef {
	var out []metricDef
	for _, name := range append(append([]string{}, layerNames...), e2eLayerNames()...) {
		d := metricDef{Name: name, Unit: unitOf(name), Better: "lower"}
		if higherIsBetter[name] {
			d.Better = "higher"
		}
		out = append(out, d)
	}
	return out
}
