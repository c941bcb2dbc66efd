package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// env is the environment every output record carries, so a number can be
// read next to the machine and tree it came from.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readEnv(ctx context.Context, root string) env {
	e := env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown", // a benchmark checkout need not be a git repository
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one workload's run as written to disk and printed.
type record struct {
	Workload   string                 `json:"workload"`
	Env        env                    `json:"env"`
	Seed       int64                  `json:"seed"`
	Seconds    int                    `json:"seconds"`
	Passes     int                    `json:"passes"`
	ColdStarts int                    `json:"cold_starts"`
	CalibMS    float64                `json:"client.calib_ms"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Failures   []failure              `json:"failures,omitempty"`
	EndToEnd   map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer   map[string]metricValue `json:"per_layer,omitempty"`
	TraceFile  string                 `json:"trace_file,omitempty"`
}

func withUnits(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		if v, ok := values[d.Name]; ok {
			out[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
	}
	return out
}

// print writes every metric by name with its unit, then any failed ops
// with their query and reason.
func (r *record) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed=%d P=%d cold_starts=%d client.calib_ms=%.3f attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Passes, r.ColdStarts, r.CalibMS, r.Attempted, r.Failed)
	fmt.Fprintf(w, "   nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s\n",
		r.Env.NProc, r.Env.GOMAXPROCS, r.Env.CPUModel, r.Env.GoVersion, r.Env.Commit)
	for _, d := range endToEndDefs {
		if v, ok := r.EndToEnd[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
	for _, d := range perLayerDefs() {
		if v, ok := r.PerLayer[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED pass %d: %s\n    query: %s\n", f.Pass, f.Reason, strings.ReplaceAll(f.Query, "\n", " "))
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "  spans and counts: %s\n", r.TraceFile)
	}
}

func jsonEncode(w io.Writer, v any) error {
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(v); err != nil {
		return err
	}
	return bw.Flush()
}

// writeJSONFile writes v as JSON to dir/name and returns the path.
func writeJSONFile(dir, name string, write func(io.Writer) error) (string, error) {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := write(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return "", err
	}
	return path, f.Close()
}

// driverLine is the one JSON object the benchmark contract wants as the
// last line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
