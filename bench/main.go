// Command bench is the repository's benchmark: it builds the real gstored
// binary, serves a seeded LUBM dataset with it — two worker processes
// included where the workload says so — and drives it over HTTP from one
// closed-loop client in fixed-size passes, verifying every answer against
// an in-process width-1 oracle. See README.md for the metric glossary,
// the workload rationale and how normalisation works.
//
//	go run -C bench .                      every workload, end to end
//	go run -C bench . -traced              ... followed by the layer drive
//	go run -C bench . -aa 5                A/A check: two interleaved sets of 5 runs
//	go run -C bench . --workload crossing --seed 3 --seconds 20 --trace 0
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"gstored/internal/rdf"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	traced   bool
	aa       int
	smoke    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and end with the one-line JSON result (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the LUBM generator, the query parameters and the update triples")
	flag.IntVar(&o.seconds, "seconds", nominalSeconds, "measurement budget; scales the fixed pass count linearly from its nominal 20")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics (short e2e run + layer drive)")
	flag.BoolVar(&o.traced, "traced", false, "after each full e2e run, also run the layer drive and report every per-layer metric")
	flag.IntVar(&o.aa, "aa", 0, "A/A check: two interleaved sets of N full runs; exits non-zero when medians differ by more than half a bound")
	flag.BoolVar(&o.smoke, "smoke", false, "LUBM(2), 3 passes, 1 cold start: every code path in a few seconds")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected positional arguments:", flag.Args())
		os.Exit(2)
	}

	// Cancelling the context kills every SUT process (exec.CommandContext)
	// and unwinds through the deferred clean-ups, so an interrupted run
	// leaves no server and no dataset file behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, o, os.Stdout)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, o options, out io.Writer) int {
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	todo := specs
	if o.workload != "" {
		s, ok := specByName(o.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		todo = []spec{s}
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	bin, err := buildSUT(ctx, root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	h := &harness{root: root, bin: bin, env: readEnv(ctx, root), opts: o}

	if o.aa > 0 {
		return h.runAA(ctx, out)
	}
	m := modeE2E
	switch {
	case o.workload != "" && o.trace == 1:
		m = modeLayers
	case o.traced || o.trace == 1:
		m = modeBoth
	}
	code := 0
	var last *record
	for _, s := range todo {
		rec, err := h.runWorkload(ctx, s, m)
		if rec != nil {
			rec.print(out)
			last = rec
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.Name, err)
			return 1
		}
		if rec.Failed > 0 {
			code = 1
		}
	}
	if o.workload != "" {
		metrics := last.EndToEnd
		if o.trace == 1 {
			metrics = last.PerLayer
		}
		line := driverLine{Correct: last.Failed == 0, Attempted: last.Attempted, Failed: last.Failed, Metrics: metrics}
		if err := jsonEncode(out, line); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

type mode int

const (
	// modeE2E is the full end-to-end run; it also yields the per-layer
	// metrics that are read from outside during it (client.*, server.*).
	modeE2E mode = iota
	// modeLayers is what the driver's --trace 1 asks for: every per-layer
	// metric, from a shortened e2e run plus the layer drive.
	modeLayers
	// modeBoth is the full e2e run followed by the layer drive.
	modeBoth
)

// harness is what every run of one invocation shares.
type harness struct {
	root string
	bin  string
	env  env
	opts options
}

// Repetitions per query template in the layer drive.
const (
	layerReps      = 15
	smokeLayerReps = 2
)

// runWorkload generates s for the invocation's seed, serves it and
// measures it in the given mode. A record is returned whenever the run got
// far enough to have one, even alongside an error.
func (h *harness) runWorkload(ctx context.Context, s spec, m mode) (*record, error) {
	reps := layerReps
	if h.opts.smoke {
		s, reps = s.smoke(), smokeLayerReps
	} else {
		s = s.scaled(h.opts.seconds)
	}
	if m == modeLayers {
		// The e2e part only feeds ungated client-side figures here: a
		// fifth of the passes and a single cold start are plenty.
		s = s.withPasses(s.Passes / 5)
		s.ColdStarts = 1
	}
	prepStart := time.Now()
	p := newPlan(s, h.opts.seed)
	dataPath, err := writeDataset(h.root, p)
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.Remove(dataPath) }() // best-effort: the build directory is disposable
	or, err := buildOracle(ctx, p)
	if err != nil {
		return nil, err
	}

	// The generated graph has served its purpose (the server and the layer
	// drive both read the file); without it the bench process's heap, and
	// with it the garbage collector's share of the calibration kernel's
	// time, stays small.
	p.Graph = nil
	fmt.Fprintf(os.Stderr, "bench: %s: dataset and oracle ready in %.1fs\n", s.Name, time.Since(prepStart).Seconds())

	rec := &record{Workload: s.Name, Env: h.env, Seed: h.opts.seed, Seconds: h.opts.seconds, Passes: s.Passes, ColdStarts: s.ColdStarts}
	res, err := runE2E(ctx, h.bin, dataPath, p, or)
	if res != nil {
		rec.Attempted, rec.Failed, rec.Failures = res.Attempted, res.Failed, res.Failures
		rec.CalibMS = res.Layer["client.calib_ms"]
		if m != modeLayers {
			// A shortened e2e run's end-to-end figures are not the metrics.
			rec.EndToEnd = withUnits(endToEndDefs, res.EndToEnd)
		}
		rec.PerLayer = withUnits(perLayerDefs(), res.Layer)
	}
	if err != nil {
		return rec, err
	}

	dir := filepath.Join(h.root, buildDir)
	if m != modeE2E {
		layers, tr, err := runLayers(ctx, p, dataPath, reps)
		if err != nil {
			return rec, fmt.Errorf("layer drive: %w", err)
		}
		for name, v := range res.Layer {
			layers[name] = v
		}
		rec.PerLayer = withUnits(perLayerDefs(), layers)
		name := fmt.Sprintf("trace-%s-seed%d.json", s.Name, h.opts.seed)
		if rec.TraceFile, err = writeJSONFile(dir, name, func(w io.Writer) error { return writeTrace(w, tr) }); err != nil {
			return rec, err
		}
	}
	name := fmt.Sprintf("record-%s-seed%d-mode%d.json", s.Name, h.opts.seed, m)
	if _, err := writeJSONFile(dir, name, func(w io.Writer) error { return jsonEncode(w, rec) }); err != nil {
		return rec, err
	}
	return rec, nil
}

func writeNTriples(w io.Writer, p *plan) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if err := rdf.WriteNTriples(bw, p.Graph); err != nil {
		return err
	}
	return bw.Flush()
}
