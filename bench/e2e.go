package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// failure is one failed op, kept verbatim for the report: a failed op is
// counted and printed, never retried.
type failure struct {
	Pass   int    `json:"pass"`
	Query  string `json:"query"`
	Reason string `json:"reason"`
}

// e2eResult is everything one end-to-end run measured.
type e2eResult struct {
	Attempted int
	Failed    int
	Failures  []failure
	// EndToEnd and Layer are keyed by metric name.
	EndToEnd map[string]float64
	Layer    map[string]float64
}

// maxFailuresKept bounds the failure list of a badly broken run; the
// count stays exact.
const maxFailuresKept = 20

func (r *e2eResult) fail(pass int, query string, err error) {
	r.Failed++
	if len(r.Failures) < maxFailuresKept {
		r.Failures = append(r.Failures, failure{Pass: pass, Query: query, Reason: err.Error()})
	}
}

// sample is one timed read.
type sample struct {
	latency time.Duration
	ttfb    time.Duration
	status  int
	body    []byte
}

// runner drives one deployment as a single closed-loop client.
type runner struct {
	d   *sut
	buf bytes.Buffer
}

// do sends req and reads the response to EOF. The clock covers request
// write through the last body byte; nothing is parsed inside it. A
// transport error, a timeout and a non-2xx status all come back as the
// op's failure reason.
func (rn *runner) do(ctx context.Context, req *http.Request, timeout time.Duration) (sample, error) {
	tctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	start := time.Now()
	resp, err := rn.d.client.Do(req.WithContext(tctx))
	if err != nil {
		if ctx.Err() == nil && isTimeout(err) {
			err = fmt.Errorf("slower than the calibrated timeout %v", timeout)
		}
		return sample{}, err
	}
	defer resp.Body.Close()
	s := sample{ttfb: time.Since(start), status: resp.StatusCode}
	rn.buf.Reset()
	_, err = rn.buf.ReadFrom(resp.Body)
	s.latency = time.Since(start)
	s.body = rn.buf.Bytes()
	switch {
	case err != nil && ctx.Err() == nil && isTimeout(err):
		return s, fmt.Errorf("slower than the calibrated timeout %v", timeout)
	case err != nil:
		return s, err
	case s.status < 200 || s.status > 299:
		return s, fmt.Errorf("HTTP %d: %s", s.status, firstLine(s.body))
	}
	return s, nil
}

// checkedRead issues o and verifies the answer against the oracle for
// the given data state, after the op's clock has stopped. ok reports a
// verified answer; failures are recorded on res.
func (rn *runner) checkedRead(ctx context.Context, res *e2eResult, or oracle, o op, pass, state int, timeout time.Duration) (sample, bool) {
	res.Attempted++
	v := url.Values{"query": {o.Query}}
	if o.TSV {
		v.Set("format", "tsv")
	}
	req, err := http.NewRequest(http.MethodGet, rn.d.base+"/sparql?"+v.Encode(), nil)
	var s sample
	if err == nil {
		s, err = rn.do(ctx, req, timeout)
	}
	if err == nil {
		err = checkRead(o, &or[o.Oracle][state], s.body)
	}
	if err != nil {
		res.fail(pass, o.Query, err)
		return s, false
	}
	return s, true
}

// checkedUpdate posts one SPARQL Update and checks the reply's counts.
func (rn *runner) checkedUpdate(ctx context.Context, res *e2eResult, text string, inserts bool, pass int, timeout time.Duration) (sample, bool) {
	res.Attempted++
	req, err := http.NewRequest(http.MethodPost, rn.d.base+"/sparql", strings.NewReader(text))
	var s sample
	if err == nil {
		req.Header.Set("Content-Type", "application/sparql-update")
		s, err = rn.do(ctx, req, timeout)
	}
	if err == nil {
		var reply struct {
			Inserted int `json:"inserted"`
			Deleted  int `json:"deleted"`
		}
		if err = json.Unmarshal(s.body, &reply); err == nil {
			wantIns, wantDel := updateTriples, 0
			if !inserts {
				wantIns, wantDel = 0, updateTriples
			}
			if reply.Inserted != wantIns || reply.Deleted != wantDel {
				err = fmt.Errorf("update reply inserted=%d deleted=%d, want %d/%d", reply.Inserted, reply.Deleted, wantIns, wantDel)
			}
		}
	}
	if err != nil {
		res.fail(pass, firstLine([]byte(text))+" …", err)
		return s, false
	}
	return s, true
}

func isTimeout(err error) bool {
	type timeouter interface{ Timeout() bool }
	t, ok := err.(timeouter)
	return ok && t.Timeout()
}

func firstLine(b []byte) string {
	line, _, _ := bytes.Cut(bytes.TrimSpace(b), []byte{'\n'})
	if len(line) > 200 {
		line = line[:200]
	}
	return string(line)
}

// Timeouts: a generous fixed one until the warm-up has produced a median
// to calibrate from, then 20× that median, never under 2 s.
const (
	uncalibratedTimeout = 60 * time.Second
	minTimeout          = 2 * time.Second
	timeoutFactor       = 20
)

func calibratedTimeout(warmupMS []float64) time.Duration {
	if len(warmupMS) == 0 {
		return uncalibratedTimeout
	}
	t := time.Duration(timeoutFactor * median(warmupMS) * float64(time.Millisecond))
	return max(t, minTimeout)
}

// runE2E performs one end-to-end run of p against the real binary: the
// cold starts, the warm-up and the timed passes, every answer verified.
func runE2E(ctx context.Context, bin, dataPath string, p *plan, or oracle) (*e2eResult, error) {
	res := &e2eResult{EndToEnd: map[string]float64{}, Layer: map[string]float64{}}
	s := p.Spec
	first := p.Passes[0][0]

	// Cold starts: spawn everything, wait for /healthz, answer one
	// verified query. Every instance but the last is torn down at once;
	// the last one serves the run.
	var setups []float64
	var d *sut
	for i := 0; i < s.ColdStarts; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		d, err = startSUT(ctx, bin, dataPath, s)
		if err != nil {
			return nil, fmt.Errorf("cold start %d: %w", i, err)
		}
		rn := &runner{d: d}
		_, ok := rn.checkedRead(ctx, res, or, first, -1, 0, uncalibratedTimeout)
		setups = append(setups, time.Since(start).Seconds())
		if !ok {
			d.stop()
			return res, fmt.Errorf("cold start %d: first query failed: %s", i, res.Failures[len(res.Failures)-1].Reason)
		}
	}
	defer d.stop()
	rn := &runner{d: d}
	fmt.Fprintf(os.Stderr, "bench: %s: %d cold starts took %.1fs\n", s.Name, s.ColdStarts, sum(setups))

	total := warmupPasses + s.Passes
	perTemplate := map[string][]float64{} // timed passes only
	warmTemplate := map[string][]float64{}
	var warmUpdate []float64
	var passMS, passTTFB, updateMS, calibMS []float64
	var queries int
	var before counters
	var usageBefore procUsage
	warmStart := time.Now()
	var timedStart time.Time

	for i := 0; i < total; i++ {
		timed := i >= warmupPasses
		if i == warmupPasses {
			res.Layer["client.warmup_s"] = time.Since(warmStart).Seconds()
			timedStart = time.Now()
			var err error
			if before, err = d.scrape(ctx); err != nil {
				return res, err
			}
			if usageBefore, err = readProcs(d.pids()); err != nil {
				return res, err
			}
		}
		state := stateOfPass(i)
		var lat, ttfb time.Duration
		for _, o := range p.Passes[i] {
			timeout := uncalibratedTimeout
			if timed {
				timeout = calibratedTimeout(warmTemplate[o.Template])
			}
			smp, ok := rn.checkedRead(ctx, res, or, o, i, state, timeout)
			if err := ctx.Err(); err != nil {
				return res, err
			}
			if !ok {
				continue
			}
			lat += smp.latency
			ttfb += smp.ttfb
			if timed {
				queries++
				perTemplate[o.Template] = append(perTemplate[o.Template], ms(smp.latency))
			} else {
				warmTemplate[o.Template] = append(warmTemplate[o.Template], ms(smp.latency))
			}
		}
		text, inserts := p.updateAfterPass(i)
		timeout := uncalibratedTimeout
		if timed {
			timeout = calibratedTimeout(warmUpdate)
		}
		upd, ok := rn.checkedUpdate(ctx, res, text, inserts, i, timeout)
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if !ok {
			// The data is now in an unknown state; every later answer would
			// fail against the oracle for the wrong reason.
			return res, fmt.Errorf("pass %d: update failed: %s", i, res.Failures[len(res.Failures)-1].Reason)
		}
		if timed {
			passMS = append(passMS, ms(lat))
			passTTFB = append(passTTFB, ms(ttfb)/float64(len(p.Passes[i])))
			updateMS = append(updateMS, ms(upd.latency))
		} else {
			warmUpdate = append(warmUpdate, ms(upd.latency))
		}
		for k := 0; k < calibPerPass; k++ {
			c := calibKernel()
			if timed {
				calibMS = append(calibMS, ms(c))
			}
		}
	}

	fmt.Fprintf(os.Stderr, "bench: %s: warm-up %.1fs, %d timed passes %.1fs\n", s.Name, res.Layer["client.warmup_s"], s.Passes, time.Since(timedStart).Seconds())
	after, err := d.scrape(ctx)
	if err != nil {
		return res, err
	}
	usage, err := readProcs(d.pids())
	if err != nil {
		return res, err
	}

	P := float64(s.Passes)
	calib := calibReading(calibMS)
	norm := normFactor(calib)
	sumPass := sum(passMS)

	res.EndToEnd["setup_s"] = median(setups)
	res.EndToEnd["pass_p50_ms"] = median(passMS) * norm
	res.EndToEnd["update_p50_ms"] = median(updateMS) * norm
	res.EndToEnd["throughput_qps"] = ratio(float64(queries), sumPass/1000*norm)
	cpuMS := (usage.CPUTicks - usageBefore.CPUTicks) / clockTicks * 1000
	res.EndToEnd["cpu_ms_per_pass"] = cpuMS / P * norm
	res.EndToEnd["shipped_bytes_per_pass"] = (after.ShipmentBytes - before.ShipmentBytes) / P
	res.EndToEnd["peak_rss_mb"] = usage.PeakRSSKiB / 1024

	res.Layer["client.pass_p90_ms"] = percentile(passMS, 90) * norm
	res.Layer["client.raw_pass_p50_ms"] = median(passMS)
	res.Layer["client.calib_ms"] = calib
	res.Layer["client.samples"] = P
	for _, t := range allTemplates {
		res.Layer["client."+t+"_p50_ms"] = median(perTemplate[t]) * norm
	}
	res.Layer["server.ttfb_p50_ms"] = median(passTTFB) * norm
	res.Layer["server.write_syscalls_per_pass"] = (usage.WriteCalls - usageBefore.WriteCalls) / P
	hits := after.CacheHits - before.CacheHits
	res.Layer["server.cache_hit_ratio"] = ratio(hits, hits+after.CacheMisses-before.CacheMisses)
	res.Layer["server.engine_share"] = ratio((after.QuerySeconds-before.QuerySeconds)*1000, sumPass)
	return res, nil
}

// writeDataset serialises the plan's graph as N-Triples into the build
// directory and returns the file's path; the caller removes it.
func writeDataset(root string, p *plan) (string, error) {
	f, err := os.CreateTemp(filepath.Join(root, buildDir), fmt.Sprintf("data-%s-seed%d-*.nt", p.Spec.Name, p.Seed))
	if err != nil {
		return "", err
	}
	if err := writeNTriples(f, p); err != nil {
		_ = f.Close() // the write error is the one to report
		_ = os.Remove(f.Name())
		return "", err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}
