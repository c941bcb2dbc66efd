package main

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sort"
	"time"

	"gstored/internal/assembly"
	"gstored/internal/candidates"
	"gstored/internal/cluster"
	"gstored/internal/engine"
	"gstored/internal/fragment"
	"gstored/internal/lec"
	"gstored/internal/partial"
	"gstored/internal/partition"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/remote"
	"gstored/internal/server"
	"gstored/internal/sparql"
	"gstored/internal/store"
)

// span is one timed call into a layer's public function. Spans of one
// repetition share Trace; Parent is the ID of the span that caused this
// one (0 for a repetition's root).
type span struct {
	Trace   string `json:"trace"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Site    int    `json:"site"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// coordinator is the Site of spans not attributable to one fragment.
const coordinator = -1

// tracer keeps spans and the counts taken at the same boundaries in
// memory; they are written out once, when the run ends. The layer drive
// is single-threaded (everything at width 1), so it needs no locking.
type tracer struct {
	t0     time.Time
	Spans  []span
	Counts map[string]map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), Counts: map[string]map[string]float64{}}
}

// do times fn as a span and returns its duration in milliseconds.
func (t *tracer) do(trace, name string, parent, site int, fn func()) float64 {
	id := t.begin(trace, name, parent, site)
	fn()
	return t.end(id)
}

func (t *tracer) begin(trace, name string, parent, site int) int {
	id := len(t.Spans) + 1
	t.Spans = append(t.Spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Site: site, StartNS: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) float64 {
	s := &t.Spans[id-1]
	s.EndNS = int64(time.Since(t.t0))
	return float64(s.EndNS-s.StartNS) / 1e6
}

func (t *tracer) count(trace, name string, v float64) {
	m := t.Counts[trace]
	if m == nil {
		m = map[string]float64{}
		t.Counts[trace] = m
	}
	m[name] += v
}

// selfTimes returns, per span name, the median over traces of the span's
// self time in milliseconds: its duration minus the part its direct
// children cover. The repetition roots' self time is what the drive
// spent outside any layer — the harness's own overhead.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.Spans)+1)
	for _, s := range t.Spans {
		child[s.Parent] += s.EndNS - s.StartNS
	}
	type key struct{ name, trace string }
	perTrace := map[key]float64{}
	for _, s := range t.Spans {
		perTrace[key{s.Name, s.Trace}] += float64(s.EndNS-s.StartNS-child[s.ID]) / 1e6
	}
	byName := map[string][]float64{}
	for k, v := range perTrace {
		byName[k.name] = append(byName[k.name], v)
	}
	out := make(map[string]float64, len(byName))
	for name, vs := range byName {
		out[name] = median(vs)
	}
	return out
}

// acc collects one value per repetition under a metric name and folds the
// repetitions to their median.
type acc map[string][]float64

func (a acc) add(name string, v float64) { a[name] = append(a[name], v) }

func (a acc) medians(into map[string]float64) {
	for name, vs := range a {
		into[name] += median(vs)
	}
}

// countingWriter discards what it is given and counts it.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// layerNames is every per-layer metric the traced drive reports; each is
// reported by every workload, 0 where the layer does no work on it.
var layerNames = []string{
	"rdf.load_ms", "store.index_ms", "partition.assign_ms", "fragment.build_ms",
	"store.apply_ms", "fragment.apply_delta_ms", "fragment.touched_fragments", "fragment.payload_bytes",
	"sparql.parse_us", "sparql.parse_update_us", "query.canonical_key_us",
	"store.match_ms", "store.match_bindings",
	"candidates.compute_ms", "candidates.union_ms", "candidates.vector_bytes", "candidates.filter_ratio",
	"partial.compute_ms", "partial.slowest_fragment_ms", "partial.matches",
	"lec.compute_ms", "lec.prune_ms", "lec.features", "lec.retained_ratio",
	"assembly.assemble_ms", "assembly.join_attempts", "assembly.crossing_matches", "assembly.yield_ratio",
	"engine.execute_ms", "engine.execute_seq_ms", "engine.parallel_speedup", "engine.closure_ratio",
	"engine.full_vs_basic_time_ratio", "engine.full_vs_basic_bytes_ratio", "engine.rows",
	"cluster.local_partial_eval_ms", "cluster.model_bytes_per_pass", "cluster.messages_per_pass",
	"remote.partial_eval_ms", "remote.overhead_ratio", "remote.wire_bytes_per_pass", "remote.wire_bytes_per_match",
	"remote.swap_ms", "remote.ship_all_ms",
	"server.serialize_json_ms", "server.serialize_tsv_ms", "server.body_bytes_per_pass",
}

// layerDrive is the traced run's state: the workload's data built stage
// by stage through the layers' public functions.
type layerDrive struct {
	p      *plan
	tr     *tracer
	reps   int
	calib  []float64
	dict   *rdf.Dictionary
	st     *store.Store
	assign *partition.Assignment
	dist   *fragment.Distributed
	// withDelta is dist with the update's insert applied, touched the
	// fragments that rebuilt; update() leaves them for the remote swaps.
	withDelta *fragment.Distributed
	touched   []int
	// m accumulates per-pass figures: for each metric, the sum over the
	// workload's templates of the median over that template's
	// repetitions.
	m map[string]float64
}

// runLayers drives every layer of the pipeline on p's dataset and query
// templates from the bench process, at width 1, recording a span per call
// and the counts at the same boundary. Times are medians over reps
// repetitions, normalised by calibration kernel runs interleaved with
// them. The e2e run is never traced; this is a separate run.
func runLayers(ctx context.Context, p *plan, dataPath string, reps int) (map[string]float64, *tracer, error) {
	ld := &layerDrive{p: p, tr: newTracer(), reps: reps, m: map[string]float64{}}
	for _, name := range layerNames {
		ld.m[name] = 0
	}
	if err := ld.setup(dataPath); err != nil {
		return nil, nil, err
	}
	if err := ld.update(ctx); err != nil {
		return nil, nil, err
	}
	var rs *remoteSites
	if p.Spec.SiteWorkers > 0 {
		var err error
		if rs, err = ld.startRemote(ctx); err != nil {
			return nil, nil, err
		}
		defer rs.close()
	}
	for _, ts := range p.Templates {
		if err := ld.template(ctx, ts, rs); err != nil {
			return nil, nil, fmt.Errorf("template %s: %w", ts.Name, err)
		}
	}

	m := ld.m
	staged := m["candidates.compute_ms"] + m["candidates.union_ms"] + m["cluster.local_partial_eval_ms"] +
		m["lec.compute_ms"] + m["lec.prune_ms"] + m["assembly.assemble_ms"]
	m["engine.closure_ratio"] = ratio(staged, m["engine.execute_seq_ms"])
	m["engine.parallel_speedup"] = ratio(m["engine.execute_seq_ms"], m["engine.execute_ms"])
	m["engine.full_vs_basic_time_ratio"] = ratio(m["engine.execute_seq_ms"], m["engine.basic_seq_ms"])
	m["engine.full_vs_basic_bytes_ratio"] = ratio(m["cluster.model_bytes_per_pass"], m["engine.basic_bytes"])
	m["candidates.filter_ratio"] = ratio(m["partial.matches"], m["partial.matches_unfiltered"])
	m["lec.retained_ratio"] = ratio(m["lec.retained"], m["partial.matches"])
	m["assembly.yield_ratio"] = ratio(m["assembly.crossing_matches"], m["assembly.join_attempts"])
	m["remote.overhead_ratio"] = ratio(m["remote.partial_eval_ms"], m["cluster.local_partial_eval_ms"])
	m["remote.wire_bytes_per_match"] = ratio(m["remote.partial_wire_bytes"], m["partial.matches"])

	// Normalise the time-valued metrics like the e2e ones; ratios and
	// counts are left as measured.
	norm := normFactor(calibReading(ld.calib))
	out := make(map[string]float64, len(layerNames))
	for _, name := range layerNames {
		v := m[name]
		if u := unitOf(name); u == "ms" || u == "us" {
			v *= norm
		}
		out[name] = v
	}
	return out, ld.tr, nil
}

// calibrate takes one pass-worth of kernel samples.
func (ld *layerDrive) calibrate() {
	for k := 0; k < calibPerPass; k++ {
		ld.calib = append(ld.calib, ms(calibKernel()))
	}
}

// setup times the load path layer by layer, reps times, and keeps the
// last repetition's structures for the stages that follow.
func (ld *layerDrive) setup(dataPath string) error {
	a := acc{}
	for rep := 0; rep < ld.reps; rep++ {
		trace := fmt.Sprintf("%s/setup/%d", ld.p.Spec.Name, rep)
		tr := ld.tr
		root := tr.begin(trace, "bench.setup", 0, coordinator)
		var g *rdf.Graph
		var err error
		f, err := os.Open(dataPath)
		if err != nil {
			return err
		}
		a.add("rdf.load_ms", tr.do(trace, "rdf.load_ms", root, coordinator, func() { g, err = rdf.ReadNTriples(f) }))
		_ = f.Close() // read-only file; nothing to lose
		if err != nil {
			return fmt.Errorf("rdf.ReadNTriples: %w", err)
		}
		var st *store.Store
		a.add("store.index_ms", tr.do(trace, "store.index_ms", root, coordinator, func() { st = store.FromGraph(g) }))
		var assign *partition.Assignment
		a.add("partition.assign_ms", tr.do(trace, "partition.assign_ms", root, coordinator, func() {
			assign, err = partition.Hash{}.Partition(st, numSites)
		}))
		if err != nil {
			return fmt.Errorf("partition: %w", err)
		}
		var dist *fragment.Distributed
		a.add("fragment.build_ms", tr.do(trace, "fragment.build_ms", root, coordinator, func() {
			dist, err = fragment.Build(st, assign)
		}))
		if err != nil {
			return fmt.Errorf("fragment.Build: %w", err)
		}
		tr.end(root)
		tr.count(trace, "triples", float64(st.Len()))
		ld.dict, ld.st, ld.assign, ld.dist = g.Dict, st, assign, dist
		ld.calibrate()
	}
	a.medians(ld.m)
	if ld.p.Spec.SiteWorkers > 0 {
		// What the initial ship puts on the wire: every fragment's payload
		// in the transport's own encoding.
		var w countingWriter
		enc := gob.NewEncoder(&w)
		for _, f := range ld.dist.Fragments {
			if err := enc.Encode(f.Payload()); err != nil {
				return fmt.Errorf("encode payload: %w", err)
			}
		}
		ld.m["fragment.payload_bytes"] = float64(w.n)
	}
	return nil
}

// delta encodes the plan's update triples against the drive's dictionary,
// in the order DB.Update applies them.
func (ld *layerDrive) delta() []rdf.Triple {
	out := make([]rdf.Triple, 0, len(ld.p.Delta))
	for _, t := range ld.p.Delta {
		out = append(out, rdf.Triple{S: ld.dict.Encode(t[0]), P: ld.dict.Encode(t[1]), O: ld.dict.Encode(t[2])})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// update times the write path's layers on the 8-triple insert.
func (ld *layerDrive) update(ctx context.Context) error {
	inserted := ld.delta()
	ends := make([]rdf.TermID, 0, 2*len(inserted))
	for _, t := range inserted {
		ends = append(ends, t.S, t.O)
	}
	a := acc{}
	for rep := 0; rep < ld.reps; rep++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		trace := fmt.Sprintf("%s/update/%d", ld.p.Spec.Name, rep)
		tr := ld.tr
		root := tr.begin(trace, "bench.update", 0, coordinator)
		var err error
		a.add("sparql.parse_update_us", 1000*tr.do(trace, "sparql.parse_update_us", root, coordinator, func() {
			_, err = sparql.ParseUpdate(ld.p.Insert)
		}))
		if err != nil {
			return fmt.Errorf("sparql.ParseUpdate: %w", err)
		}
		var next *store.Store
		a.add("store.apply_ms", tr.do(trace, "store.apply_ms", root, coordinator, func() { next = ld.st.Apply(inserted, nil) }))
		assign := ld.assign.WithVertices(ld.dict, ends)
		a.add("fragment.apply_delta_ms", tr.do(trace, "fragment.apply_delta_ms", root, coordinator, func() {
			ld.withDelta, ld.touched, err = ld.dist.ApplyDelta(next, assign, inserted, nil)
		}))
		if err != nil {
			return fmt.Errorf("ApplyDelta: %w", err)
		}
		tr.end(root)
		tr.count(trace, "fragment.touched_fragments", float64(len(ld.touched)))
		a.add("fragment.touched_fragments", float64(len(ld.touched)))
		ld.calibrate()
	}
	a.medians(ld.m)
	return nil
}

// remoteSites is the drive's two in-process remote.Workers on loopback
// with every fragment shipped to them.
type remoteSites struct {
	workers []*remote.Worker
	coord   *remote.Coordinator
	sites   []cluster.Site
}

func (rs *remoteSites) close() {
	if rs.coord != nil {
		_ = rs.coord.Close() // documented to never fail
	}
	for _, w := range rs.workers {
		_ = w.Close() // listener teardown at the end of the run
	}
}

// startRemote times the initial ship of every fragment and a delta swap
// (prepare + commit at every site) against real sockets.
func (ld *layerDrive) startRemote(ctx context.Context) (*remoteSites, error) {
	rs := &remoteSites{}
	ok := false
	defer func() {
		if !ok {
			rs.close()
		}
	}()
	var addrs []string
	for i := 0; i < ld.p.Spec.SiteWorkers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		w := remote.NewWorker(1)
		rs.workers = append(rs.workers, w)
		addrs = append(addrs, ln.Addr().String())
		// Serve returns when Close (in rs.close) shuts the listener.
		go func() { _ = w.Serve(ln) }()
	}
	coord, err := remote.Connect(addrs...)
	if err != nil {
		return nil, err
	}
	rs.coord = coord

	// swap runs one two-phase broadcast: touched == nil ships every
	// fragment, otherwise only the listed ones travel.
	epoch := uint64(0)
	swap := func(prev []cluster.Site, dist *fragment.Distributed, touched []int) ([]cluster.Site, error) {
		epoch++
		next := make([]cluster.Site, len(dist.Fragments))
		for i, f := range dist.Fragments {
			s := cluster.Site(coord.NewSite(i))
			if prev != nil {
				s = prev[i]
			}
			var payload *fragment.Fragment
			if touched == nil || slices.Contains(touched, i) {
				payload = f
			}
			staged, err := s.SwapGeneration(ctx, cluster.GenerationSwap{Phase: cluster.SwapPrepare, Epoch: epoch, Fragment: payload})
			if err != nil {
				return nil, fmt.Errorf("prepare site %d: %w", i, err)
			}
			next[i] = staged
		}
		for i, s := range next {
			if _, err := s.SwapGeneration(ctx, cluster.GenerationSwap{Phase: cluster.SwapCommit, Epoch: epoch}); err != nil {
				return nil, fmt.Errorf("commit site %d: %w", i, err)
			}
		}
		return next, nil
	}

	a := acc{}
	tr := ld.tr
	for rep := 0; rep < ld.reps; rep++ {
		trace := fmt.Sprintf("%s/ship/%d", ld.p.Spec.Name, rep)
		var err error
		a.add("remote.ship_all_ms", tr.do(trace, "remote.ship_all_ms", 0, coordinator, func() {
			rs.sites, err = swap(rs.sites, ld.dist, nil)
		}))
		if err != nil {
			return nil, err
		}
		ld.calibrate()
	}

	// Delta swaps alternate between the generation with the update applied
	// and the base one, the way the e2e passes do.
	for rep := 0; rep < 2*(ld.reps/2+1); rep++ {
		trace := fmt.Sprintf("%s/swap/%d", ld.p.Spec.Name, rep)
		dist := ld.withDelta
		if rep%2 == 1 {
			dist = ld.dist
		}
		var err error
		a.add("remote.swap_ms", tr.do(trace, "remote.swap_ms", 0, coordinator, func() {
			rs.sites, err = swap(rs.sites, dist, ld.touched)
		}))
		if err != nil {
			return nil, err
		}
	}
	a.medians(ld.m)
	ok = true
	return rs, nil
}

// instance is one sample op of a template, compiled and planned.
type instance struct {
	op     op
	q      *query.Graph
	order  []int // edge-evaluation order, as MatchOptions.Order takes it
	rank   []int // the same plan as rank per edge, as partial.Options takes it
	star   bool
	center int
}

// templateAcc gathers one template's repetitions.
type templateAcc struct {
	times  acc
	counts acc
	// perFrag[i] collects fragment i's partial.Compute times, so the
	// slowest fragment is the maximum of per-fragment medians.
	perFrag [][]float64
}

// template drives one query template through the pipeline stage by stage,
// reps times in total spread over its sample instances.
func (ld *layerDrive) template(ctx context.Context, ts templateSample, rs *remoteSites) error {
	perOp := (ld.reps + len(ts.Ops) - 1) / len(ts.Ops)
	t := &templateAcc{times: acc{}, counts: acc{}, perFrag: make([][]float64, len(ld.dist.Fragments))}
	eng := engine.New(ld.dist)
	sites := cluster.LocalSites(ld.dist, 1)
	rep := 0
	for _, o := range ts.Ops {
		in := instance{op: o}
		var err error
		if in.q, err = sparql.ParseReadOnly(o.Query, ld.dict); err != nil {
			return err
		}
		// The engine plans privately; its chosen order is public in the
		// stats of any execution, which is what the staged drive replays.
		first, err := ld.execute(ctx, eng, in.q, o, engine.Config{Mode: engine.Full, EvalWorkers: 1})
		if err != nil {
			return err
		}
		in.order = make([]int, len(first.Stats.Plan))
		in.rank = make([]int, len(first.Stats.Plan))
		for i, pe := range first.Stats.Plan {
			in.order[i] = pe.Edge
			in.rank[pe.Edge] = i
		}
		in.center, in.star = in.q.StarCenter()

		for r := 0; r < perOp; r++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			trace := fmt.Sprintf("%s/%s/%d", ld.p.Spec.Name, ts.Name, rep)
			rep++
			req, matches, err := ld.staged(ctx, trace, in, sites, t)
			if err != nil {
				return err
			}
			if err := ld.direct(trace, in, req, matches, t); err != nil {
				return err
			}
			if err := ld.engineRuns(ctx, eng, in, trace, r == 0, t); err != nil {
				return err
			}
			if rs != nil {
				if err := ld.remoteRun(ctx, rs, req, trace, t); err != nil {
					return err
				}
			}
			ld.calibrate()
		}

		if !in.star {
			// The LO configuration's partial matches: the same enumeration
			// without the candidate-vector filter. Once per instance — it is
			// a count, not a timing.
			n := 0
			for _, f := range ld.dist.Fragments {
				got, err := partial.Compute(f, in.q, partial.Options{EdgeRank: in.rank})
				if err != nil {
					return err
				}
				n += len(got)
			}
			for r := 0; r < perOp; r++ {
				t.counts.add("partial.matches_unfiltered", float64(n))
			}
		}
	}
	t.times.medians(ld.m)
	t.counts.medians(ld.m)
	var slowest float64
	for _, ds := range t.perFrag {
		slowest = max(slowest, median(ds))
	}
	ld.m["partial.slowest_fragment_ms"] += slowest
	return nil
}

// staged is one repetition of the pipeline proper, every stage a child
// span of one root: parse → canonical key → candidates per site → union →
// Site.PartialEval per site → lec.Compute/Prune → assembly.Assemble →
// serialize. It returns the partial-evaluation request it issued and the
// number of partial matches that came back, for the direct calls to check
// themselves against.
func (ld *layerDrive) staged(ctx context.Context, trace string, in instance, sites []cluster.Site, t *templateAcc) (cluster.PartialRequest, int, error) {
	tr, q, o := ld.tr, in.q, in.op
	k := len(sites)
	req := cluster.PartialRequest{Query: q, Star: in.star, Center: in.center, Order: in.order, EdgeRank: in.rank}
	root := tr.begin(trace, "bench.pipeline", 0, coordinator)
	var err error
	t.times.add("sparql.parse_us", 1000*tr.do(trace, "sparql.parse_us", root, coordinator, func() {
		_, err = sparql.ParseReadOnly(o.Query, ld.dict)
	}))
	if err != nil {
		return req, 0, err
	}
	t.times.add("query.canonical_key_us", 1000*tr.do(trace, "query.canonical_key_us", root, coordinator, func() {
		_ = query.CanonicalKey(q)
	}))

	if !in.star {
		var candMS float64
		var vecBytes int
		vecs := make([]*candidates.SiteVectors, k)
		for i, f := range ld.dist.Fragments {
			candMS += tr.do(trace, "candidates.compute_ms", root, i, func() {
				vecs[i] = candidates.ComputeSite(f, q, candidates.DefaultBits)
			})
			vecBytes += vecs[i].ShipmentBytes()
		}
		t.times.add("candidates.compute_ms", candMS)
		t.times.add("candidates.union_ms", tr.do(trace, "candidates.union_ms", root, coordinator, func() {
			req.Union, err = candidates.Union(vecs, q, candidates.DefaultBits)
		}))
		if err != nil {
			return req, 0, err
		}
		// Site vectors up, the union broadcast back down.
		t.counts.add("candidates.vector_bytes", float64(vecBytes+k*req.Union.ShipmentBytes()))
	}

	var rows []engine.Row
	emit := func(row []rdf.TermID) bool {
		rows = append(rows, engine.Row(row))
		return o.Limit == 0 || len(rows) < o.Limit
	}
	var pms []*partial.Match
	var evalMS float64
	var local int
	for i, s := range sites {
		if o.Limit > 0 && len(rows) >= o.Limit {
			break // the engine cancels the remaining sites once LIMIT is met
		}
		var reply cluster.PartialReply
		evalMS += tr.do(trace, "cluster.local_partial_eval_ms", root, i, func() {
			reply, err = s.PartialEval(ctx, req, emit)
		})
		if err != nil {
			return req, 0, err
		}
		pms = append(pms, reply.Matches...)
		local += reply.LocalMatches
	}
	t.times.add("cluster.local_partial_eval_ms", evalMS)
	tr.count(trace, "local_matches", float64(local))

	if !in.star {
		var features []*lec.Feature
		var featureOf []int
		t.times.add("lec.compute_ms", tr.do(trace, "lec.compute_ms", root, coordinator, func() {
			features, featureOf = lec.Compute(pms)
		}))
		var pruned lec.PruneResult
		t.times.add("lec.prune_ms", tr.do(trace, "lec.prune_ms", root, coordinator, func() {
			pruned = lec.Prune(features, q)
		}))
		kept := make([]*partial.Match, 0, len(pms))
		for i, pm := range pms {
			if pruned.Retained[featureOf[i]] {
				kept = append(kept, pm)
			}
		}
		var asm assembly.Stats
		t.times.add("assembly.assemble_ms", tr.do(trace, "assembly.assemble_ms", root, coordinator, func() {
			_, asm = assembly.Assemble(kept, q, assembly.Options{UseLEC: true, Emit: func(cm assembly.Result) bool {
				rows = append(rows, assembledRow(q, cm))
				return true
			}})
		}))
		for _, c := range []struct {
			name string
			v    int
		}{
			{"partial.matches", len(pms)}, {"lec.features", len(features)}, {"lec.retained", len(kept)},
			{"assembly.join_attempts", asm.JoinAttempts}, {"assembly.crossing_matches", asm.Results},
		} {
			tr.count(trace, c.name, float64(c.v))
			t.counts.add(c.name, float64(c.v))
		}
	}

	// Serialize what the pipeline produced, in the op's format.
	res := &engine.Result{Query: q, Rows: rows}
	var w countingWriter
	name, write := "server.serialize_json_ms", server.WriteResultsJSON
	if o.TSV {
		name, write = "server.serialize_tsv_ms", server.WriteResultsTSV
	}
	t.times.add(name, tr.do(trace, name, root, coordinator, func() {
		err = write(&w, ld.dict, projectedVars(q), res.EachProjected)
	}))
	if err != nil {
		return req, 0, err
	}
	tr.end(root)
	tr.count(trace, "rows", float64(len(rows)))
	tr.count(trace, "body_bytes", float64(w.n))
	t.counts.add("server.body_bytes_per_pass", float64(w.n))
	t.counts.add("engine.rows", float64(len(rows)))
	return req, len(pms), nil
}

// direct calls the layers' own entry points beside the staged pipeline,
// each as its own trace root: partial.Compute per fragment (the staged
// run reaches it only through Site.PartialEval) and Store.Match on the
// global store.
func (ld *layerDrive) direct(trace string, in instance, req cluster.PartialRequest, stagedMatches int, t *templateAcc) error {
	if !in.star {
		var sumMS float64
		var n int
		for i, f := range ld.dist.Fragments {
			var got []*partial.Match
			var err error
			d := ld.tr.do(trace+"/partial", "partial.compute_ms", 0, i, func() {
				got, err = partial.Compute(f, in.q, partial.Options{ExtendedFilter: req.Union.Filter(), EdgeRank: in.rank})
			})
			if err != nil {
				return err
			}
			t.perFrag[i] = append(t.perFrag[i], d)
			sumMS += d
			n += len(got)
		}
		t.times.add("partial.compute_ms", sumMS)
		if n != stagedMatches {
			return fmt.Errorf("partial.Compute found %d matches, Site.PartialEval %d", n, stagedMatches)
		}
	}
	t.times.add("store.match_ms", ld.tr.do(trace+"/match", "store.match_ms", 0, coordinator, func() {
		t.counts.add("store.match_bindings", float64(len(ld.st.Match(in.q))))
	}))
	return nil
}

// execute runs q through the engine the way the server would for o:
// streaming with early termination for an unordered LIMIT op, ordered and
// materialised otherwise.
func (ld *layerDrive) execute(ctx context.Context, eng *engine.Engine, q *query.Graph, o op, cfg engine.Config) (*engine.Result, error) {
	if o.Limit > 0 {
		return eng.ExecuteStream(ctx, q, cfg, func(engine.Row) bool { return true })
	}
	return eng.ExecuteContext(ctx, q, cfg)
}

// engineRuns times whole-engine executions: default width and width 1 on
// every repetition, and — on an instance's first repetition only — the
// Basic mode of the paper's ablation at width 1. Basic's baseline join is
// some 30x slower on LQ7 (seconds per execution); its ratio to Full is
// far from 1 and needs no median to be read.
func (ld *layerDrive) engineRuns(ctx context.Context, eng *engine.Engine, in instance, trace string, firstRep bool, t *templateAcc) error {
	for _, run := range []struct {
		name string
		cfg  engine.Config
		skip bool
	}{
		{"engine.execute_ms", engine.Config{Mode: engine.Full}, false},
		{"engine.execute_seq_ms", engine.Config{Mode: engine.Full, EvalWorkers: 1}, false},
		{"engine.basic_seq_ms", engine.Config{Mode: engine.Basic, EvalWorkers: 1}, !firstRep},
	} {
		if run.skip {
			continue
		}
		var res *engine.Result
		var err error
		t.times.add(run.name, ld.tr.do(trace+"/engine", run.name, 0, coordinator, func() {
			res, err = ld.execute(ctx, eng, in.q, in.op, run.cfg)
		}))
		if err != nil {
			return fmt.Errorf("%s: %w", run.name, err)
		}
		switch run.name {
		case "engine.execute_seq_ms":
			t.counts.add("cluster.model_bytes_per_pass", float64(res.Stats.TotalShipment))
			t.counts.add("cluster.messages_per_pass", float64(res.Stats.Messages))
		case "engine.basic_seq_ms":
			t.counts.add("engine.basic_bytes", float64(res.Stats.TotalShipment))
		}
	}
	return nil
}

// remoteRun issues the staged pipeline's site calls through remote.Site
// against the loopback workers.
func (ld *layerDrive) remoteRun(ctx context.Context, rs *remoteSites, req cluster.PartialRequest, trace string, t *templateAcc) error {
	var evalMS float64
	var wire, partialWire int64
	for i, s := range rs.sites {
		if !req.Star {
			rep, err := s.Candidates(ctx, cluster.CandidatesRequest{Query: req.Query, Bits: candidates.DefaultBits})
			if err != nil {
				return err
			}
			wire += rep.Wire
		}
		var rep cluster.PartialReply
		var err error
		evalMS += ld.tr.do(trace+"/remote", "remote.partial_eval_ms", 0, i, func() {
			rep, err = s.PartialEval(ctx, req, func([]rdf.TermID) bool { return true })
		})
		if err != nil {
			return err
		}
		wire += rep.Wire
		partialWire += rep.Wire
	}
	t.times.add("remote.partial_eval_ms", evalMS)
	t.counts.add("remote.wire_bytes_per_pass", float64(wire))
	t.counts.add("remote.partial_wire_bytes", float64(partialWire))
	return nil
}

// assembledRow converts an assembled crossing match into a variable
// binding row, as the engine does for its own sink.
func assembledRow(q *query.Graph, r assembly.Result) engine.Row {
	row := make(engine.Row, len(q.Vars))
	for i, v := range q.Vertices {
		if v.IsVar() {
			row[v.Var] = r.Vec[i]
		}
	}
	for _, ev := range q.EdgeVars() {
		row[ev] = r.EdgeVars[ev]
	}
	return row
}

func projectedVars(q *query.Graph) []string {
	if len(q.Projection) == 0 {
		return q.Vars
	}
	out := make([]string, len(q.Projection))
	for i, v := range q.Projection {
		out[i] = q.Vars[v]
	}
	return out
}

// writeTrace writes the spans, the counts and the per-name self times as
// one JSON document.
func writeTrace(w io.Writer, tr *tracer) error {
	return jsonEncode(w, struct {
		Spans  []span                        `json:"spans"`
		Counts map[string]map[string]float64 `json:"counts"`
		SelfMS map[string]float64            `json:"self_ms"`
	}{tr.Spans, tr.Counts, tr.selfTimes()})
}
