package remote

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gstored/internal/candidates"
	"gstored/internal/cluster"
	"gstored/internal/fragment"
	"gstored/internal/paperexample"
	"gstored/internal/partial"
	"gstored/internal/partition"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/store"
	"gstored/internal/workload"
)

// startWorker runs a worker on a loopback listener and tears it down
// with the test.
func startWorker(t *testing.T) (*Worker, string) {
	t.Helper()
	w := NewWorker(0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := w.Serve(ln); err != nil {
			t.Errorf("worker serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		if err := w.Close(); err != nil {
			t.Errorf("worker close: %v", err)
		}
		<-done
	})
	return w, ln.Addr().String()
}

// deploy installs every fragment of the paper example at epoch on the
// worker set and returns the sites serving it.
func deploy(t *testing.T, c *Coordinator, d *fragment.Distributed, epoch uint64) []cluster.Site {
	t.Helper()
	sites := make([]cluster.Site, len(d.Fragments))
	for i, f := range d.Fragments {
		s, err := c.NewSite(i).SwapGeneration(context.Background(), cluster.GenerationSwap{Epoch: epoch, Fragment: f})
		if err != nil {
			t.Fatalf("install site %d: %v", i, err)
		}
		sites[i] = s
	}
	return sites
}

// resident counts the generations w holds per site.
func resident(w *Worker) map[int]int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := make(map[int]int, len(w.sites))
	for site, gens := range w.sites {
		n[site] = len(gens)
	}
	return n
}

// bufConn is a conn over a buffer: what one side sends the same side
// receives, which is all the framing tests need.
type bufConn struct {
	net.Conn
	buf bytes.Buffer
}

func (b *bufConn) Read(p []byte) (int, error)  { return b.buf.Read(p) }
func (b *bufConn) Write(p []byte) (int, error) { return b.buf.Write(p) }

// TestReadFrameDoesNotTrustLengthPrefix: a header declaring maxFrame
// followed by a 10-byte body is an error that costs what arrived, not
// what was declared — the prefix comes off an unauthenticated socket.
func TestReadFrameDoesNotTrustLengthPrefix(t *testing.T) {
	garbage := &bufConn{}
	if err := binary.Write(&garbage.buf, binary.BigEndian, uint32(maxFrame)); err != nil {
		t.Fatal(err)
	}
	garbage.buf.WriteString("0123456789")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, n, err := (&conn{Conn: garbage}).recv()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("recv = %d, %v; want io.ErrUnexpectedEOF", n, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("truncated maxFrame frame allocated %d bytes, want < 1 MiB", alloc)
	}

	// One past the limit is still rejected from the header alone.
	over := &bufConn{}
	if err := binary.Write(&over.buf, binary.BigEndian, uint32(maxFrame+1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := (&conn{Conn: over}).recv(); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("oversized frame error = %v, want the limit rejection", err)
	}
}

// TestFrameRoundTripAcrossChunks: a frame larger than frameChunk takes
// the incremental-growth path and must decode identically; the small
// frame after it reuses the grown buffers.
func TestFrameRoundTripAcrossChunks(t *testing.T) {
	want := request{Op: opPartial, Order: make([]int, 3*frameChunk)}
	for i := range want.Order {
		want.Order[i] = i * 7919
	}
	c := &conn{Conn: &bufConn{}}
	for _, want := range []request{want, {Op: opStats, Site: 2}} {
		wrote, err := c.send(&want)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Order) > 0 && wrote <= 2*frameChunk {
			t.Fatalf("fixture frame is %d bytes; want several chunks", wrote)
		}
		body, read, err := c.recv()
		if err != nil || read != wrote {
			t.Fatalf("recv = %d, %v; want %d, nil", read, err, wrote)
		}
		var got request
		if err := got.decode(body); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("a %d-byte frame decoded differently", wrote)
		}
	}
}

func TestErrKindRoundTrip(t *testing.T) {
	cases := []error{
		nil,
		partial.ErrCanceled,
		fmt.Errorf("wrapping: %w", partial.ErrCanceled),
		fmt.Errorf("wrapping: %w", cluster.ErrNeedSync),
		errors.New("plain failure"),
	}
	for _, want := range cases {
		var r response
		r.setErr(want)
		got := r.err()
		switch {
		case want == nil:
			if got != nil {
				t.Errorf("nil became %v", got)
			}
		case errors.Is(want, partial.ErrCanceled):
			if !errors.Is(got, partial.ErrCanceled) {
				t.Errorf("canceled identity lost: %v", got)
			}
		case errors.Is(want, cluster.ErrNeedSync):
			if !errors.Is(got, cluster.ErrNeedSync) {
				t.Errorf("need-sync identity lost: %v", got)
			}
		default:
			if got == nil || got.Error() != want.Error() {
				t.Errorf("generic error %q became %v", want, got)
			}
		}
	}
}

// TestRemoteSiteMatchesLocalSite pins the RPC implementation against the
// in-process oracle on the paper's worked example: candidates, partial
// evaluation (streamed rows and gathered matches), stats, epochs. Then,
// on LUBM(1) over four hash sites, the partial matches of LQ1–LQ7 and of
// a query with an edge-label variable.
func TestRemoteSiteMatchesLocalSite(t *testing.T) {
	t.Run("LUBM1/hash/4", remoteLUBMMatchesLocal)
	ex := paperexample.New()
	d, err := fragment.Build(ex.Store, ex.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startWorker(t)
	c, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sites := deploy(t, c, d, 1)
	ctx := context.Background()
	q := ex.Query

	for i, s := range sites {
		oracle := cluster.NewLocalSite(i, d.Fragments[i], 1)

		wantC, err := oracle.Candidates(ctx, cluster.CandidatesRequest{Query: q, Bits: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		gotC, err := s.Candidates(ctx, cluster.CandidatesRequest{Query: q, Bits: 1 << 10})
		if err != nil {
			t.Fatalf("site %d candidates: %v", i, err)
		}
		if gotC.Wire <= 0 || gotC.WireMessages < 2 {
			t.Errorf("site %d candidates wire = %d bytes / %d messages", i, gotC.Wire, gotC.WireMessages)
		}
		// The worker forwards the site's own timing of its one task.
		if wantC.Tasks != 1 || gotC.Tasks != 1 || gotC.Busy <= 0 {
			t.Errorf("site %d candidates work = %d tasks / %v busy (in process %d tasks), want one timed task", i, gotC.Tasks, gotC.Busy, wantC.Tasks)
		}
		if !bytes.Equal(wantC.Vectors.AppendBinary(nil), gotC.Vectors.AppendBinary(nil)) {
			t.Errorf("site %d candidate vectors diverged", i)
		}

		gotP, err := samePartial(ctx, oracle, s, cluster.PartialRequest{Query: q})
		if err != nil {
			t.Errorf("site %d: %v", i, err)
		}
		if gotP.Wire <= 0 {
			t.Errorf("site %d partial wire = %d", i, gotP.Wire)
		}

		info, err := s.Stats(ctx)
		if err != nil {
			t.Fatalf("site %d stats: %v", i, err)
		}
		if info.Epoch != 1 || info.Addr != addr || info.Fragments != len(d.Fragments) {
			t.Errorf("site %d info = %+v", i, info)
		}
	}
}

// samePartial runs req on oracle and on s and reports how s's reply
// differs: the streamed rows as a set, the local-match count, and the
// partial matches deep-equal and in order — so a crossing list derived
// after decoding must be the one the enumerator built, and an EdgeVars
// the query has no label variable for must be nil on both sides.
func samePartial(ctx context.Context, oracle, s cluster.Site, req cluster.PartialRequest) (cluster.PartialReply, error) {
	var wantRows, gotRows []string
	want, err := oracle.PartialEval(ctx, req, func(row []rdf.TermID) bool {
		wantRows = append(wantRows, fmt.Sprint(row))
		return true
	})
	if err != nil {
		return want, fmt.Errorf("in process: %w", err)
	}
	got, err := s.PartialEval(ctx, req, func(row []rdf.TermID) bool {
		gotRows = append(gotRows, fmt.Sprint(row))
		return true
	})
	if err != nil {
		return got, fmt.Errorf("remote: %w", err)
	}
	sort.Strings(wantRows)
	sort.Strings(gotRows)
	switch {
	case !slices.Equal(wantRows, gotRows):
		return got, fmt.Errorf("streamed rows diverged: %v vs %v", gotRows, wantRows)
	case got.LocalMatches != want.LocalMatches:
		return got, fmt.Errorf("local matches = %d, want %d", got.LocalMatches, want.LocalMatches)
	case len(got.Matches) != len(want.Matches):
		return got, fmt.Errorf("%d partial matches, want %d", len(got.Matches), len(want.Matches))
	}
	for k, m := range got.Matches {
		if !reflect.DeepEqual(m, want.Matches[k]) {
			return got, fmt.Errorf("partial match %d = %+v, want %+v", k, *m, *want.Matches[k])
		}
	}
	return got, nil
}

// remoteLUBMMatchesLocal: on LUBM(1) over four hash sites, a loopback
// worker's partial matches — the crossing lists rebuilt from the shipped
// vector and sign — equal the in-process site's for LQ1–LQ7 and for a
// query with an edge-label variable.
func remoteLUBMMatchesLocal(t *testing.T) {
	ds := workload.NewLUBM(workload.LUBMConfig{Universities: 1, Seed: 7})
	global := store.FromGraph(ds.Graph)
	a, err := partition.Hash{}.Partition(global, 4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := fragment.Build(global, a)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startWorker(t)
	c, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sites := deploy(t, c, d, 1)
	queries := append(slices.Clone(ds.Queries), workload.BenchQuery{
		Name:   "label variable",
		SPARQL: `SELECT ?x ?p ?y ?z WHERE { ?x ?p ?y . ?y <` + workload.LubmWorksFor + `> ?z }`,
	})
	ctx := context.Background()
	for _, bq := range queries {
		q, err := bq.Parse(ds.Graph.Dict)
		if err != nil {
			t.Fatal(err)
		}
		pms, labels := 0, 0
		for i, s := range sites {
			oracle := cluster.NewLocalSite(i, d.Fragments[i], 1)
			rep, err := samePartial(ctx, oracle, s, cluster.PartialRequest{Query: q})
			if err != nil {
				t.Errorf("%s, site %d: %v", bq.Name, i, err)
			}
			pms += len(rep.Matches)
			for _, m := range rep.Matches {
				if m.EdgeVars != nil {
					labels++
				}
			}
		}
		t.Logf("%s: %d partial matches", bq.Name, pms)
		if wantLabels := len(q.EdgeVars()) > 0; wantLabels && labels == 0 && pms > 0 {
			t.Errorf("%s: no partial match carries its edge-label binding", bq.Name)
		}
	}
}

// TestMalformedMatchIsAnError: a scripted peer that speaks the frame
// codec answers a partial request with a set of one match that does not
// fit the query — its vector stride one slot short, a sign bit past the
// vector, or edge-label bindings for a query without a label variable.
// Each call fails with an error instead of indexing out of range; the
// match as the site built it comes back whole.
func TestMalformedMatchIsAnError(t *testing.T) {
	ex := paperexample.New()
	d, err := fragment.Build(ex.Store, ex.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	q := ex.Query
	ctx := context.Background()
	want, err := cluster.NewLocalSite(0, d.Fragments[0], 1).PartialEval(ctx, cluster.PartialRequest{Query: q}, func([]rdf.TermID) bool { return true })
	if err != nil || len(want.Matches) == 0 {
		t.Fatalf("in process: %d partial matches, %v", len(want.Matches), err)
	}
	good := want.Matches[0]

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var reply atomic.Pointer[partial.Set]
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			peer := &conn{Conn: nc}
			for {
				if _, _, err := peer.recv(); err != nil {
					break
				}
				if _, err := peer.send(&response{Done: true, Set: *reply.Load()}); err != nil {
					break
				}
			}
			nc.Close()
		}
	}()
	coord, err := Connect(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	site := coord.NewSite(0)
	call := func(s partial.Set) (cluster.PartialReply, error) {
		reply.Store(&s)
		return site.PartialEval(ctx, cluster.PartialRequest{Query: q}, func([]rdf.TermID) bool { return true })
	}
	one := func() partial.Set {
		return partial.Set{Stride: len(good.Vec), Sign: []uint64{good.Sign}, Vec: slices.Clone(good.Vec)}
	}

	got, err := call(one())
	if err != nil || len(got.Matches) != 1 || !reflect.DeepEqual(got.Matches[0], good) {
		t.Fatalf("the site's own match came back as %+v, %v; want %+v", got.Matches, err, good)
	}
	for name, edit := range map[string]func(s *partial.Set){
		"vector one short":     func(s *partial.Set) { s.Stride--; s.Vec = s.Vec[:s.Stride] },
		"sign past the vector": func(s *partial.Set) { s.Sign[0] |= 1 << uint(len(q.Vertices)) },
		"edge-label bindings without a label variable": func(s *partial.Set) {
			s.LabelStride, s.EdgeVars = len(q.Vars), make([]rdf.TermID, len(q.Vars))
		},
	} {
		s := one()
		edit(&s)
		if _, err := call(s); err == nil || !strings.Contains(err.Error(), "partial: matches of fragment 0") {
			t.Errorf("%s: the call returned %v, want the shape check's error", name, err)
		}
	}
}

// TestSwapStateMachine drives the worker's install: calls naming a
// generation it does not hold answer need-sync, a carry-forward install
// copies the named base and a delta install patches it, both need it
// resident, installs are idempotent, an install overwrites the residue of
// an aborted one, and old generations are pruned with enough history
// kept for in-flight executions.
func TestSwapStateMachine(t *testing.T) {
	ex := paperexample.New()
	d, err := fragment.Build(ex.Store, ex.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	w, addr := startWorker(t)
	c, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	s0 := c.NewSite(0)
	req := cluster.CandidatesRequest{Query: ex.Query, Bits: 1 << 10}
	install := func(h cluster.Site, e uint64, f *fragment.Fragment) (cluster.Site, error) {
		return h.SwapGeneration(ctx, cluster.GenerationSwap{Epoch: e, Fragment: f})
	}

	// Before any generation, queries, probes and carry-forward installs
	// (a fresh handle's base is epoch 0: nothing to carry) need-sync.
	if _, err := s0.Candidates(ctx, req); !errors.Is(err, cluster.ErrNeedSync) {
		t.Fatalf("query on empty worker: %v, want need-sync", err)
	}
	if _, err := s0.Stats(ctx); !errors.Is(err, cluster.ErrNeedSync) {
		t.Fatalf("probe on empty worker: %v, want need-sync", err)
	}
	if _, err := install(s0, 1, nil); !errors.Is(err, cluster.ErrNeedSync) {
		t.Fatalf("carry install on empty worker: %v, want need-sync", err)
	}

	// Ship epoch 1, twice: the retry is harmless.
	h1, err := install(s0, 1, d.Fragments[0])
	if err != nil {
		t.Fatal(err)
	}
	if h1, err = install(s0, 1, d.Fragments[0]); err != nil {
		t.Fatalf("retried install: %v", err)
	}
	if info, err := h1.Stats(ctx); err != nil || info.Epoch != 1 {
		t.Fatalf("probe at epoch 1: %+v, %v", info, err)
	}
	// The identity install — a handle's own epoch, nothing shipped —
	// returns the handle.
	if same, err := install(h1, 1, nil); err != nil || same != h1 {
		t.Fatalf("identity install = %v, %v; want the handle back", same, err)
	}

	// Carry forward through epochs 2..5; old epochs beyond the keep
	// window must stop answering, recent ones must keep serving.
	handles := map[uint64]cluster.Site{1: h1}
	for e := uint64(2); e <= 5; e++ {
		if handles[e], err = install(handles[e-1], e, nil); err != nil {
			t.Fatalf("carry install epoch %d: %v", e, err)
		}
	}
	if _, err := handles[5].Candidates(ctx, req); err != nil {
		t.Errorf("installed epoch rejected: %v", err)
	}
	if _, err := handles[3].Candidates(ctx, req); err != nil {
		t.Errorf("epoch within keep window rejected: %v", err)
	}
	if _, err := handles[1].Candidates(ctx, req); !errors.Is(err, cluster.ErrNeedSync) {
		t.Errorf("pruned epoch answered: %v", err)
	}
	// A pruned base cannot be carried.
	if _, err := install(handles[1], 6, nil); !errors.Is(err, cluster.ErrNeedSync) {
		t.Errorf("carry from a pruned base: %v, want need-sync", err)
	}

	// An aborted install leaves epoch 6 resident above the live epoch 5;
	// the next install of 6 replaces it, here with another fragment.
	if _, err := install(handles[5], 6, d.Fragments[1]); err != nil {
		t.Fatal(err)
	}
	h6, err := install(handles[5], 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h6.Candidates(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cluster.NewLocalSite(0, d.Fragments[0], 6).Candidates(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Vectors.AppendBinary(nil), want.Vectors.AppendBinary(nil)) {
		t.Error("epoch 6 serves the aborted install's fragment, not epoch 5's carried forward")
	}
	if n := resident(w)[0]; n != keepEpochs+1 {
		t.Errorf("%d generations resident, want %d", n, keepEpochs+1)
	}

	// A delta install patches the resident base with fragment 0's share of
	// an update, twice over without harm, and is refused from a pruned
	// base; what the worker holds then is the coordinator's own patch.
	drop := d.Fragments[0].Crossing.Flat()[:1]
	next, deltas, err := d.Patch(ex.Store.Apply(nil, drop), nil, drop)
	if err != nil || deltas[0] == nil {
		t.Fatalf("Patch: %v, share %+v", err, deltas[0])
	}
	swap := cluster.GenerationSwap{Epoch: 7, Fragment: next.Fragments[0], Delta: deltas[0]}
	for try := 0; try < 2; try++ {
		if _, err := h6.SwapGeneration(ctx, swap); err != nil {
			t.Fatalf("delta install, try %d: %v", try, err)
		}
		w.mu.Lock()
		got := w.sites[0][7]
		w.mu.Unlock()
		if !reflect.DeepEqual(got.Payload(), next.Fragments[0].Payload()) || got.NumInternalEdges != next.Fragments[0].NumInternalEdges ||
			!slices.Equal(got.Crossing.Flat(), next.Fragments[0].Crossing.Flat()) {
			t.Errorf("delta install, try %d: the worker holds %+v, the coordinator patched %+v", try, got.Payload(), next.Fragments[0].Payload())
		}
	}
	if _, err := handles[4].SwapGeneration(ctx, swap); !errors.Is(err, cluster.ErrNeedSync) {
		t.Errorf("delta from a pruned base: %v, want need-sync", err)
	}
}

// TestNewCoordinatorPrunesOldIncarnation: a coordinator that opens on a
// worker an earlier coordinator filled installs epoch 1 over the old
// epochs 1-4, and the worker keeps exactly the new generation per site —
// none of the old incarnation's higher epochs survives to be served or
// carried forward.
func TestNewCoordinatorPrunesOldIncarnation(t *testing.T) {
	ex := paperexample.New()
	d, err := fragment.Build(ex.Store, ex.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	w, addr := startWorker(t)
	ctx := context.Background()

	a, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	sites := deploy(t, a, d, 1)
	for e := uint64(2); e <= 4; e++ {
		for i, s := range sites {
			if sites[i], err = s.SwapGeneration(ctx, cluster.GenerationSwap{Epoch: e}); err != nil {
				t.Fatalf("coordinator A, epoch %d at site %d: %v", e, i, err)
			}
		}
	}
	a.Close()

	b, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	deploy(t, b, d, 1)
	for site, n := range resident(w) {
		if n != 1 {
			t.Errorf("site %d holds %d generations after a new coordinator's epoch 1, want 1", site, n)
		}
	}
}

// TestMalformedPrepareIsAnErrorFrame: an install whose payload
// contradicts Definition 1, or that carries a fragment and a delta, or a
// delta with no base, comes back as an error frame — the worker neither
// panics nor drops the connection nor installs anything — and the site
// takes a well-formed install afterwards.
func TestMalformedPrepareIsAnErrorFrame(t *testing.T) {
	ex := paperexample.New()
	d, err := fragment.Build(ex.Store, ex.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	w, addr := startWorker(t)
	c, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	s0 := c.NewSite(0).(*Site)

	good := d.Fragments[0].Payload()
	for name, bad := range map[string]*request{
		"no internal endpoint": {Fragment: &fragment.Payload{Triples: good.Triples, Internal: good.Internal[:1]}},
		"out of order":         {Fragment: &fragment.Payload{Triples: append(slices.Clone(good.Triples[1:]), good.Triples[0]), Internal: good.Internal}},
		"no internal vertices": {Fragment: &fragment.Payload{Triples: good.Triples}},
		"fragment and delta":   {Base: 1, Fragment: good, Delta: &fragment.Delta{}},
		"delta with no base":   {Delta: &fragment.Delta{}},
	} {
		bad.Op, bad.Epoch = opSwap, 1
		_, m, err := s0.call(ctx, bad, nil)
		if err == nil || errors.Is(err, cluster.ErrNeedSync) || m.WireMessages != 2 {
			t.Fatalf("%s: err %v after %d frames, want an error reply frame", name, err, m.WireMessages)
		}
	}
	if n := len(resident(w)); n != 0 {
		t.Fatalf("after rejected installs the worker hosts %d sites, want 0", n)
	}
	st, err := s0.SwapGeneration(ctx, cluster.GenerationSwap{Epoch: 1, Fragment: d.Fragments[0]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Candidates(ctx, cluster.CandidatesRequest{Query: ex.Query, Bits: 1 << 10}); err != nil {
		t.Errorf("query after a well-formed install: %v", err)
	}
}

// TestRetryDialsFresh: a worker that restarts leaves every connection
// pooled to it before dead. A call's one retry must dial, not take the
// next pooled connection, or two stale connections in the pool — what
// concurrent installs leave behind — fail the call outright.
func TestRetryDialsFresh(t *testing.T) {
	w, addr := startWorker(t)
	c, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c.links[0].put(&conn{Conn: nc})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	restarted := NewWorker(0)
	go func() { _ = restarted.Serve(ln) }() // returns at Close below
	defer restarted.Close()
	// The restarted worker holds nothing, so its answer is need-sync.
	if _, err := c.NewSite(0).Stats(context.Background()); !errors.Is(err, cluster.ErrNeedSync) {
		t.Errorf("call after the restart: %v, want the new worker's need-sync", err)
	}
}

// TestCancellationInterruptsBlockedCall: a call against a worker that
// never answers must return promptly when the context is canceled, not
// hang on the read.
func TestCancellationInterruptsBlockedCall(t *testing.T) {
	// A raw listener that accepts and then sits silent.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	c, err := Connect(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.NewSite(0)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = s.Stats(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked call returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// dialRaw opens a connection to a worker that the test frames by hand.
func dialRaw(t *testing.T, addr string) *conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &conn{Conn: nc}
}

// roundTrip sends f on c and returns the final frame, having counted the
// rows streamed ahead of it.
func roundTrip(t *testing.T, c *conn, f frame) (final response, rows int) {
	t.Helper()
	if _, err := c.send(f); err != nil {
		t.Fatal(err)
	}
	for {
		body, _, err := c.recv()
		if err != nil {
			t.Fatalf("the worker dropped the connection: %v", err)
		}
		var resp response
		if err := resp.decode(body); err != nil {
			t.Fatal(err)
		}
		if resp.Done {
			return resp, rows
		}
		rows += len(resp.Rows)
	}
}

// TestBadRequestIsAnErrorFrame: a request that is framed and encoded
// correctly but cannot be evaluated — the first of them used to reach the
// matcher with a nil query and take the whole worker process down — is
// answered with an error frame, and the same connection then serves a
// good request.
func TestBadRequestIsAnErrorFrame(t *testing.T) {
	ex := paperexample.New()
	d, err := fragment.Build(ex.Store, ex.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startWorker(t)
	coord, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	deploy(t, coord, d, 1)

	q := ex.Query
	edges, vertices := len(q.Edges), len(q.Vertices)
	identity := make([]int, edges)
	for i := range identity {
		identity[i] = i
	}
	edit := func(f func(g *query.Graph)) *query.Graph {
		g := *q
		g.Edges, g.Vertices = slices.Clone(q.Edges), slices.Clone(q.Vertices)
		f(&g)
		return &g
	}
	c := dialRaw(t, addr)
	for name, bad := range map[string]request{
		"partial without a query":    {Op: opPartial},
		"candidates without a query": {Op: opCandidates},
		"query without edges":        {Op: opPartial, Query: &query.Graph{}},
		"edge endpoint out of range": {Op: opPartial, Query: edit(func(g *query.Graph) { g.Edges[0].To = vertices })},
		"variable out of range":      {Op: opCandidates, Query: edit(func(g *query.Graph) { g.Vertices[0].Var = len(q.Vars) })},
		"label and label variable":   {Op: opPartial, Query: edit(func(g *query.Graph) { g.Edges[0].LabelVar = 0 })},
		"query past MaxSize": {Op: opPartial, Query: edit(func(g *query.Graph) {
			for len(g.Edges) <= query.MaxSize {
				g.Edges = append(g.Edges, g.Edges[0])
			}
		})},
		"order too short":        {Op: opPartial, Query: q, Order: identity[:edges-1]},
		"order repeats an edge":  {Op: opPartial, Query: q, Order: append(slices.Clone(identity[:edges-1]), 0)},
		"order names no edge":    {Op: opPartial, Query: q, Order: append(slices.Clone(identity[:edges-1]), edges)},
		"too few edge ranks":     {Op: opPartial, Query: q, EdgeRank: identity[:edges-1]},
		"star center past query": {Op: opPartial, Query: q, Star: true, Center: vertices},
		"vector length past cap": {Op: opCandidates, Query: q, Bits: maxBits + 1},
		"unknown op":             {Op: 9, Query: q},
	} {
		bad.Epoch = 1
		final, _ := roundTrip(t, c, &bad)
		if final.ErrKind != errGeneric || final.ErrMsg == "" {
			t.Errorf("%s: answered %+v, want a generic error frame", name, final)
		}
	}

	oracle := cluster.NewLocalSite(0, d.Fragments[0], 1)
	want, err := oracle.PartialEval(context.Background(), cluster.PartialRequest{Query: q}, func([]rdf.TermID) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	final, rows := roundTrip(t, c, &request{Op: opPartial, Epoch: 1, Query: q, Order: identity, EdgeRank: identity})
	if err := final.err(); err != nil {
		t.Fatalf("good request after the bad ones: %v", err)
	}
	if rows != want.LocalMatches || final.LocalMatches != want.LocalMatches || final.Set.Len() != len(want.Matches) {
		t.Errorf("good request: %d rows, %d local and %d partial matches; want %d and %d",
			rows, final.LocalMatches, final.Set.Len(), want.LocalMatches, len(want.Matches))
	}
	if final.EvalNS <= 0 {
		t.Errorf("final frame reports an evaluation wall of %d ns", final.EvalNS)
	}
}

// foreignFrame is a frame from a build whose wire version is 9.
type foreignFrame struct{}

func (foreignFrame) appendTo(b []byte) []byte { return append(b, 9<<1, 1, 2, 3) }

// TestVersionSkewIsAnError: a peer from a build with another wire version
// fails the call by name on both ends — the worker answers the foreign
// request with an error frame and keeps serving, the client fails the
// call on the foreign reply without retrying it.
func TestVersionSkewIsAnError(t *testing.T) {
	_, addr := startWorker(t)
	c := dialRaw(t, addr)
	final, _ := roundTrip(t, c, foreignFrame{})
	if err := final.err(); err == nil || !strings.Contains(err.Error(), "remote: peer speaks wire version 9") {
		t.Errorf("worker answered a foreign request with %v", err)
	}
	// The empty worker's own answer to a probe is need-sync.
	if final, _ := roundTrip(t, c, &request{Op: opStats}); !errors.Is(final.err(), cluster.ErrNeedSync) {
		t.Errorf("stats after the foreign frame: %v, want need-sync", final.err())
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan int, 1)
	go func() {
		n := 0
		defer func() { served <- n }()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			peer := &conn{Conn: nc}
			for {
				if _, _, err := peer.recv(); err != nil {
					break
				}
				n++
				if _, err := peer.send(foreignFrame{}); err != nil {
					break
				}
			}
			nc.Close()
		}
	}()
	coord, err := Connect(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.NewSite(0).Stats(context.Background())
	if err == nil || !strings.Contains(err.Error(), "remote: peer speaks wire version 9") {
		t.Errorf("client read a foreign reply as %v", err)
	}
	coord.Close()
	ln.Close()
	if n := <-served; n != 1 {
		t.Errorf("the foreign peer saw %d requests, want 1 (a misread reply is not a transport failure to retry)", n)
	}
}

// TestWireCostIsDeterministic: the bytes and frames a call costs are a
// function of what it carries — identical calls against one generation
// report identical Wire and WireMessages, whatever their timing and
// deadline.
func TestWireCostIsDeterministic(t *testing.T) {
	ex := paperexample.New()
	d, err := fragment.Build(ex.Store, ex.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startWorker(t)
	c, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sites := deploy(t, c, d, 1)
	vecs := make([]*candidates.SiteVectors, len(sites))
	for i, s := range sites {
		rep, err := s.Candidates(context.Background(), cluster.CandidatesRequest{Query: ex.Query, Bits: candidates.DefaultBits})
		if err != nil {
			t.Fatal(err)
		}
		vecs[i] = rep.Vectors
	}
	union, err := candidates.Union(vecs, ex.Query, candidates.DefaultBits)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sites {
		var first cluster.PartialReply
		for run, timeout := range []time.Duration{time.Minute, time.Hour, 0} {
			ctx := context.Background()
			if timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, timeout)
				defer cancel()
			}
			rep, err := s.PartialEval(ctx, cluster.PartialRequest{Query: ex.Query, Union: union}, func([]rdf.TermID) bool { return true })
			if err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				first = rep
			} else if rep.Wire != first.Wire || rep.WireMessages != first.WireMessages {
				t.Errorf("site %d run %d: %d bytes in %d frames, the first run cost %d in %d",
					i, run, rep.Wire, rep.WireMessages, first.Wire, first.WireMessages)
			}
			if rep.Eval <= 0 {
				t.Errorf("site %d: reply reports no evaluation wall", i)
			}
		}
	}
}
