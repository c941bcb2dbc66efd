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
	"testing"
	"time"

	"gstored/internal/candidates"
	"gstored/internal/cluster"
	"gstored/internal/fragment"
	"gstored/internal/paperexample"
	"gstored/internal/partial"
	"gstored/internal/query"
	"gstored/internal/rdf"
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

// deploy ships every fragment of the paper example to the worker set and
// returns the committed sites.
func deploy(t *testing.T, c *Coordinator, d *fragment.Distributed, epoch uint64) []cluster.Site {
	t.Helper()
	ctx := context.Background()
	sites := make([]cluster.Site, len(d.Fragments))
	for i, f := range d.Fragments {
		s, err := c.NewSite(i).SwapGeneration(ctx, cluster.GenerationSwap{Phase: cluster.SwapPrepare, Epoch: epoch, Fragment: f})
		if err != nil {
			t.Fatalf("prepare site %d: %v", i, err)
		}
		sites[i] = s
	}
	for i, s := range sites {
		cs, err := s.SwapGeneration(ctx, cluster.GenerationSwap{Phase: cluster.SwapCommit, Epoch: epoch})
		if err != nil {
			t.Fatalf("commit site %d: %v", i, err)
		}
		sites[i] = cs
	}
	return sites
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
		partial.ErrTooManyMatches{Limit: 9},
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
			var tooMany partial.ErrTooManyMatches
			if errors.As(want, &tooMany) {
				var gotMany partial.ErrTooManyMatches
				if !errors.As(got, &gotMany) || gotMany.Limit != tooMany.Limit {
					t.Errorf("too-many identity lost: %v", got)
				}
			} else if got == nil || got.Error() != want.Error() {
				t.Errorf("generic error %q became %v", want, got)
			}
		}
	}
}

// TestRemoteSiteMatchesLocalSite pins the RPC implementation against the
// in-process oracle on the paper's worked example: candidates, partial
// evaluation (streamed rows and gathered matches), stats, epochs.
func TestRemoteSiteMatchesLocalSite(t *testing.T) {
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
		if !bytes.Equal(wantC.Vectors.AppendBinary(nil), gotC.Vectors.AppendBinary(nil)) {
			t.Errorf("site %d candidate vectors diverged", i)
		}

		var wantRows, gotRows []string
		wantP, err := oracle.PartialEval(ctx, cluster.PartialRequest{Query: q}, func(row []rdf.TermID) bool {
			wantRows = append(wantRows, fmt.Sprint(row))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		gotP, err := s.PartialEval(ctx, cluster.PartialRequest{Query: q}, func(row []rdf.TermID) bool {
			gotRows = append(gotRows, fmt.Sprint(row))
			return true
		})
		if err != nil {
			t.Fatalf("site %d partial: %v", i, err)
		}
		sort.Strings(wantRows)
		sort.Strings(gotRows)
		if fmt.Sprint(wantRows) != fmt.Sprint(gotRows) {
			t.Errorf("site %d streamed rows diverged: %v vs %v", i, gotRows, wantRows)
		}
		if gotP.LocalMatches != wantP.LocalMatches {
			t.Errorf("site %d local matches = %d, want %d", i, gotP.LocalMatches, wantP.LocalMatches)
		}
		wantKeys := matchKeys(wantP.Matches)
		gotKeys := matchKeys(gotP.Matches)
		if fmt.Sprint(wantKeys) != fmt.Sprint(gotKeys) {
			t.Errorf("site %d partial matches diverged", i)
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

func matchKeys(ms []*partial.Match) []string {
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = m.Key()
	}
	sort.Strings(keys)
	return keys
}

// TestSwapStateMachine drives the worker's two-phase behavior: queries
// at unstaged epochs and commits without prepares answer need-sync,
// carry-forward prepares reuse the committed fragment, commits prune old
// generations but keep enough history for in-flight executions.
func TestSwapStateMachine(t *testing.T) {
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
	ctx := context.Background()
	s0 := c.NewSite(0)

	// Query before any generation: need-sync.
	if _, err := s0.Candidates(ctx, cluster.CandidatesRequest{Query: ex.Query, Bits: 1 << 10}); !errors.Is(err, cluster.ErrNeedSync) {
		t.Fatalf("query on empty worker: %v, want need-sync", err)
	}
	// Commit without prepare: need-sync.
	if _, err := s0.SwapGeneration(ctx, cluster.GenerationSwap{Phase: cluster.SwapCommit, Epoch: 1}); !errors.Is(err, cluster.ErrNeedSync) {
		t.Fatalf("commit without prepare: %v, want need-sync", err)
	}
	// Carry-forward prepare with nothing committed: need-sync.
	if _, err := s0.SwapGeneration(ctx, cluster.GenerationSwap{Phase: cluster.SwapPrepare, Epoch: 1}); !errors.Is(err, cluster.ErrNeedSync) {
		t.Fatalf("carry prepare on empty worker: %v, want need-sync", err)
	}

	// Ship + commit epoch 1.
	st, err := s0.SwapGeneration(ctx, cluster.GenerationSwap{Phase: cluster.SwapPrepare, Epoch: 1, Fragment: d.Fragments[0]})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = st.SwapGeneration(ctx, cluster.GenerationSwap{Phase: cluster.SwapCommit, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	// Idempotent commit retry.
	if _, err := st.SwapGeneration(ctx, cluster.GenerationSwap{Phase: cluster.SwapCommit, Epoch: 1}); err != nil {
		t.Fatalf("retried commit: %v", err)
	}

	// Carry forward through epochs 2..5; old epochs beyond the keep
	// window must stop answering, recent ones must keep serving.
	handles := map[uint64]cluster.Site{1: st}
	for e := uint64(2); e <= 5; e++ {
		h, err := handles[e-1].SwapGeneration(ctx, cluster.GenerationSwap{Phase: cluster.SwapPrepare, Epoch: e})
		if err != nil {
			t.Fatalf("carry prepare epoch %d: %v", e, err)
		}
		if h, err = h.SwapGeneration(ctx, cluster.GenerationSwap{Phase: cluster.SwapCommit, Epoch: e}); err != nil {
			t.Fatalf("commit epoch %d: %v", e, err)
		}
		handles[e] = h
	}
	req := cluster.CandidatesRequest{Query: ex.Query, Bits: 1 << 10}
	if _, err := handles[5].Candidates(ctx, req); err != nil {
		t.Errorf("committed epoch rejected: %v", err)
	}
	if _, err := handles[3].Candidates(ctx, req); err != nil {
		t.Errorf("epoch within keep window rejected: %v", err)
	}
	if _, err := handles[1].Candidates(ctx, req); !errors.Is(err, cluster.ErrNeedSync) {
		t.Errorf("pruned epoch answered: %v", err)
	}
}

// TestMalformedPrepareIsAnErrorFrame: a prepare whose payload contradicts
// Definition 1 comes back as an error frame — the worker neither panics
// nor drops the connection nor stages anything — and the site takes a
// well-formed prepare afterwards.
func TestMalformedPrepareIsAnErrorFrame(t *testing.T) {
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
	ctx := context.Background()
	s0 := c.NewSite(0).(*Site)

	good := d.Fragments[0].Payload()
	for name, bad := range map[string]*fragment.Payload{
		"no internal endpoint": {Triples: good.Triples, Internal: good.Internal[:1]},
		"out of order":         {Triples: append(slices.Clone(good.Triples[1:]), good.Triples[0]), Internal: good.Internal},
		"no internal vertices": {Triples: good.Triples},
	} {
		_, _, messages, err := s0.call(ctx, &request{Op: opSwap, Epoch: 1, SwapPhase: int(cluster.SwapPrepare), Fragment: bad}, nil)
		if err == nil || errors.Is(err, cluster.ErrNeedSync) || messages != 2 {
			t.Fatalf("%s: err %v after %d frames, want an error reply frame", name, err, messages)
		}
	}
	if info, err := s0.Stats(ctx); err != nil || info.Fragments != 0 {
		t.Fatalf("after rejected prepares: %+v, %v; want a live worker hosting nothing", info, err)
	}
	if _, err := s0.SwapGeneration(ctx, cluster.GenerationSwap{Phase: cluster.SwapCommit, Epoch: 1}); !errors.Is(err, cluster.ErrNeedSync) {
		t.Fatalf("commit after rejected prepares: %v, want need-sync (nothing staged)", err)
	}
	st, err := s0.SwapGeneration(ctx, cluster.GenerationSwap{Phase: cluster.SwapPrepare, Epoch: 1, Fragment: d.Fragments[0]})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = st.SwapGeneration(ctx, cluster.GenerationSwap{Phase: cluster.SwapCommit, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Candidates(ctx, cluster.CandidatesRequest{Query: ex.Query, Bits: 1 << 10}); err != nil {
		t.Errorf("query after a well-formed prepare: %v", err)
	}
}

// TestSkipPrepareHook checks the lost-prepare simulation: the staged
// handle exists client-side, the worker never saw the prepare, and the
// commit answers need-sync.
func TestSkipPrepareHook(t *testing.T) {
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
	ctx := context.Background()
	sites := deploy(t, c, d, 1)

	c.SkipPrepare = func(site int, epoch uint64) bool { return site == 0 && epoch == 2 }
	staged, err := sites[0].SwapGeneration(ctx, cluster.GenerationSwap{Phase: cluster.SwapPrepare, Epoch: 2, Fragment: d.Fragments[0]})
	if err != nil {
		t.Fatalf("skipped prepare should succeed client-side: %v", err)
	}
	if _, err := staged.SwapGeneration(ctx, cluster.GenerationSwap{Phase: cluster.SwapCommit, Epoch: 2}); !errors.Is(err, cluster.ErrNeedSync) {
		t.Fatalf("commit after lost prepare: %v, want need-sync", err)
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
		"unknown swap phase":     {Op: opSwap, SwapPhase: 7},
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
	if rows != want.LocalMatches || final.LocalMatches != want.LocalMatches || len(final.Matches) != len(want.Matches) {
		t.Errorf("good request: %d rows, %d local and %d partial matches; want %d and %d",
			rows, final.LocalMatches, len(final.Matches), want.LocalMatches, len(want.Matches))
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
	if final, _ := roundTrip(t, c, &request{Op: opStats}); final.err() != nil {
		t.Errorf("stats after the foreign frame: %v", final.err())
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
