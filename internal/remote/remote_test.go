package remote

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"gstored/internal/cluster"
	"gstored/internal/fragment"
	"gstored/internal/paperexample"
	"gstored/internal/partial"
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

func TestFrameRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	want := request{Op: opPartial, Site: 3, Epoch: 7, Order: []int{2, 0, 1}}
	go func() {
		if _, err := writeFrame(client, &want); err != nil {
			t.Errorf("writeFrame: %v", err)
		}
	}()
	var got request
	n, err := readFrame(server, &got)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if n <= 4 {
		t.Errorf("frame consumed %d bytes", n)
	}
	if got.Op != want.Op || got.Site != want.Site || got.Epoch != want.Epoch || fmt.Sprint(got.Order) != fmt.Sprint(want.Order) {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
}

// TestReadFrameDoesNotTrustLengthPrefix: a header declaring maxFrame
// followed by a 10-byte body is an error that costs what arrived, not
// what was declared — the prefix comes off an unauthenticated socket.
func TestReadFrameDoesNotTrustLengthPrefix(t *testing.T) {
	var garbage bytes.Buffer
	if err := binary.Write(&garbage, binary.BigEndian, uint32(maxFrame)); err != nil {
		t.Fatal(err)
	}
	garbage.WriteString("0123456789")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var got request
	n, err := readFrame(&garbage, &got)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("readFrame = %d, %v; want io.ErrUnexpectedEOF", n, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("truncated maxFrame frame allocated %d bytes, want < 1 MiB", alloc)
	}

	// One past the limit is still rejected from the header alone.
	var over bytes.Buffer
	if err := binary.Write(&over, binary.BigEndian, uint32(maxFrame+1)); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(&over, &got); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("oversized frame error = %v, want the limit rejection", err)
	}
}

// TestFrameRoundTripAcrossChunks: a frame larger than frameChunk takes
// the incremental-growth path and must decode identically.
func TestFrameRoundTripAcrossChunks(t *testing.T) {
	want := request{Op: opPartial, Order: make([]int, 3*frameChunk)}
	for i := range want.Order {
		want.Order[i] = i * 7919
	}
	var buf bytes.Buffer
	wrote, err := writeFrame(&buf, &want)
	if err != nil {
		t.Fatal(err)
	}
	if wrote <= 2*frameChunk {
		t.Fatalf("fixture frame is %d bytes; want several chunks", wrote)
	}
	var got request
	read, err := readFrame(&buf, &got)
	if err != nil || read != wrote {
		t.Fatalf("readFrame = %d, %v; want %d, nil", read, err, wrote)
	}
	if !slices.Equal(got.Order, want.Order) {
		t.Error("multi-chunk frame decoded differently")
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
		wantEnc, err := wantC.Vectors.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		gotEnc, err := gotC.Vectors.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantEnc, gotEnc) {
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
