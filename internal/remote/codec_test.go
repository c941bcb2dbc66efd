package remote

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gstored/internal/candidates"
	"gstored/internal/cluster"
	"gstored/internal/fragment"
	"gstored/internal/partial"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/varint"
)

var update = flag.Bool("update", false, "rewrite testdata/frames.golden from the encoder's output")

// vectors decodes a hand-written stage-0 payload: the candidates package
// builds sets only from fragments, and the frames carry them as bytes.
func vectors(t testing.TB, data ...byte) *candidates.SiteVectors {
	t.Helper()
	sv, err := candidates.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

// fullQuery sets every field of a query.Graph to something other than
// its zero value.
func fullQuery() *query.Graph {
	return &query.Graph{
		Vars: []string{"x", "p", "y"},
		Vertices: []query.Vertex{
			{Var: 0}, {Var: query.NoVar, Const: 70000}, {Var: 2},
		},
		Edges: []query.Edge{
			{From: 0, To: 1, Label: 9, LabelVar: query.NoVar},
			{From: 2, To: 0, LabelVar: 1},
		},
		Projection:   []int{2, 0},
		Placeholders: map[rdf.TermID]string{math.MaxUint32: "<http://ex/unseen>", math.MaxUint32 - 1: `"lit"`},
		Distinct:     true,
		Limit:        10,
		HasLimit:     true,
		Offset:       3,
	}
}

// Four slots: none (a constant vertex), a one-word vector, the list
// {5, 8}, the empty list.
func fullVectors(t testing.TB) *candidates.SiteVectors {
	return vectors(t, 4, 0, 1, 1, 0xef, 0xbe, 0, 0, 0, 0, 0, 0x80, 4, 5, 3, 2)
}

func twoMatches() []*partial.Match {
	return []*partial.Match{
		{
			Frag: 2, Vec: []rdf.TermID{17, rdf.NoTerm, 300}, EdgeVars: []rdf.TermID{rdf.NoTerm, 9, rdf.NoTerm},
			Crossing:     []partial.CrossEdge{{QEdge: 1, S: 300, P: 9, O: 17}},
			MatchedEdges: 0b10, Sign: 0b001,
		},
		{
			Frag: 2, Vec: []rdf.TermID{17, 70000, 301},
			Crossing:     []partial.CrossEdge{{QEdge: 0, S: 17, P: 9, O: 70000}, {QEdge: 1, S: 301, P: 4, O: 17}},
			MatchedEdges: math.MaxUint64, Sign: 1 << 63,
		},
	}
}

// errFrame is the final frame setErr builds for err.
func errFrame(err error) response {
	r := response{Done: true}
	r.setErr(err)
	return r
}

// codecFrame is either frame type with both directions of its codec.
type codecFrame interface {
	frame
	decode([]byte) error
}

type namedFrame struct {
	name  string
	frame codecFrame
}

// goldenFrames is one frame per op and per error kind, in the order the
// golden file lists them.
func goldenFrames(t testing.TB) []namedFrame {
	req := func(name string, q request) namedFrame { return namedFrame{name, &q} }
	resp := func(name string, p response) namedFrame { return namedFrame{name, &p} }
	return []namedFrame{
		req("candidates request", request{Op: opCandidates, Site: 3, Epoch: 7, Bits: candidates.DefaultBits, Query: fullQuery()}),
		resp("candidates reply", response{Done: true, Vectors: fullVectors(t)}),
		req("partial request", request{
			Op: opPartial, Site: 3, Epoch: 7, TimeoutNS: 1500000000, Order: []int{1, 0}, EdgeRank: []int{1, 0},
			MaxMatches: 100000, Query: fullQuery(), Union: fullVectors(t),
		}),
		req("star request", request{Op: opPartial, Site: 1, Epoch: 7, Star: true, Center: 2, Order: []int{0, 1}, Query: fullQuery()}),
		resp("row batch", response{Rows: [][]rdf.TermID{{17, 9, 300}, {18, 9, 70000}}}),
		resp("final with two matches", response{
			Done: true, LocalMatches: 2, Matches: twoMatches(), Tasks: 5, BusyNS: 1234567, EvalNS: 2345678,
		}),
		req("stats request", request{Op: opStats, Site: 3, Epoch: 7}),
		resp("stats reply", response{Done: true, Info: cluster.SiteInfo{Site: 3, Addr: "w:1", Epoch: 7, Fragments: 2}}),
		req("install request", request{
			Op: opSwap, Site: 3, Epoch: 8, Base: 7,
			Fragment: &fragment.Payload{
				ID:       3,
				Triples:  []rdf.Triple{{S: 17, P: 9, O: 70000}, {S: 17, P: 9, O: 70001}, {S: 300, P: 4, O: 17}},
				Internal: []rdf.TermID{17, 300},
			},
		}),
		req("carry-forward install request", request{Op: opSwap, Site: 3, Epoch: 8, Base: 7}),
		resp("install reply", response{Done: true, Epoch: 8}),
		resp("error canceled", errFrame(partial.ErrCanceled)),
		resp("error too many matches", errFrame(partial.ErrTooManyMatches{Limit: 100000})),
		resp("error need-sync", errFrame(fmt.Errorf("%w: site 3 not resident", cluster.ErrNeedSync))),
		resp("error generic", errFrame(errors.New("remote: request carries no query"))),
	}
}

// TestFrameGolden pins the wire format: each frame must encode to the
// committed hex, and the committed hex must decode to the frame. A
// deliberate change to the encoding bumps wireVersion and regenerates the
// file with -update.
func TestFrameGolden(t *testing.T) {
	const path = "testdata/frames.golden"
	var out strings.Builder
	frames := goldenFrames(t)
	for _, f := range frames {
		fmt.Fprintf(&out, "%s: %x\n", f.name, f.frame.appendTo(nil))
	}
	if *update {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(golden) != out.String() {
		t.Errorf("the encoder no longer produces %s (rerun with -update after bumping wireVersion):\n%s", path, out.String())
	}
	lines := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	if len(lines) != len(frames) {
		t.Fatalf("%s holds %d frames, want %d", path, len(lines), len(frames))
	}
	for i, line := range lines {
		name, hexBody, _ := strings.Cut(line, ": ")
		body, err := hex.DecodeString(hexBody)
		if err != nil || name != frames[i].name {
			t.Fatalf("line %d: %q, %v; want frame %q", i+1, name, err, frames[i].name)
		}
		got := reflect.New(reflect.TypeOf(frames[i].frame).Elem())
		if err := got.Interface().(codecFrame).decode(body); err != nil {
			t.Errorf("%s: committed bytes do not decode: %v", name, err)
		} else if !reflect.DeepEqual(got.Interface(), frames[i].frame) {
			t.Errorf("%s: committed bytes decode to %+v, want %+v", name, got.Elem(), frames[i].frame)
		}
	}
}

// TestFrameRoundTrip sends frames over a connection and requires every
// field of both structs back, absent and empty optional fields told
// apart, and a second encoding identical to the first.
func TestFrameRoundTrip(t *testing.T) {
	noPlaceholders, emptyPlaceholders := fullQuery(), fullQuery()
	noPlaceholders.Placeholders = nil
	emptyPlaceholders.Placeholders = map[rdf.TermID]string{}
	requests := []request{
		{}, // nil Query, Union and Fragment
		{
			Op: opPartial, Site: 3, Epoch: math.MaxUint64, TimeoutNS: math.MaxInt64, Star: true, Bits: 1 << 14, Center: 2,
			Order: []int{2, 0, 1}, EdgeRank: []int{1, 2, 0}, MaxMatches: 1 << 40, Base: math.MaxUint64 - 1,
			Query: fullQuery(), Union: fullVectors(t),
			Fragment: &fragment.Payload{
				ID: 5, Triples: []rdf.Triple{{S: 9, P: 1, O: math.MaxUint32}, {S: 3, P: 2, O: 1}}, Internal: []rdf.TermID{9, 3, math.MaxUint32},
			},
		},
		{Query: noPlaceholders},
		{Query: emptyPlaceholders},
		{Query: &query.Graph{}, Union: vectors(t, 0), Fragment: &fragment.Payload{}},
		{Union: vectors(t, 3, 0, 0, 0)}, // nothing but nil set slots
	}
	responses := []response{
		{},
		{
			Done: true, Rows: [][]rdf.TermID{{1, 2}, nil, {math.MaxUint32}}, Vectors: fullVectors(t), LocalMatches: 3,
			Matches: twoMatches(), Tasks: 9, BusyNS: math.MaxInt64, EvalNS: 1,
			Info:  cluster.SiteInfo{Site: 4, Addr: "127.0.0.1:9", Epoch: 11, Fragments: 6},
			Epoch: 12, ErrKind: errTooMany, ErrMsg: "why", ErrLimit: 77,
		},
		{Matches: []*partial.Match{{}}},
		{Vectors: vectors(t, 0)},
	}
	c := &conn{Conn: &bufConn{}}
	check := func(want frame, got codecFrame) {
		t.Helper()
		wrote, err := c.send(want)
		if err != nil {
			t.Fatal(err)
		}
		sent := bytes.Clone(c.out[4:])
		body, read, err := c.recv()
		if err != nil || read != wrote || read != int64(4+len(sent)) {
			t.Fatalf("recv = %d bytes, %v; sent %d", read, err, wrote)
		}
		if err := got.decode(body); err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip = %+v, want %+v", got, want)
		}
		if again := got.appendTo(nil); !bytes.Equal(again, sent) {
			t.Errorf("%+v re-encodes to %x, was sent as %x", want, again, sent)
		}
	}
	for i := range requests {
		check(&requests[i], &request{})
	}
	for i := range responses {
		check(&responses[i], &response{})
	}
}

// TestDecodeRejects: each body is wrong in one way the decoder must
// notice; the first is the accepted frame the others are cut from.
func TestDecodeRejects(t *testing.T) {
	good := (&request{Op: opStats}).appendTo(nil)
	if err := new(request).decode(good); err != nil {
		t.Fatal(err)
	}
	with := func(i int, b byte) []byte {
		out := bytes.Clone(good)
		out[i] = b
		return out
	}
	for name, body := range map[string][]byte{
		"empty":             {},
		"response tag":      with(0, tagResponse),
		"truncated":         good[:len(good)-1],
		"trailing byte":     append(bytes.Clone(good), 0),
		"spare flag bit":    with(12, reqFlagsEnd),
		"overlong op":       append([]byte{tagRequest, 0x83, 0x00}, good[2:]...),
		"order past input":  with(15, 200),
		"query cut short":   with(12, reqHasQuery),
		"union cut short":   with(12, reqHasUnion),
		"payload cut short": with(12, reqHasFragment),
	} {
		if err := new(request).decode(body); err == nil {
			t.Errorf("%s: %x decoded", name, body)
		}
	}

	resp := (&response{Done: true, Matches: twoMatches()}).appendTo(nil)
	if err := new(response).decode(resp); err != nil {
		t.Fatal(err)
	}
	// The totals sit right after the match count: tag, flags, rows (2
	// bytes), LocalMatches, count.
	const totals = 6
	for name, edit := range map[string]func(b []byte){
		"terms total too small":  func(b []byte) { b[totals]-- },
		"terms total too large":  func(b []byte) { b[totals]++ },
		"crossing total too big": func(b []byte) { b[totals+1]++ },
		"unknown error kind":     func(b []byte) { b[len(b)-3] = byte(numErrKinds) },
	} {
		body := bytes.Clone(resp)
		edit(body)
		if err := new(response).decode(body); err == nil {
			t.Errorf("%s: %x decoded", name, body)
		}
	}
}

// gen derives frame values from fuzz input; it yields zeros once the
// input is used up, so every input describes some value.
type gen struct{ data []byte }

func (g *gen) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *gen) bool() bool { return g.byte()&1 != 0 }

// n is a count in [0, max].
func (g *gen) n(max int) int { return int(g.byte()) % (max + 1) }

// u64 spreads values over every encoded length.
func (g *gen) u64() uint64 {
	var x uint64
	for i := g.n(8); i > 0; i-- {
		x = x<<8 | uint64(g.byte())
	}
	return x
}

func (g *gen) int() int         { return int(g.u64() >> 1) }
func (g *gen) term() rdf.TermID { return rdf.TermID(g.u64()) }
func (g *gen) noVar() int       { return g.n(5) - 1 }
func (g *gen) str() string      { return string(g.bytes(g.n(6))) }

func (g *gen) bytes(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = g.byte()
	}
	return out
}

func (g *gen) ints() []int {
	var out []int
	for i := g.n(4); i > 0; i-- {
		out = append(out, g.int())
	}
	return out
}

func (g *gen) terms() []rdf.TermID {
	var out []rdf.TermID
	for i := g.n(4); i > 0; i-- {
		out = append(out, g.term())
	}
	return out
}

func (g *gen) query() *query.Graph {
	q := &query.Graph{Projection: g.ints(), Distinct: g.bool(), HasLimit: g.bool(), Limit: g.int(), Offset: g.int()}
	for i := g.n(3); i > 0; i-- {
		q.Vars = append(q.Vars, g.str())
	}
	for i := g.n(3); i > 0; i-- {
		q.Vertices = append(q.Vertices, query.Vertex{Var: g.noVar(), Const: g.term()})
	}
	for i := g.n(3); i > 0; i-- {
		q.Edges = append(q.Edges, query.Edge{From: g.int(), To: g.int(), Label: g.term(), LabelVar: g.noVar()})
	}
	if g.bool() {
		q.Placeholders = map[rdf.TermID]string{}
		for i := g.n(3); i > 0; i-- {
			q.Placeholders[g.term()] = g.str()
		}
	}
	return q
}

// vectors writes a valid stage-0 payload slot by slot and decodes it.
func (g *gen) vectors(t testing.TB) *candidates.SiteVectors {
	slots := g.n(4)
	b := varint.AppendInt(nil, slots)
	for ; slots > 0; slots-- {
		switch g.n(2) {
		case 0:
			b = append(b, 0)
		case 1:
			words := 1 + g.n(2)
			b = varint.AppendInt(append(b, 1), words)
			b = append(b, g.bytes(8*words)...)
		default:
			ids := g.n(4)
			b = varint.AppendInt(b, ids+2)
			for i := 0; i < ids; i++ {
				b = varint.AppendInt(b, 1+int(g.byte()))
			}
		}
	}
	return vectors(t, b...)
}

func (g *gen) payload() *fragment.Payload {
	p := &fragment.Payload{ID: g.int(), Internal: g.terms()}
	for i := g.n(4); i > 0; i-- {
		p.Triples = append(p.Triples, rdf.Triple{S: g.term(), P: g.term(), O: g.term()})
	}
	return p
}

func (g *gen) request(t testing.TB) *request {
	q := &request{
		Op: g.int(), Site: g.int(), Epoch: g.u64(), TimeoutNS: int64(g.u64()), Star: g.bool(), Bits: g.int(),
		Center: g.int(), Order: g.ints(), EdgeRank: g.ints(), MaxMatches: g.int(), Base: g.u64(),
	}
	if g.bool() {
		q.Query = g.query()
	}
	if g.bool() {
		q.Union = g.vectors(t)
	}
	if g.bool() {
		q.Fragment = g.payload()
	}
	return q
}

func (g *gen) response(t testing.TB) *response {
	p := &response{
		Done: g.bool(), LocalMatches: g.int(), Tasks: g.int(), BusyNS: int64(g.u64()), EvalNS: int64(g.u64()),
		Info:  cluster.SiteInfo{Site: g.int(), Addr: g.str(), Epoch: g.u64(), Fragments: g.int()},
		Epoch: g.u64(), ErrKind: errKind(g.n(int(numErrKinds) - 1)), ErrMsg: g.str(), ErrLimit: g.int(),
	}
	for i := g.n(3); i > 0; i-- {
		p.Rows = append(p.Rows, g.terms())
	}
	if g.bool() {
		p.Vectors = g.vectors(t)
	}
	for i := g.n(3); i > 0; i-- {
		m := &partial.Match{Frag: g.int(), Vec: g.terms(), EdgeVars: g.terms(), MatchedEdges: g.u64(), Sign: g.u64()}
		for j := g.n(2); j > 0; j-- {
			m.Crossing = append(m.Crossing, partial.CrossEdge{QEdge: g.int(), S: g.term(), P: g.term(), O: g.term()})
		}
		p.Matches = append(p.Matches, m)
	}
	return p
}

// allocated reports the bytes f allocates. The counter is process-wide,
// so a reading over limit is taken again before it is believed.
func allocated(limit uint64, f func()) uint64 {
	var n uint64
	for try := 0; try < 2; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if n = after.TotalAlloc - before.TotalAlloc; n <= limit {
			break
		}
	}
	return n
}

// FuzzFrame holds the codec to its two contracts. What the encoder
// produces — for requests and responses generated from the input —
// decodes to a deep-equal value that encodes to the same bytes. And the
// input itself, taken as a frame body off a hostile socket, decodes or
// fails without a panic, allocates no more than a multiple of its length
// (every count is checked against the bytes left before it buys memory),
// and if it decodes, encodes back to exactly itself: one value, one
// encoding.
func FuzzFrame(f *testing.F) {
	for _, fr := range goldenFrames(f) {
		f.Add(fr.frame.appendTo(nil))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add([]byte{tagResponse, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})    // a row count far past the input
	f.Add([]byte{tagResponse, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}) // the same for matches
	f.Add([]byte{9 << 1, 0, 0, 0})                                 // another build's tag
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &gen{data: data}
		wantReq := g.request(t)
		enc := wantReq.appendTo(nil)
		var gotReq request
		if err := gotReq.decode(enc); err != nil {
			t.Fatalf("request %+v encodes to %x, which fails to decode: %v", wantReq, enc, err)
		}
		if !reflect.DeepEqual(&gotReq, wantReq) {
			t.Fatalf("request round trip = %+v, want %+v", gotReq, wantReq)
		}
		if again := gotReq.appendTo(nil); !bytes.Equal(again, enc) {
			t.Fatalf("request re-encodes to %x, want %x", again, enc)
		}
		wantResp := g.response(t)
		enc = wantResp.appendTo(nil)
		var gotResp response
		if err := gotResp.decode(enc); err != nil {
			t.Fatalf("response %+v encodes to %x, which fails to decode: %v", wantResp, enc, err)
		}
		if !reflect.DeepEqual(&gotResp, wantResp) {
			t.Fatalf("response round trip = %+v, want %+v", gotResp, wantResp)
		}
		if again := gotResp.appendTo(nil); !bytes.Equal(again, enc) {
			t.Fatalf("response re-encodes to %x, want %x", again, enc)
		}

		var req request
		var resp response
		var reqErr, respErr error
		limit := uint64(128*len(data) + 8<<10)
		if n := allocated(limit, func() {
			req, resp = request{}, response{}
			reqErr, respErr = req.decode(data), resp.decode(data)
		}); n > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if reqErr == nil {
			if again := req.appendTo(nil); !bytes.Equal(again, data) {
				t.Fatalf("%x decodes as a request that encodes to %x", data, again)
			}
		}
		if respErr == nil {
			if again := resp.appendTo(nil); !bytes.Equal(again, data) {
				t.Fatalf("%x decodes as a response that encodes to %x", data, again)
			}
		}
	})
}
