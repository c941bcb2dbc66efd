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

// bare is g as a site decodes it: the pattern, with unnamed variables.
func bare(g *query.Graph) *query.Graph {
	b := &query.Graph{Vertices: g.Vertices, Edges: g.Edges}
	if len(g.Vars) > 0 {
		b.Vars = make([]string, len(g.Vars))
	}
	return b
}

// A union of four slots: none (a constant vertex), a one-word vector,
// the list {5, 8}, the empty list.
func fullVectors(t testing.TB) *candidates.SiteVectors {
	return vectors(t, 8, 0, 1, 1, 0xef, 0xbe, 0, 0, 0, 0, 0, 0x80, 4, 5, 3, 2)
}

// fullReport is fullVectors as a site reports them: each set followed by
// its κ, here 7, 300 and 0.
func fullReport(t testing.TB) *candidates.SiteVectors {
	return vectors(t, 9, 0, 1, 1, 0xef, 0xbe, 0, 0, 0, 0, 0, 0x80, 7, 4, 5, 3, 0xac, 0x02, 2, 0)
}

// twoMatches is a set of two matches of a query of three vertices and
// three variables, one of them an edge label's.
func twoMatches() partial.Set {
	return partial.Set{
		Stride: 3, LabelStride: 3,
		Sign:     []uint64{0b001, 1 << 63},
		Vec:      []rdf.TermID{17, rdf.NoTerm, 300, 17, 70000, 301},
		EdgeVars: []rdf.TermID{rdf.NoTerm, 9, rdf.NoTerm, rdf.NoTerm, 10, rdf.NoTerm},
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
		req("candidates request", request{Op: opCandidates, Site: 3, Epoch: 7, Bits: candidates.DefaultBits, Query: bare(fullQuery())}),
		resp("candidates reply", response{Done: true, Vectors: fullReport(t)}),
		req("partial request", request{
			Op: opPartial, Site: 3, Epoch: 7, TimeoutNS: 1500000000, Order: []int{1, 0}, EdgeRank: []int{1, 0},
			Query: bare(fullQuery()), Union: fullVectors(t),
		}),
		req("star request", request{Op: opPartial, Site: 1, Epoch: 7, Star: true, Center: 2, Order: []int{0, 1}, Query: bare(fullQuery())}),
		resp("row batch", response{Rows: [][]rdf.TermID{{17, 9, 300}, {18, 9, 70000}}}),
		resp("final with two matches", response{
			Done: true, LocalMatches: 2, Set: twoMatches(), Tasks: 5, BusyNS: 1234567, EvalNS: 2345678,
		}),
		req("stats request", request{Op: opStats, Site: 3, Epoch: 7}),
		resp("stats reply", response{Done: true, Fragments: 2}),
		req("install request", request{
			Op: opSwap, Site: 3, Epoch: 8, Base: 7,
			Fragment: &fragment.Payload{
				ID:       3,
				Triples:  []rdf.Triple{{S: 17, P: 9, O: 70000}, {S: 17, P: 9, O: 70001}, {S: 300, P: 4, O: 17}},
				Internal: []rdf.TermID{17, 300},
			},
		}),
		req("carry-forward install request", request{Op: opSwap, Site: 3, Epoch: 8, Base: 7}),
		req("delta install request", request{
			Op: opSwap, Site: 3, Epoch: 8, Base: 7,
			Delta: &fragment.Delta{
				Inserted: []rdf.Triple{{S: 17, P: 9, O: 70002}, {S: 301, P: 4, O: 17}},
				Deleted:  []rdf.Triple{{S: 17, P: 9, O: 70000}},
				Owned:    []rdf.TermID{17, 301},
			},
		}),
		resp("install reply", response{Done: true}),
		resp("error canceled", errFrame(partial.ErrCanceled)),
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
	requests := []request{
		{}, // nil Query, Union and Fragment
		{
			Op: opPartial, Site: 3, Epoch: math.MaxUint64, TimeoutNS: math.MaxInt64, Star: true, Bits: 1 << 14, Center: 2,
			Order: []int{2, 0, 1}, EdgeRank: []int{1, 2, 0}, Base: math.MaxUint64 - 1,
			Query: bare(fullQuery()), Union: fullVectors(t),
			Fragment: &fragment.Payload{
				ID: 5, Triples: []rdf.Triple{{S: 9, P: 1, O: math.MaxUint32}, {S: 3, P: 2, O: 1}}, Internal: []rdf.TermID{9, 3, math.MaxUint32},
			},
			Delta: &fragment.Delta{
				Inserted: []rdf.Triple{{S: math.MaxUint32, P: 1, O: 2}}, Deleted: []rdf.Triple{{S: 1, P: 2, O: 3}}, Owned: []rdf.TermID{math.MaxUint32, 0},
			},
		},
		{Query: &query.Graph{Vars: make([]string, 2*query.MaxSize)}}, // the most variables a query holds
		{Query: &query.Graph{}, Union: vectors(t, 0), Fragment: &fragment.Payload{}, Delta: &fragment.Delta{}},
		{Union: vectors(t, 6, 0, 0, 0)}, // nothing but nil set slots
	}
	responses := []response{
		{},
		{
			Done: true, Rows: [][]rdf.TermID{{1, 2}, nil, {math.MaxUint32}}, Vectors: fullReport(t), LocalMatches: 3,
			Set: twoMatches(), Tasks: 9, BusyNS: math.MaxInt64, EvalNS: 1,
			Fragments: 6, ErrKind: errNeedSync, ErrMsg: "why",
		},
		{Set: partial.Set{Sign: []uint64{0}}},                                     // a match of no slots
		{Set: partial.Set{Stride: 3, LabelStride: 3}},                             // no match of a query with a label variable
		{Set: partial.Set{Stride: 2, Sign: []uint64{3}, Vec: []rdf.TermID{1, 2}}}, // no label variable
		{Vectors: vectors(t, 0)},
		{Vectors: vectors(t, 1)}, // a report of no slots
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
		"delta cut short":   with(12, reqHasDelta),
	} {
		if err := new(request).decode(body); err == nil {
			t.Errorf("%s: %x decoded", name, body)
		}
	}

	resp := (&response{Done: true, Set: twoMatches()}).appendTo(nil)
	if err := new(response).decode(resp); err != nil {
		t.Fatal(err)
	}
	// The set's strides and match count follow the tag, the flags, the
	// rows (2 bytes) and LocalMatches.
	const stride, count = 5, 7
	for name, edit := range map[string]func(b []byte){
		"vector stride past the columns": func(b []byte) { b[stride] = 0x7f },
		"match count past the columns":   func(b []byte) { b[count] = 0x7f },
		"match count too large":          func(b []byte) { b[count]++ },
		"match count too small":          func(b []byte) { b[count]-- },
		"unknown error kind":             func(b []byte) { b[len(b)-2] = byte(numErrKinds) },
	} {
		body := bytes.Clone(resp)
		edit(body)
		if err := new(response).decode(body); err == nil {
			t.Errorf("%s: %x decoded", name, body)
		}
	}
}

// TestSiteRequestCarriesOnlyThePattern: queries that differ only in what
// a site does not read — variable names, projection, solution modifiers,
// the spelling of a constant the dictionary lacks — encode to identical
// request bytes, which decode to the bare pattern.
func TestSiteRequestCarriesOnlyThePattern(t *testing.T) {
	variants := map[string]func(g *query.Graph){
		"renamed variables":    func(g *query.Graph) { g.Vars = []string{"a", "b", "c"} },
		"no projection":        func(g *query.Graph) { g.Projection = nil },
		"other projection":     func(g *query.Graph) { g.Projection = []int{1} },
		"no modifiers":         func(g *query.Graph) { g.Distinct, g.HasLimit, g.Limit, g.Offset = false, false, 0, 0 },
		"other modifiers":      func(g *query.Graph) { g.Limit, g.Offset = 0, 99 },
		"other spelling":       func(g *query.Graph) { g.Placeholders[math.MaxUint32] = "<http://ex/other>" },
		"no placeholder table": func(g *query.Graph) { g.Placeholders = nil },
	}
	encode := func(g *query.Graph) []byte {
		return (&request{Op: opPartial, Site: 1, Epoch: 2, Query: g}).appendTo(nil)
	}
	want := encode(fullQuery())
	var got request
	if err := got.decode(want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Query, bare(fullQuery())) {
		t.Errorf("the request decodes to the query %+v, want the bare pattern %+v", got.Query, bare(fullQuery()))
	}
	for name, edit := range variants {
		g := fullQuery()
		edit(g)
		if b := encode(g); !bytes.Equal(b, want) {
			t.Errorf("%s: the request encodes to %x, want %x", name, b, want)
		}
	}
}

// varsFrame is a request frame whose query announces n variables and
// has no vertices or edges.
func varsFrame(n uint64) []byte {
	b := (&request{Query: &query.Graph{}}).appendTo(nil)
	return append(varint.Append(b[:len(b)-3], n), 0, 0) // the counts of vars, vertices, edges
}

// TestVarCountIsBounded: a variable count costs no bytes per element, so
// the decoder bounds it by the most a valid query holds and refuses a
// larger one before it allocates the names.
func TestVarCountIsBounded(t *testing.T) {
	var q request
	if err := q.decode(varsFrame(2 * query.MaxSize)); err != nil || len(q.Query.Vars) != 2*query.MaxSize {
		t.Fatalf("%d variables: %v, %d names", 2*query.MaxSize, err, len(q.Query.Vars))
	}
	for _, n := range []uint64{2*query.MaxSize + 1, math.MaxUint32} {
		body := varsFrame(n)
		var err error
		if a := allocated(1<<10, func() { err = new(request).decode(body) }); err == nil || a > 1<<10 {
			t.Errorf("%d variables: decoded with %v after allocating %d bytes, want refused before the names", n, err, a)
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

// query generates what travels of a query: unnamed variables, vertices
// and edges.
func (g *gen) query() *query.Graph {
	q := &query.Graph{}
	if n := g.n(3); n > 0 {
		q.Vars = make([]string, n)
	}
	for i := g.n(3); i > 0; i-- {
		q.Vertices = append(q.Vertices, query.Vertex{Var: g.noVar(), Const: g.term()})
	}
	for i := g.n(3); i > 0; i-- {
		q.Edges = append(q.Edges, query.Edge{From: g.int(), To: g.int(), Label: g.term(), LabelVar: g.noVar()})
	}
	return q
}

// vectors writes a valid stage-0 payload slot by slot, a union or a
// site's report, and decodes it.
func (g *gen) vectors(t testing.TB) *candidates.SiteVectors {
	slots, report := g.n(4), g.n(1)
	b := varint.AppendInt(nil, slots<<1|report)
	for ; slots > 0; slots-- {
		switch g.n(2) {
		case 0:
			b = append(b, 0)
			continue
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
		if report == 1 {
			b = varint.AppendInt(b, int(g.term())) // κ is at most 2³² − 1
		}
	}
	return vectors(t, b...)
}

func (g *gen) payload() *fragment.Payload {
	return &fragment.Payload{ID: g.int(), Internal: g.terms(), Triples: g.triples()}
}

func (g *gen) triples() []rdf.Triple {
	var out []rdf.Triple
	for i := g.n(4); i > 0; i-- {
		out = append(out, rdf.Triple{S: g.term(), P: g.term(), O: g.term()})
	}
	return out
}

func (g *gen) request(t testing.TB) *request {
	q := &request{
		Op: g.int(), Site: g.int(), Epoch: g.u64(), TimeoutNS: int64(g.u64()), Star: g.bool(), Bits: g.int(),
		Center: g.int(), Order: g.ints(), EdgeRank: g.ints(), Base: g.u64(),
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
	if g.bool() {
		q.Delta = &fragment.Delta{Inserted: g.triples(), Deleted: g.triples(), Owned: g.terms()}
	}
	return q
}

func (g *gen) response(t testing.TB) *response {
	p := &response{
		Done: g.bool(), LocalMatches: g.int(), Tasks: g.int(), BusyNS: int64(g.u64()), EvalNS: int64(g.u64()),
		Fragments: g.int(), ErrKind: errKind(g.n(int(numErrKinds) - 1)), ErrMsg: g.str(),
	}
	for i := g.n(3); i > 0; i-- {
		p.Rows = append(p.Rows, g.terms())
	}
	if g.bool() {
		p.Vectors = g.vectors(t)
	}
	// A stride of vectors travels with the label stride beside it, so a
	// set without one has no label stride either.
	if p.Set.Stride = g.n(4); p.Set.Stride > 0 {
		p.Set.LabelStride = g.n(4)
	}
	for i := g.n(3); i > 0; i-- {
		p.Set.Sign = append(p.Set.Sign, g.u64())
		for range p.Set.Stride {
			p.Set.Vec = append(p.Set.Vec, g.term())
		}
		for range p.Set.LabelStride {
			p.Set.EdgeVars = append(p.Set.EdgeVars, g.term())
		}
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
	f.Add([]byte{tagResponse, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})               // a row count far past the input
	f.Add([]byte{tagResponse, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})            // a vector stride far past its limit
	f.Add([]byte{9 << 1, 0, 0, 0})                                            // another build's tag
	f.Add((&response{ErrKind: numErrKinds}).appendTo(nil))                    // an error kind past the last this build knows
	f.Add((&response{Done: true, Set: partial.Set{Stride: 3}}).appendTo(nil)) // a partial reply with no match
	f.Add((&response{Done: true, Set: partial.Set{                            // and one under a label variable
		Stride: 2, LabelStride: 3, Sign: []uint64{1}, Vec: []rdf.TermID{5, 6}, EdgeVars: []rdf.TermID{0, 0, 7},
	}}).appendTo(nil))
	f.Add(varsFrame(math.MaxUint32)) // a variable count past what a query holds
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
