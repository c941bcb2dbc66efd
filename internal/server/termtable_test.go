package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gstored"
	"gstored/internal/engine"
	"gstored/internal/rdf"
)

// adversarialTerms are the terms a cell renderer can get wrong: control
// characters, HTML-sensitive bytes, U+2028/U+2029, invalid UTF-8, and
// tabs and newlines inside IRIs and blank-node labels, which TSV must
// escape although Term.String leaves them verbatim. suffix keeps each
// set distinct in one dictionary.
func adversarialTerms(suffix string) []rdf.Term {
	return []rdf.Term{
		rdf.NewIRI("http://example.org/a" + suffix),
		rdf.NewIRI("http://example.org/q?x=1&y=<2>" + suffix),
		rdf.NewIRI("http://example.org/tab\there\nnewline\rcr" + suffix),
		rdf.NewBlank("b\t0" + suffix),
		rdf.NewLiteral(`quotes " and \ backslash` + suffix),
		rdf.NewLiteral("tab\tnewline\ncarriage\rbell\x07null\x00" + suffix),
		rdf.NewLiteral("html <script>&amp;</script>" + suffix),
		rdf.NewLiteral("line sep \u2028 para sep \u2029 end" + suffix),
		rdf.NewLiteral("invalid utf8 \xff\xfe tail" + suffix),
		rdf.NewLangLiteral("weird<&>"+suffix, "en-GB"),
		rdf.NewTypedLiteral("<>&"+suffix, "http://example.org/dt?a=1&b=2"),
		rdf.NewLiteral(strings.Repeat("long literal past one chunk ", 1+cellChunkBytes/28) + suffix),
	}
}

// wantCell is a term's cell as the references render it: encoding/json
// for JSON, Term.String with tabs, newlines and carriage returns escaped
// for TSV.
func wantCell(tsv bool, t rdf.Term) []byte {
	if tsv {
		return []byte(strings.NewReplacer("\t", `\t`, "\n", `\n`, "\r", `\r`).Replace(t.String()))
	}
	b, _ := json.Marshal(termJSON(t)) // strings only: it cannot fail
	return b
}

// referenceResultsTSV renders rows cell by cell through wantCell.
func referenceResultsTSV(dict *rdf.Dictionary, vars []string, rows []engine.Row) []byte {
	out := []byte("?" + strings.Join(vars, "\t?") + "\n")
	for _, row := range rows {
		for i := range vars {
			if i > 0 {
				out = append(out, '\t')
			}
			if i < len(row) && row[i] != rdf.NoTerm {
				out = append(out, wantCell(true, dict.MustDecode(row[i]))...)
			}
		}
		out = append(out, '\n')
	}
	return out
}

// TestTermTableConcurrentGrowth serializes JSON and TSV from several
// goroutines through one pair of shared tables, as a Server does, over
// overlapping ID sets that reach past the tables' slots while an update
// keeps adding terms to the dictionary. Every cell and every document
// must match the references byte for byte; run it under -race.
func TestTermTableConcurrentGrowth(t *testing.T) {
	dict := rdf.NewDictionary()
	for _, tm := range adversarialTerms("") {
		dict.Encode(tm)
	}
	for i := range 500 {
		dict.Encode(rdf.NewIRI(fmt.Sprintf("http://example.org/entity/%d", i)))
	}
	jsonCells := newTermTable(dict, appendTermJSON)
	tsvCells := newTermTable(dict, appendTSVTerm)
	if _, err := jsonCells.get(1); err != nil {
		t.Fatal(err)
	}
	firstSlots := len(jsonCells.snap.Load().slots)

	// The update: fresh terms, adversarial ones among them, published
	// through known once they have IDs.
	var known atomic.Uint32
	known.Store(uint32(dict.Len()))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range 300 {
			var id rdf.TermID
			for _, tm := range adversarialTerms(fmt.Sprint("#", i))[:3+i%9] {
				id = dict.Encode(tm)
			}
			known.Store(uint32(id))
		}
	}()

	vars := []string{"y", "x"}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			// At least 60 rounds, and on until the update is done, so
			// rows reach IDs the update added after the tables sized
			// their slots.
			for round := 0; round < 60 || !closed(done); round++ {
				hi := int(known.Load())
				lo := max(1, hi-200-rng.Intn(400))
				rows := make([]engine.Row, 40)
				for r := range rows {
					rows[r] = engine.Row{rdf.TermID(lo + rng.Intn(hi-lo+1)), rdf.NoTerm}
					if rng.Intn(3) > 0 {
						rows[r][1] = rdf.TermID(lo + rng.Intn(hi-lo+1))
					}
				}
				for _, row := range rows {
					for _, id := range row {
						if id == rdf.NoTerm {
							continue
						}
						term := dict.MustDecode(id)
						for _, c := range []struct {
							cells *termTable
							tsv   bool
						}{{jsonCells, false}, {tsvCells, true}} {
							got, err := c.cells.get(id)
							if err != nil {
								errs <- err
								return
							}
							if want := wantCell(c.tsv, term); !bytes.Equal(got, want) {
								errs <- fmt.Errorf("term %d (tsv %v): cell %q, want %q", id, c.tsv, got, want)
								return
							}
						}
					}
				}
				var doc bytes.Buffer
				if err := writeJSON(&doc, jsonCells, vars, slices.Values(rows)); err != nil {
					errs <- err
					return
				}
				want, err := referenceResultsJSON(dict, vars, rows)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(doc.Bytes(), want) {
					errs <- fmt.Errorf("JSON document diverged from the reference\n got: %s\nwant: %s", doc.Bytes(), want)
					return
				}
				doc.Reset()
				if err := writeTSV(&doc, tsvCells, vars, slices.Values(rows)); err != nil {
					errs <- err
					return
				}
				if want := referenceResultsTSV(dict, vars, rows); !bytes.Equal(doc.Bytes(), want) {
					errs <- fmt.Errorf("TSV document diverged from the reference\n got: %s\nwant: %s", doc.Bytes(), want)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := len(jsonCells.snap.Load().slots); got <= firstSlots {
		t.Errorf("the JSON table never grew past its first %d slots", firstSlots)
	}

	// An ID past the dictionary fails as it always has, in the table and
	// in the document; NoTerm renders as unbound.
	past := rdf.TermID(dict.Len() + 1)
	wantErr := fmt.Sprintf("server: row references unknown term ID %d", past)
	for _, cells := range []*termTable{jsonCells, tsvCells} {
		if _, err := cells.get(past); err == nil || err.Error() != wantErr {
			t.Errorf("get(%d) = %v, want %q", past, err, wantErr)
		}
	}
	if err := writeJSON(io.Discard, jsonCells, vars, slices.Values([]engine.Row{{1, past}})); err == nil || err.Error() != wantErr {
		t.Errorf("writeJSON over ID %d = %v, want %q", past, err, wantErr)
	}
	var doc bytes.Buffer
	if err := writeTSV(&doc, tsvCells, vars, slices.Values([]engine.Row{{rdf.NoTerm, 1}, {1, rdf.NoTerm}})); err != nil {
		t.Fatal(err)
	}
	if want := "?y\t?x\n\t<http://example.org/a>\n<http://example.org/a>\t\n"; doc.String() != want {
		t.Errorf("TSV with unbound cells = %q, want %q", doc.String(), want)
	}
}

// closed reports whether ch is closed.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestTermTableStaleSnapshotMisses pins the snapshot rule: a fill that
// opens a new chunk stores its slot into the slots array older snapshots
// share, so a reader on such a snapshot sees a slot pointing past its
// chunks. That must be a miss, not a read out of range, and get must
// still answer from the latest snapshot.
func TestTermTableStaleSnapshotMisses(t *testing.T) {
	dict := rdf.NewDictionary()
	var ids []rdf.TermID
	for i := range 400 {
		ids = append(ids, dict.Encode(rdf.NewIRI(fmt.Sprintf("http://example.org/a-fairly-long-entity-name/%d", i))))
	}
	cells := newTermTable(dict, appendTSVTerm)
	if _, err := cells.get(ids[0]); err != nil {
		t.Fatal(err)
	}
	old := cells.snap.Load()
	for _, id := range ids[1:] {
		if _, err := cells.get(id); err != nil {
			t.Fatal(err)
		}
	}
	now := cells.snap.Load()
	if len(now.chunks) == len(old.chunks) || &now.slots[0] != &old.slots[0] {
		t.Fatalf("the fills should open chunks in place of growing the slots: %d → %d chunks", len(old.chunks), len(now.chunks))
	}
	last := ids[len(ids)-1]
	if old.slots[last].Load() == 0 {
		t.Fatal("the shared slot of the last fill is empty")
	}
	if tb, ok := old.cell(last); ok {
		t.Errorf("a snapshot older than the chunk answered %q", tb)
	}
	got, err := cells.get(last)
	if want := wantCell(true, dict.MustDecode(last)); err != nil || !bytes.Equal(got, want) {
		t.Errorf("get(%d) = %q, %v; want %q", last, got, err, want)
	}
}

// lq2 answers LUBM(32)'s LQ2 through the library on 4 sites.
func lq2(tb testing.TB) (db *gstored.DB, sparql string, res *gstored.Result) {
	tb.Helper()
	ds := gstored.GenerateLUBM(32)
	db, err := gstored.Open(ds.Graph, gstored.Config{Sites: 4})
	if err != nil {
		tb.Fatal(err)
	}
	bq, err := ds.Query("LQ2")
	if err != nil {
		tb.Fatal(err)
	}
	if res, err = db.Query(bq.SPARQL); err != nil {
		tb.Fatal(err)
	}
	return db, bq.SPARQL, res
}

// TestTermTableHoldsWhatWasServed bounds what a Server's cells retain
// after serving LQ2 on LUBM(32) in both formats: at most 1.25 × the cell
// bytes of the distinct terms served, plus one 8-byte slot per term of
// the dictionary. A table that rendered terms it never served (whole ID
// pages, say) would exceed it.
func TestTermTableHoldsWhatWasServed(t *testing.T) {
	if testing.Short() {
		t.Skip("LUBM(32); skipped in -short")
	}
	db, sparql, res := lq2(t)
	s, ts := newTestServer(t, db, Config{})
	for _, format := range []string{"json", "tsv"} {
		resp, err := http.Get(ts.URL + "/sparql?format=" + format + "&query=" + url.QueryEscape(sparql))
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", format, resp.StatusCode, err)
		}
	}
	served := map[rdf.TermID]bool{}
	res.EachProjected(func(row engine.Row) bool {
		for _, id := range row {
			served[id] = true
		}
		return true
	})
	for _, c := range []struct {
		cells *termTable
		tsv   bool
	}{{s.jsonCells, false}, {s.tsvCells, true}} {
		want := 0
		for id := range served {
			want += len(wantCell(c.tsv, db.Graph.Dict.MustDecode(id)))
		}
		snap := c.cells.snap.Load()
		held := 8 * len(snap.slots)
		for _, chunk := range snap.chunks {
			held += cap(chunk)
		}
		bound := want*5/4 + 8*(db.Graph.Dict.Len()+1) // slot 0 is NoTerm's
		t.Logf("tsv %v: %d distinct terms, %d cell bytes; table holds %d bytes (bound %d)", c.tsv, len(served), want, held, bound)
		if held > bound {
			t.Errorf("tsv %v: the table holds %d bytes, want at most %d", c.tsv, held, bound)
		}
	}
}

// BenchmarkSerialize is the serializer's cost on LQ2's rows over
// LUBM(32), as JSON and as TSV: "first" renders every term as a
// response of a fresh table does (WriteResultsJSON/TSV), "warm" as a
// Server's table renders a repeat response. CI logs ns/op, B/op and
// allocs/op with no threshold.
func BenchmarkSerialize(b *testing.B) {
	db, _, res := lq2(b)
	vars := db.Columns(res.Query)
	for _, f := range []struct {
		name   string
		write  func(io.Writer, *termTable, []string, RowSeq) error
		render func([]byte, rdf.Term) []byte
	}{{"json", writeJSON, appendTermJSON}, {"tsv", writeTSV, appendTSVTerm}} {
		warm := newTermTable(db.Graph.Dict, f.render)
		for _, c := range []struct {
			name  string
			cells func() *termTable
		}{
			{"first", func() *termTable { return newTermTable(db.Graph.Dict, f.render) }},
			{"warm", func() *termTable { return warm }},
		} {
			b.Run(f.name+"/"+c.name, func(b *testing.B) {
				if err := f.write(io.Discard, warm, vars, res.EachProjected); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					if err := f.write(io.Discard, c.cells(), vars, res.EachProjected); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
