package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gstored/internal/engine"
	"gstored/internal/rdf"
)

// referenceResultsJSON is the original reflection-based serializer
// (map[string]jsonTerm per row through json.Marshal), kept as the
// byte-for-byte oracle for the hand-rolled fast path.
func referenceResultsJSON(dict *rdf.Dictionary, vars []string, rows []engine.Row) ([]byte, error) {
	var w bytes.Buffer
	head, err := json.Marshal(vars)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&w, `{"head":{"vars":%s},"results":{"bindings":[`, head)
	binding := make(map[string]jsonTerm, len(vars))
	for n, row := range rows {
		clear(binding)
		for i, name := range vars {
			if i >= len(row) || row[i] == rdf.NoTerm {
				continue
			}
			t, ok := dict.Decode(row[i])
			if !ok {
				return nil, fmt.Errorf("unknown term ID %d", row[i])
			}
			binding[name] = termJSON(t)
		}
		enc, err := json.Marshal(binding)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			w.WriteByte(',')
		}
		w.Write(enc)
	}
	w.WriteString("]}}\n")
	return w.Bytes(), nil
}

// TestWriteResultsJSONMatchesReference pins the fast path to the exact
// bytes encoding/json produced, across the characters where a hand
// escaper can drift: HTML-sensitive bytes, control characters, invalid
// UTF-8, U+2028/U+2029, language tags, and datatypes.
func TestWriteResultsJSONMatchesReference(t *testing.T) {
	dict := rdf.NewDictionary()
	terms := []rdf.Term{
		rdf.NewIRI("http://example.org/a"),
		rdf.NewIRI("http://example.org/q?x=1&y=<2>"),
		rdf.NewBlank("b0"),
		rdf.NewLiteral("plain"),
		rdf.NewLiteral(`quotes " and \ backslash`),
		rdf.NewLiteral("tab\tnewline\ncarriage\rbell\x07null\x00"),
		rdf.NewLiteral("html <script>&amp;</script>"),
		rdf.NewLiteral("line sep \u2028 para sep \u2029 end"),
		rdf.NewLiteral("invalid utf8 \xff\xfe tail"),
		rdf.NewLiteral("snow ☃ emoji \U0001F600"),
		rdf.NewLangLiteral("bonjour", "fr"),
		rdf.NewLangLiteral("weird<&>", "en-GB"),
		rdf.NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"),
		rdf.NewTypedLiteral("<>&", "http://example.org/dt?a=1&b=2"),
	}
	ids := make([]rdf.TermID, len(terms))
	for i, tm := range terms {
		ids[i] = dict.Encode(tm)
	}

	cases := []struct {
		name string
		vars []string
		rows []engine.Row
	}{
		{"empty", []string{"x", "y"}, nil},
		{"one-var", []string{"x"}, []engine.Row{{ids[0]}, {ids[3]}}},
		{
			// Variable names deliberately out of sorted order, with one
			// needing escaping, so the sorted-key emission is exercised.
			"unsorted-vars",
			[]string{"zeta", "alpha", `we"ird`, "mid"},
			[]engine.Row{
				{ids[1], ids[4], ids[10], ids[12]},
				{ids[5], rdf.NoTerm, ids[7], ids[8]},
				{rdf.NoTerm, rdf.NoTerm, rdf.NoTerm, rdf.NoTerm},
			},
		},
		{
			"short-rows",
			[]string{"a", "b", "c"},
			[]engine.Row{{ids[2]}, {ids[6], ids[9]}, {}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := referenceResultsJSON(dict, tc.vars, tc.rows)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := WriteResultsJSON(&got, dict, tc.vars, slices.Values(tc.rows)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("fast path diverged from reference\n got: %s\nwant: %s", got.Bytes(), want)
			}
			var doc map[string]any
			if err := json.Unmarshal(got.Bytes(), &doc); err != nil {
				t.Fatalf("output is not valid JSON: %v", err)
			}
		})
	}

	// Randomized sweep: every term in every slot, random widths and
	// unbound holes, still byte-identical.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		nv := 1 + rng.Intn(4)
		vars := make([]string, nv)
		for i := range vars {
			// Suffix keeps names unique: engine projections never repeat a
			// variable, and the map-based reference would silently dedupe.
			vars[i] = fmt.Sprintf("v%c%d", 'a'+rng.Intn(6), i)
		}
		rows := make([]engine.Row, rng.Intn(8))
		for r := range rows {
			row := make(engine.Row, rng.Intn(nv+2))
			for c := range row {
				if rng.Intn(4) == 0 {
					row[c] = rdf.NoTerm
				} else {
					row[c] = ids[rng.Intn(len(ids))]
				}
			}
			rows[r] = row
		}
		want, err := referenceResultsJSON(dict, vars, rows)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := WriteResultsJSON(&got, dict, vars, slices.Values(rows)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("trial %d diverged\nvars: %q\n got: %s\nwant: %s", trial, vars, got.Bytes(), want)
		}
	}
}

// TestAppendJSONStringMatchesEncodingJSON fuzzes the string escaper
// against encoding/json directly.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	samples := []string{
		"", "plain", `"`, `\`, "<>&", "\n\r\t", "\x00\x1f\x7f",
		"\u2028\u2029", "\xff", "a\xc3\x28b", "héllo wörld", "日本語",
		"mix \"<&>\" \n \xff \u2028 ok",
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(24))
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		samples = append(samples, string(b))
	}
	for _, s := range samples {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := appendJSONString(nil, s)
		if !bytes.Equal(got, want) {
			t.Fatalf("escape mismatch for %q\n got: %s\nwant: %s", s, got, want)
		}
	}
}
