package server

import (
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"net/http"
	"sort"
	"strings"
	"unicode/utf8"

	"gstored/internal/engine"
	"gstored/internal/rdf"
)

// Result media types served by the /sparql endpoint.
const (
	ContentTypeJSON = "application/sparql-results+json"
	ContentTypeTSV  = "text/tab-separated-values"
)

// flushEveryRows is how often the serializers flush the HTTP response
// while streaming, so long results reach slow consumers incrementally
// without paying a flush per row. The first write, which carries the
// head and row one, needs no flush here: a streaming response flushes
// its first write itself (streamResponse), so ordered and cached
// responses keep their original buffering.
const flushEveryRows = 1024

// writeBatchBytes is how many rendered bytes writeRows gathers before it
// hands them to the writer: one write per batch, not per row, so a long
// stream costs the HTTP layer (and the kernel) its bytes, not its rows.
const writeBatchBytes = 64 << 10

// RowSeq is a push-style iterator over result rows: it calls yield once
// per row, in order, stopping when yield returns false. Rows passed to
// yield may be reused between calls — consumers that retain a row beyond
// the call must copy it. engine.Result.EachProjected satisfies it, and so
// does the streaming execution's sink.
type RowSeq = iter.Seq[engine.Row]

// jsonTerm is one RDF term in the SPARQL 1.1 Query Results JSON Format.
type jsonTerm struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Lang     string `json:"xml:lang,omitempty"`
	Datatype string `json:"datatype,omitempty"`
}

func termJSON(t rdf.Term) jsonTerm {
	switch t.Kind {
	case rdf.IRI:
		return jsonTerm{Type: "uri", Value: t.Value}
	case rdf.Blank:
		return jsonTerm{Type: "bnode", Value: t.Value}
	default:
		return jsonTerm{Type: "literal", Value: t.Value, Lang: t.Lang, Datatype: t.Datatype}
	}
}

// WriteResultsJSON serializes rows in the SPARQL 1.1 Query Results JSON
// Format. vars are the projected variable names without the leading '?';
// rows yield projected rows (one slot per var, rdf.NoTerm = unbound,
// which the format expresses by omitting the variable from the binding).
//
// The document is written incrementally (writeRows), so a large result
// set is never held as a single in-memory document.
//
// The per-row path is hand-rolled: the earlier map[string]jsonTerm +
// json.Marshal implementation spent over 80% of the cold large-query
// wall clock in reflection and per-row map churn. The output stays
// byte-identical — variables in sorted-name order (Marshal sorted the
// map keys) and encoding/json's exact string escaping, HTML escapes
// included — and terms render once per distinct ID through a bounded
// per-response cache (cross products repeat terms heavily).
func WriteResultsJSON(w io.Writer, dict *rdf.Dictionary, vars []string, rows RowSeq) error {
	names, err := json.Marshal(vars)
	if err != nil {
		return err
	}
	ord := make([]int, len(vars))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return vars[ord[a]] < vars[ord[b]] })
	keys := make([][]byte, len(vars))
	for i, name := range vars {
		keys[i] = append(appendJSONString(nil, name), ':')
	}
	head := fmt.Appendf(nil, `{"head":{"vars":%s},"results":{"bindings":[`, names)
	cells := termCells{dict: dict, render: appendTermJSON}
	return writeRows(w, head, rows, func(b []byte, n int, row engine.Row) ([]byte, error) {
		if n > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		first := true
		for _, i := range ord {
			if i >= len(row) || row[i] == rdf.NoTerm {
				continue
			}
			tb, err := cells.get(row[i])
			if err != nil {
				return b, err
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			b = append(b, keys[i]...)
			b = append(b, tb...)
		}
		return append(b, '}'), nil
	}, "]}}\n")
}

// writeRows is the row loop both serializations share, and the one place
// that decides when an answer's first byte leaves: one reused buffer
// starts with head and takes each row as appendRow renders it (n is the
// row's index), so the per-row allocation profile stays flat however many
// rows stream through. The buffer goes to w in one write right after the
// first row — so head and row one leave together, and nothing leaves
// before the rows have produced one — then whenever it reaches
// writeBatchBytes, at every flushEveryRows-th row, where an http.Flusher
// w is also flushed, and last with tail (for an empty answer, head and
// tail in one write). The first render or write error stops the rows and
// is returned.
func writeRows(w io.Writer, head []byte, rows RowSeq, appendRow func(b []byte, n int, row engine.Row) ([]byte, error), tail string) error {
	flusher, _ := w.(http.Flusher)
	buf := head
	var err error
	n := 0
	rows(func(row engine.Row) bool {
		if buf, err = appendRow(buf, n, row); err != nil {
			return false
		}
		n++
		if n == 1 || n%flushEveryRows == 0 || len(buf) >= writeBatchBytes {
			if _, err = w.Write(buf); err != nil {
				return false
			}
			buf = buf[:0]
			if flusher != nil && n%flushEveryRows == 0 {
				flusher.Flush()
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	if buf = append(buf, tail...); len(buf) > 0 {
		_, err = w.Write(buf)
	}
	return err
}

// termRenderCacheCap bounds the per-response term-render cache so a
// pathological result with millions of distinct terms cannot hold the
// whole rendering in memory; past the cap, terms render per occurrence.
const termRenderCacheCap = 1 << 16

// termCells is that cache: the cells of one response, each distinct term
// decoded and rendered once by the format's cell renderer.
type termCells struct {
	dict   *rdf.Dictionary
	render func([]byte, rdf.Term) []byte
	cells  map[rdf.TermID][]byte
}

func (c *termCells) get(id rdf.TermID) ([]byte, error) {
	if tb, ok := c.cells[id]; ok {
		return tb, nil
	}
	t, found := c.dict.Decode(id)
	if !found {
		return nil, fmt.Errorf("server: row references unknown term ID %d", id)
	}
	tb := c.render(nil, t)
	if c.cells == nil {
		c.cells = make(map[rdf.TermID][]byte)
	}
	if len(c.cells) < termRenderCacheCap {
		c.cells[id] = tb
	}
	return tb, nil
}

// appendTermJSON renders one term exactly as json.Marshal renders
// jsonTerm: fields in declaration order, empty Lang/Datatype omitted.
func appendTermJSON(b []byte, t rdf.Term) []byte {
	switch t.Kind {
	case rdf.IRI:
		b = append(b, `{"type":"uri","value":`...)
		b = appendJSONString(b, t.Value)
	case rdf.Blank:
		b = append(b, `{"type":"bnode","value":`...)
		b = appendJSONString(b, t.Value)
	default:
		b = append(b, `{"type":"literal","value":`...)
		b = appendJSONString(b, t.Value)
		if t.Lang != "" {
			b = append(b, `,"xml:lang":`...)
			b = appendJSONString(b, t.Lang)
		}
		if t.Datatype != "" {
			b = append(b, `,"datatype":`...)
			b = appendJSONString(b, t.Datatype)
		}
	}
	return append(b, '}')
}

// jsonSafe marks the ASCII bytes encoding/json leaves unescaped with
// HTML escaping on (its htmlSafeSet): printable characters minus the
// quote, backslash, and the HTML-sensitive <, >, &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		safe[c] = true
	}
	safe['"'] = false
	safe['\\'] = false
	safe['<'] = false
	safe['>'] = false
	safe['&'] = false
	return
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string, byte-identical to
// encoding/json's default (HTML-escaping) encoder: \uXXXX for control
// and HTML-sensitive characters, � for invalid UTF-8, and escaped
// U+2028/U+2029.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// WriteResultsTSV serializes rows in the SPARQL 1.1 Query Results TSV
// Format: a header of '?'-prefixed variable names, then one line per
// binding with terms in N-Triples syntax and empty fields for unbound
// variables, streamed through the same row loop and the same per-response
// term cache as the JSON writer.
func WriteResultsTSV(w io.Writer, dict *rdf.Dictionary, vars []string, rows RowSeq) error {
	var head []byte
	for i, name := range vars {
		if i > 0 {
			head = append(head, '\t')
		}
		head = append(append(head, '?'), name...)
	}
	head = append(head, '\n')
	cells := termCells{dict: dict, render: appendTSVTerm}
	return writeRows(w, head, rows, func(b []byte, _ int, row engine.Row) ([]byte, error) {
		for i := range vars {
			if i > 0 {
				b = append(b, '\t')
			}
			if i >= len(row) || row[i] == rdf.NoTerm {
				continue
			}
			tb, err := cells.get(row[i])
			if err != nil {
				return b, err
			}
			b = append(b, tb...)
		}
		return append(b, '\n'), nil
	}, "")
}

// appendTSVTerm renders one term as a TSV cell. Term.String applies the
// N-Triples escapes the SPARQL 1.1 TSV format requires inside literals
// (\t, \n, \r, \", \\), so a literal containing a raw tab or newline can
// never shift later columns. IRIs and blank-node labels are rendered
// verbatim by Term.String, though — such control characters are illegal
// there, but a malformed term that smuggled one through the dictionary
// must still not corrupt the table shape, so they are escaped here too.
func appendTSVTerm(b []byte, t rdf.Term) []byte {
	s := t.String()
	if strings.ContainsAny(s, "\t\n\r") {
		s = tsvCellSanitizer.Replace(s)
	}
	return append(b, s...)
}

var tsvCellSanitizer = strings.NewReplacer("\t", `\t`, "\n", `\n`, "\r", `\r`)
