package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The shape goldens under testdata/ pin what scrapers and log shippers
// parse — metric names, HELP/TYPE lines, label sets and their order,
// EXPLAIN and slow-log JSON keys in document order, and the paper's
// stage order — with every sample value masked, so a refactor of the
// serving layer cannot move them unnoticed. Regenerate with
// `go test ./internal/server -run 'Lint|Explain|SlowLog' -update-golden`.
var updateGolden = flag.Bool("update-golden", false, "rewrite the shape goldens under testdata/")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s shape changed\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// maskMetrics replaces every sample value of a /metrics body with V;
// comment lines, metric names and label sets stay byte for byte.
func maskMetrics(body []byte) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(string(body), "\n") {
		if i := strings.LastIndexByte(line, ' '); i >= 0 && !strings.HasPrefix(line, "#") {
			line = line[:i] + " V\n"
		}
		b.WriteString(line)
	}
	return b.String()
}

// jsonShape renders a JSON document as one `path: type` line per
// distinct key path, in document order; array elements share the path
// `name[]`. The values of `stages[].stage` are kept verbatim, so the
// stage list and its order are part of the shape.
func jsonShape(t *testing.T, raw []byte) string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	var lines []string
	seen := map[string]bool{}
	var walk func(path string)
	walk = func(path string) {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("jsonShape at %q: %v", path, err)
		}
		kind := ""
		switch v := tok.(type) {
		case json.Delim:
			if v == '{' {
				for dec.More() {
					key, err := dec.Token()
					if err != nil {
						t.Fatalf("jsonShape at %q: %v", path, err)
					}
					walk(strings.TrimPrefix(path+"."+key.(string), "."))
				}
			} else {
				for dec.More() {
					walk(path + "[]")
				}
			}
			if _, err := dec.Token(); err != nil { // closing delimiter
				t.Fatalf("jsonShape at %q: %v", path, err)
			}
			return
		case string:
			kind = "string"
			if path == "stages[].stage" {
				kind = fmt.Sprintf("%q", v)
			}
		case float64:
			kind = "number"
		case bool:
			kind = "bool"
		case nil:
			kind = "null"
		}
		if line := path + ": " + kind; !seen[line] {
			seen[line] = true
			lines = append(lines, line)
		}
	}
	walk("")
	return strings.Join(lines, "\n") + "\n"
}
