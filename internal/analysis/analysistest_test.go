package analysis

// The golden-file harness: each analyzer runs over
// testdata/src/<name>/, and every diagnostic must be announced by a
// `// want "regexp"` comment on the line it is reported at — the same
// contract as golang.org/x/tools/go/analysis/analysistest, implemented
// on the standard library. Unexpected diagnostics and unmatched wants
// both fail the test, so the golden files pin positives AND negatives.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestGenSwap(t *testing.T)     { runGolden(t, GenSwap) }
func TestMetricLabel(t *testing.T) { runGolden(t, MetricLabel) }
func TestLooseErr(t *testing.T)    { runGolden(t, LooseErr) }
func TestLockPath(t *testing.T)    { runGolden(t, LockPath) }

func runGolden(t *testing.T, a *Analyzer) {
	t.Helper()
	name := a.Name
	dir := filepath.Join("testdata", "src", name)
	fset := token.NewFileSet()
	files, err := ParseDir(fset, dir)
	if err != nil {
		t.Fatalf("parsing %s: %v", dir, err)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	info := newTypesInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(name, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking %s: %v", dir, err)
	}
	diags, err := RunAnalyzers(fset, files, pkg, info, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	wants := collectWants(t, fset, files)
	for _, d := range diags {
		p := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%v: unexpected diagnostic: %s [%s]", p, d.Message, d.Analyzer)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no diagnostic matched want %q", key, w.re)
			}
		}
	}
}

type wantExpect struct {
	re      *regexp.Regexp
	matched bool
}

// collectWants parses `// want "re" "re2"` comments, keyed by
// file:line. Both interpreted (") and raw (`) Go string syntax work.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[string][]*wantExpect {
	t.Helper()
	wants := map[string][]*wantExpect{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				p := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
				for {
					rest = strings.TrimSpace(rest)
					if rest == "" {
						break
					}
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%v: malformed want comment %q: %v", p, c.Text, err)
					}
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%v: unquoting %q: %v", p, q, err)
					}
					re, err := regexp.Compile(s)
					if err != nil {
						t.Fatalf("%v: bad want regexp %q: %v", p, s, err)
					}
					wants[key] = append(wants[key], &wantExpect{re: re})
					rest = rest[len(q):]
				}
			}
		}
	}
	return wants
}
