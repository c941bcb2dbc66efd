// Package analysis machine-enforces the invariants this engine's
// correctness rests on and no compiler or stock linter checks: one
// generation snapshot per request scope (genswap), bounded /metrics
// label sets (metriclabel), no error result silently dropped by a call
// statement (looseerr), and swapMu acquired outermost with its Unlock
// deferred at once (lockpath).
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic) but is built entirely on the standard library's go/ast and
// go/types, because this module is dependency-free by policy. There is
// one driver, the loader in load.go; TestModuleClean runs every analyzer
// over every package it loads, and `make lint` is that test. The loader
// never parses a *_test.go file, and no diagnostic can be suppressed: a
// finding is fixed or the rule is changed.
package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one analysis pass: a name (used in
// diagnostics), one-line documentation, and the run function.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// All returns the full suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{GenSwap, MetricLabel, LooseErr, LockPath}
}

// A Pass provides one analyzer everything it needs to inspect a single
// type-checked package: syntax, types, and a Report sink.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records one diagnostic.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled in by RunAnalyzers
}

// RunAnalyzers runs every analyzer over one loaded package and returns
// their diagnostics sorted by position.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report: func(d Diagnostic) {
				d.Analyzer = a.Name
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// newTypesInfo returns a types.Info with every map analyzers consult
// populated.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// exprString renders an expression compactly for diagnostics.
func exprString(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), e); err != nil {
		return "<expr>"
	}
	return buf.String()
}
