package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"
)

// MetricLabel guards /metrics cardinality: every label value emitted in
// Prometheus text exposition must come from a declared fixed set, the
// package-level `var <x>Names = [...]string{...}` arrays next to the
// histogram declarations. A label interpolated from a query string, an
// error message, or any other unbounded input mints a new time series
// per distinct value and melts the scrape.
//
// A label value is accepted when it is
//   - a string literal that is a member of some declared set,
//   - an index into a declared set (stageNames[i]),
//   - the range variable of a loop over a declared set,
//   - a named constant whose value is a member of some declared set.
//
// A set may also be declared by an imported package, so a list owned
// elsewhere (engine.StageNames) is drawn from rather than re-declared:
// an imported package-level `<X>Names` variable of type [N]string is a
// declared set — its members are not visible from here, but the array
// type fixes how many series it can mint.
//
// Sinks checked:
//   - the `label:` field of *Histogram struct literals,
//   - Printf-family format strings containing `{name=%q}` or
//     `{name=%s}`: the argument feeding that verb is the label value.
//
// The bucket label `le` and dynamic label *names* (`{%s=...}`) are
// exempt — `le` is bounded by the bucket layout and a %s label name is
// the histogram's own declared label.
var MetricLabel = &Analyzer{
	Name: "metriclabel",
	Doc:  "flags metric label values not drawn from a declared fixed label-name set",
	Run:  runMetricLabel,
}

var labelVerbRE = regexp.MustCompile(`\{([A-Za-z_][A-Za-z0-9_]*)=%[qs]\}`)

func runMetricLabel(pass *Pass) error {
	sets := declaredLabelSets(pass)
	if len(sets) == 0 {
		return nil // package declares no label sets; nothing to enforce
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				checkLabelField(pass, sets, x)
			case *ast.CallExpr:
				checkLabelFormat(pass, sets, x)
			}
			return true
		})
	}
	return nil
}

// declaredLabelSets finds package-level `var <x>Names = [...]string{...}`
// (array or slice, all elements string literals) and returns each var's
// object mapped to its member values.
func declaredLabelSets(pass *Pass) map[types.Object]map[string]bool {
	sets := map[types.Object]map[string]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 {
					continue
				}
				if !strings.HasSuffix(vs.Names[0].Name, "Names") {
					continue
				}
				cl, ok := vs.Values[0].(*ast.CompositeLit)
				if !ok {
					continue
				}
				members := map[string]bool{}
				allLit := len(cl.Elts) > 0
				for _, elt := range cl.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						elt = kv.Value // [numOutcomes]string{outcomeHit: "hit", ...}
					}
					lit, ok := elt.(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						allLit = false
						break
					}
					s, err := strconv.Unquote(lit.Value)
					if err != nil {
						allLit = false
						break
					}
					members[s] = true
				}
				if allLit {
					sets[pass.TypesInfo.Defs[vs.Names[0]]] = members
				}
			}
		}
	}
	return sets
}

// checkLabelField flags `label:` fields of *Histogram composite
// literals whose value is not drawn from a declared set.
func checkLabelField(pass *Pass, sets map[types.Object]map[string]bool, cl *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[cl]
	if !ok {
		return
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || !strings.Contains(named.Obj().Name(), "Histogram") {
		return
	}
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || !strings.EqualFold(key.Name, "label") {
			continue
		}
		if why := labelValueOK(pass, sets, kv.Value); why != "" {
			pass.Reportf(kv.Value.Pos(), "metric label value %s: %s — draw it from a declared *Names set to keep /metrics cardinality bounded",
				exprString(kv.Value), why)
		}
	}
}

// checkLabelFormat flags Printf-family calls whose format string embeds
// `{name=%q}` / `{name=%s}` labels fed by unbounded arguments.
func checkLabelFormat(pass *Pass, sets map[types.Object]map[string]bool, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	var name string
	if ok {
		name = sel.Sel.Name
	} else if id, isID := call.Fun.(*ast.Ident); isID {
		name = id.Name
	}
	if !strings.HasSuffix(name, "printf") && !strings.HasSuffix(name, "Printf") &&
		name != "Sprintf" && name != "Fprintf" {
		return
	}
	// Locate the format string: first string-literal argument.
	fmtIdx := -1
	var format string
	for i, arg := range call.Args {
		if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				fmtIdx, format = i, s
				break
			}
		}
	}
	if fmtIdx < 0 {
		return
	}
	for _, m := range labelVerbRE.FindAllStringSubmatchIndex(format, -1) {
		labelName := format[m[2]:m[3]]
		if labelName == "le" {
			continue
		}
		// Which verb index feeds this label value? Count verbs before the
		// %q/%s inside the match.
		verbPos := strings.Index(format[m[0]:m[1]], "%") + m[0]
		argIdx := fmtIdx + 1 + countVerbs(format[:verbPos])
		if argIdx >= len(call.Args) {
			continue
		}
		if why := labelValueOK(pass, sets, call.Args[argIdx]); why != "" {
			pass.Reportf(call.Args[argIdx].Pos(), "metric label %s value %s: %s — draw it from a declared *Names set to keep /metrics cardinality bounded",
				labelName, exprString(call.Args[argIdx]), why)
		}
	}
}

// countVerbs counts formatting verbs (excluding %%) in s.
func countVerbs(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] != '%' || i+1 >= len(s) {
			continue
		}
		if s[i+1] == '%' {
			i++
			continue
		}
		n++
	}
	return n
}

// labelValueOK returns "" when e is drawn from a declared set, else a
// short reason why it is not.
func labelValueOK(pass *Pass, sets map[types.Object]map[string]bool, e ast.Expr) string {
	e = ast.Unparen(e)
	// Constant string (literal or named const): member of some set?
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
		s, err := strconv.Unquote(tv.Value.ExactString())
		if err == nil {
			for _, members := range sets {
				if members[s] {
					return ""
				}
			}
			return "literal " + strconv.Quote(s) + " is not a member of any declared label set"
		}
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		if isLabelSet(pass, sets, x.X) {
			return ""
		}
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[x]
		if obj != nil && rangesOverSet(pass, sets, obj) {
			return ""
		}
	}
	return "value is not provably bounded"
}

// isLabelSet reports whether e names a declared label set: one of this
// package's, or an imported package-level `<X>Names` string array.
func isLabelSet(pass *Pass, sets map[types.Object]map[string]bool, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		_, ok := sets[pass.TypesInfo.Uses[x]]
		return ok
	case *ast.SelectorExpr:
		v, ok := pass.TypesInfo.Uses[x.Sel].(*types.Var)
		if !ok || v.Pkg() == nil || v.Pkg() == pass.Pkg || v.Parent() != v.Pkg().Scope() || !strings.HasSuffix(v.Name(), "Names") {
			return false
		}
		arr, ok := v.Type().Underlying().(*types.Array)
		if !ok {
			return false
		}
		elem, ok := arr.Elem().Underlying().(*types.Basic)
		return ok && elem.Kind() == types.String
	}
	return false
}

// rangesOverSet reports whether obj is defined as the value variable of
// a range loop over a declared set, anywhere in the package.
func rangesOverSet(pass *Pass, sets map[types.Object]map[string]bool, obj types.Object) bool {
	found := false
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if found {
				return false
			}
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			for _, v := range []ast.Expr{rs.Key, rs.Value} {
				id, ok := v.(*ast.Ident)
				if !ok || pass.TypesInfo.Defs[id] != obj {
					continue
				}
				if isLabelSet(pass, sets, rs.X) {
					found = true
				}
			}
			return true
		})
	}
	return found
}
