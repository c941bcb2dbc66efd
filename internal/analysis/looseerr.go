package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// LooseErr flags call statements that drop an error result outright
// (`go vet` has no such check, and staticcheck does not check it). A
// dropped error in the serializer or slow-log path turns an I/O
// failure into silent data loss: the handler reports success while
// the client got half a response. The sanctioned way to drop an error
// on purpose is to make the drop visible:
//
//	_ = w.Write(line) // best-effort, reason...
//
// which this analyzer never flags (the assignment makes the discard
// explicit and greppable).
//
// Documented exemptions, to keep the signal high:
//   - fmt.Print/Printf/Println/Fprint/Fprintf/Fprintln — terminal and
//     strings.Builder writers in practice; errors are not actionable;
//   - methods on *strings.Builder and *bytes.Buffer — documented to
//     never return a non-nil error;
//   - (*flag.FlagSet).Parse — every FlagSet here is ExitOnError, so the
//     error path never returns;
//   - `defer x.Close()` — best-effort cleanup of read-side resources
//     (write-side Closes whose error matters should be explicit
//     statements, which ARE flagged).
var LooseErr = &Analyzer{
	Name: "looseerr",
	Doc:  "flags call statements that implicitly discard an error result",
	Run:  runLooseErr,
}

func runLooseErr(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ExprStmt:
				if call, ok := x.X.(*ast.CallExpr); ok {
					checkDiscard(pass, call, false)
				}
			case *ast.DeferStmt:
				checkDiscard(pass, x.Call, true)
				return false // don't re-visit the call as an ExprStmt child
			case *ast.GoStmt:
				checkDiscard(pass, x.Call, false)
				return false
			}
			return true
		})
	}
	return nil
}

func checkDiscard(pass *Pass, call *ast.CallExpr, deferred bool) {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok || tv.IsType() {
		return // conversion, not a call
	}
	if !resultsEndInError(tv.Type) {
		return
	}
	name := calleeName(pass, call)
	if isLooseErrExempt(name, deferred) {
		return
	}
	what := name
	if what == "" {
		what = exprString(call.Fun)
	}
	pass.Reportf(call.Pos(), "error return of %s is silently discarded: handle it, or make the drop explicit with `_ = ...` and a reason", what)
}

// resultsEndInError reports whether the call's result tuple (or single
// result) ends in the built-in error type.
func resultsEndInError(t types.Type) bool {
	errType := types.Universe.Lookup("error").Type()
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		t = tup.At(tup.Len() - 1).Type()
	}
	return types.Identical(t, errType)
}

// calleeName renders the callee as a qualified name for the exemption
// table: "fmt.Fprintf", "(*strings.Builder).WriteString", or "" for
// indirect calls.
func calleeName(pass *Pass, call *ast.CallExpr) string {
	if f := calleeFunc(pass, call); f != nil {
		return f.FullName()
	}
	return ""
}

func isLooseErrExempt(name string, deferred bool) bool {
	switch name {
	case "fmt.Print", "fmt.Printf", "fmt.Println",
		"fmt.Fprint", "fmt.Fprintf", "fmt.Fprintln":
		return true
	case "(*flag.FlagSet).Parse":
		return true
	}
	if strings.HasPrefix(name, "(*strings.Builder).") || strings.HasPrefix(name, "(*bytes.Buffer).") {
		return true
	}
	if deferred && (strings.HasSuffix(name, ".Close") || name == "") {
		// `defer f.Close()` and deferred indirect calls (e.g. a deferred
		// cleanup closure) are best-effort by convention.
		return true
	}
	return false
}
