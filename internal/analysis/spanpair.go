package analysis

import (
	"go/ast"
	"go/types"
)

// SpanPair enforces that every trace span opened with StartSpan is
// closed on every return path. StartSpan returns a closer func(); the
// nil-receiver-safe idiom is
//
//	defer tr.StartSpan("stage", fragment)()
//
// A dropped or never-called closer records a span that never ends, so
// EXPLAIN output and the per-stage histograms attribute unbounded time
// to that stage; calling the closer immediately measures nothing.
//
// Flagged, for any method named StartSpan whose static result is a
// bare func():
//   - the closer discarded as a statement or assigned to _;
//   - the closer invoked in the same statement without defer
//     (zero-length span);
//   - a named closer that is never called, deferred, or passed on;
//   - a path to return (or to the fall-off end of the function) on
//     which the closer has not run — found by forward dataflow over the
//     function's CFG, with `defer done()` recognized as closing every
//     path past its registration point;
//   - a closer taken in the spawning scope but invoked inside a
//     pool-worker closure (Pool.Do, Cluster.ParallelPool): workers run
//     concurrently and possibly many times, so the span would be closed
//     once per worker — each worker must open its own span, or the pair
//     must close in the spawning scope.
var SpanPair = &Analyzer{
	Name: "spanpair",
	Doc:  "flags trace.StartSpan calls whose closer is dropped, never invoked, or skipped on a return path",
	Run:  runSpanPair,
}

func runSpanPair(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkSpanFunc(pass, fn.Body)
			}
		}
	}
	return nil
}

// isStartSpan reports whether call invokes a method named StartSpan
// returning exactly one func() closer.
func isStartSpan(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "StartSpan" {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return false
	}
	sig, ok := tv.Type.(*types.Signature)
	return ok && sig.Params().Len() == 0 && sig.Results().Len() == 0
}

func checkSpanFunc(pass *Pass, body *ast.BlockStmt) {
	// First pass: classify every StartSpan call by the statement that
	// consumes it, using a parent map.
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isStartSpan(pass, call) {
			return true
		}
		switch p := parents[call].(type) {
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(), "StartSpan closer discarded: the span never ends; use `defer %s()`", exprString(call.Fun))
		case *ast.CallExpr:
			// StartSpan(...)() — closer invoked immediately.
			if p.Fun == call {
				switch parents[p].(type) {
				case *ast.DeferStmt:
					// defer tr.StartSpan(...)() — the idiom.
				default:
					pass.Reportf(call.Pos(), "StartSpan closer invoked immediately: the span has zero length; defer the call instead")
				}
			}
		case *ast.AssignStmt:
			checkSpanAssign(pass, body, parents, p, call)
		}
		return true
	})
}

// enclosingPoolWorker returns the innermost FuncLit enclosing n that is
// a direct argument of a pool-runner call, nil when there is none.
func enclosingPoolWorker(pass *Pass, parents map[ast.Node]ast.Node, n ast.Node) *ast.FuncLit {
	for cur := parents[n]; cur != nil; cur = parents[cur] {
		lit, ok := cur.(*ast.FuncLit)
		if !ok {
			continue
		}
		p := parents[lit]
		for {
			par, ok := p.(*ast.ParenExpr)
			if !ok {
				break
			}
			p = parents[par]
		}
		if call, ok := p.(*ast.CallExpr); ok && isPoolRunnerCall(pass, call) {
			for _, arg := range call.Args {
				if ast.Unparen(arg) == lit {
					return lit
				}
			}
		}
	}
	return nil
}

// nodeWithin reports whether inner lies inside outer's source range.
func nodeWithin(outer, inner ast.Node) bool {
	return outer.Pos() <= inner.Pos() && inner.End() <= outer.End()
}

// checkSpanAssign handles `done := tr.StartSpan(...)`: the closer must
// run — by defer or explicit call — on every path from the assignment
// to every exit of the enclosing function body.
func checkSpanAssign(pass *Pass, body *ast.BlockStmt, parents map[ast.Node]ast.Node, as *ast.AssignStmt, call *ast.CallExpr) {
	// Find which LHS ident receives the closer.
	var closer types.Object
	for i, rhs := range as.Rhs {
		if rhs != call || i >= len(as.Lhs) {
			continue
		}
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok {
			return // stored into a field/index: escapes, trust the author
		}
		if id.Name == "_" {
			pass.Reportf(call.Pos(), "StartSpan closer assigned to _: the span never ends; use `defer %s()`", exprString(call.Fun))
			return
		}
		closer = pass.TypesInfo.Defs[id]
		if closer == nil {
			closer = pass.TypesInfo.Uses[id]
		}
	}
	if closer == nil {
		return
	}
	escaped := false
	var callPos []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == closer {
				if lit := enclosingPoolWorker(pass, parents, x); lit != nil && !nodeWithin(lit, as) {
					pass.Reportf(x.Pos(),
						"span closer %s from the spawning scope is called inside a pool worker: the span would close once per worker; open a per-worker span or close in the spawning scope",
						closer.Name())
				}
				callPos = append(callPos, x)
				return true
			}
			// closer passed as an argument: escapes.
			for _, arg := range x.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == closer {
					escaped = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if id, ok := ast.Unparen(res).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == closer {
					escaped = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				id, ok := ast.Unparen(rhs).(*ast.Ident)
				if !ok || pass.TypesInfo.Uses[id] != closer {
					continue
				}
				// `_ = done` only appeases the compiler; it neither calls
				// nor escapes the closer.
				if i < len(x.Lhs) {
					if lid, ok := x.Lhs[i].(*ast.Ident); ok && lid.Name == "_" {
						continue
					}
				}
				escaped = true
			}
		}
		return true
	})
	if escaped {
		return
	}
	if len(callPos) == 0 {
		pass.Reportf(call.Pos(), "StartSpan closer %s is never called: the span never ends; use `defer %s()`", closer.Name(), closer.Name())
		return
	}

	// Path check: dataflow over the CFG of the innermost function body
	// holding the assignment. The span is Open after the assignment and
	// Closed after any statement that calls the closer — including a
	// defer statement, whose registration point is exactly where the
	// close becomes must-run (see cfg.go on defer), and statements whose
	// nested closure performs the call (the closure's timing is the
	// author's problem; the pool-worker check above flags the one shape
	// that is always wrong). A return or the fall-off end reached with
	// Open possible leaves that path's span unended.
	encBody := body
	for cur := parents[as]; cur != nil; cur = parents[cur] {
		if lit, ok := cur.(*ast.FuncLit); ok {
			encBody = lit.Body
			break
		}
	}
	const (
		spanOpen uint8 = 1 << iota
		spanClosed
	)
	type spanKey struct{}
	effect := func(n ast.Node) uint8 {
		if n == as {
			return spanOpen
		}
		if _, isRange := n.(*ast.RangeStmt); isRange {
			return 0 // its X and body statements live in other blocks
		}
		closes := false
		ast.Inspect(n, func(m ast.Node) bool {
			if c, ok := m.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == closer {
					closes = true
				}
			}
			return true
		})
		if closes {
			return spanClosed
		}
		return 0
	}
	g := NewCFG(encBody)
	transfer := func(b *Block, in map[spanKey]uint8) map[spanKey]uint8 {
		out := cloneBits(in)
		for _, n := range b.Nodes {
			if e := effect(n); e != 0 {
				out[spanKey{}] = e
			}
		}
		return out
	}
	in := Solve(g, Forward, map[spanKey]uint8{}, MeetUnion[spanKey], transfer, BitsEqual[spanKey])
	line := pass.Fset.Position(as.Pos()).Line
	for _, b := range g.Blocks {
		st, ok := in[b]
		if !ok {
			continue // unreachable
		}
		bits := st[spanKey{}]
		for _, n := range b.Nodes {
			if ret, isRet := n.(*ast.ReturnStmt); isRet && bits&spanOpen != 0 {
				pass.Reportf(ret.Pos(), "return path skips span closer %s taken at line %d: defer the closer so every exit ends the span",
					closer.Name(), line)
			}
			if e := effect(n); e != 0 {
				bits = e
			}
		}
		if bits&spanOpen == 0 {
			continue
		}
		for _, s := range b.Succs {
			if s == g.Exit {
				if last := b.last(); last == nil || (!isReturn(last) && !isPanicNode(last)) {
					pass.Reportf(encBody.Rbrace, "function end skips span closer %s taken at line %d: defer the closer so every exit ends the span",
						closer.Name(), line)
				}
			}
		}
	}
}
