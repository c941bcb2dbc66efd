package analysis

import (
	"go/ast"
	"go/types"
)

// Pool-worker closure pattern, used by genswap: a FuncLit passed
// directly as an argument to a pool-runner call — the bounded
// evaluation pool's Do or its chunk loop Run, or the engine's site
// round built on them — runs
// concurrently with (and possibly inline on) the spawning scope.
// Workers must inherit one generation snapshot from that scope: a
// worker taking its own generation load can straddle a swap mid-query.
//
// Detection is structural (testdata packages are self-contained, so
// import paths cannot anchor it): a method named Do or Run on a type
// named Pool, or round on a type named Engine.
var poolRunnerMethods = map[string]string{
	"Do":    "Pool",
	"Run":   "Pool",
	"round": "Engine",
}

// isPoolRunnerCall reports whether call invokes a pool-runner method.
func isPoolRunnerCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	wantRecv, ok := poolRunnerMethods[sel.Sel.Name]
	if !ok {
		return false
	}
	s := pass.TypesInfo.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return false
	}
	t := s.Recv()
	for {
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == wantRecv
}

// poolWorkerArgs returns the FuncLit arguments of a pool-runner call —
// the worker bodies the pattern rules apply to.
func poolWorkerArgs(pass *Pass, call *ast.CallExpr) []*ast.FuncLit {
	if !isPoolRunnerCall(pass, call) {
		return nil
	}
	var lits []*ast.FuncLit
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			lits = append(lits, lit)
		}
	}
	return lits
}
