package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// GenSwap enforces the generation-snapshot discipline around the
// cluster's hot-swapped state (PR 3/PR 5's epoch machinery): the
// immutable generation behind an atomic.Pointer must be loaded exactly
// once per request scope and threaded to everything that needs it.
// Loading twice can straddle a Repartition/Update swap and mix two
// generations inside one query (the Definition 1 consistency argument
// assumes a single coherent fragment view per execution); stashing a
// snapshot in a struct field or global caches it across swap
// boundaries, resurrecting exactly the stale-read class the epoch
// machinery makes structurally impossible.
//
// Flagged:
//   - two or more generation loads rooted at the same receiver in one
//     function scope — both direct x.ptr.Load() calls and calls to
//     load-like wrappers (single-return functions whose result derives
//     from a generation load, e.g. DB.load, DB.store, DB.Epoch);
//   - assigning a loaded generation (or anything derived from one in
//     the same expression) to a struct field or package-level variable.
//
// Closures count as their own scope: a goroutine body taking its own
// snapshot is a new request scope by construction. The exception is a
// worker closure passed directly to a pool runner (Pool.Do,
// Engine.round): pool workers evaluate one query against one
// fragment view, so they must inherit the spawning scope's snapshot —
// a load inside the worker can straddle a swap mid-query and hand
// sibling workers two different generations.
//
// Methods whose body does not match the wrapper shape but that still
// resolve epoch-pinned state (e.g. the RPC worker's generation lookup,
// which reads a mutex-guarded epoch map instead of an atomic pointer)
// opt in with a `//gstored:genaccessor` doc-comment directive: calls to
// a marked method count as generation loads at their call sites, and
// the wrapper fixpoint propagates through functions built on them.
var GenSwap = &Analyzer{
	Name: "genswap",
	Doc:  "flags double atomic.Pointer generation loads per scope and snapshots cached across swap boundaries",
	Run:  runGenSwap,
}

func runGenSwap(pass *Pass) error {
	loaders := findLoaderFuncs(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Body != nil {
				checkGenScopes(pass, fn, fn.Body, loaders)
			}
		}
	}
	return nil
}

// isAtomicPointerLoad reports whether call is x.Load() on a
// sync/atomic.Pointer[T] value, returning the receiver expression.
func isAtomicPointerLoad(pass *Pass, call *ast.CallExpr) (recv ast.Expr, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Load" {
		return nil, false
	}
	s := pass.TypesInfo.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return nil, false
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
	if !ok {
		return nil, false
	}
	obj := named.Obj()
	return sel.X, obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && obj.Name() == "Pointer"
}

// chainRoot resolves the root variable object of a selector chain like
// db.state or (&db).state; nil when the chain passes through calls,
// indexing, or anything else that breaks the "same pointer" identity.
func chainRoot(pass *Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return pass.TypesInfo.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// findLoaderFuncs computes the package's load-like wrappers to a
// fixpoint: functions whose body is a single return whose expression
// performs a generation load rooted at the receiver (directly or via
// another wrapper). Calls to these count as generation loads at their
// call sites.
func findLoaderFuncs(pass *Pass) map[*types.Func]bool {
	loaders := map[*types.Func]bool{}
	// Directive-marked methods seed the fixpoint: they resolve
	// epoch-pinned state through machinery the structural wrapper
	// detection cannot see (mutex-guarded epoch maps, RPC accessors).
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil || fn.Recv == nil {
				continue
			}
			for _, c := range fn.Doc.List {
				if strings.TrimSpace(c.Text) == "//gstored:genaccessor" {
					if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
						loaders[obj] = true
					}
				}
			}
		}
	}
	for {
		grew := false
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || len(fn.Body.List) != 1 || fn.Recv == nil {
					continue
				}
				obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
				if !ok || loaders[obj] {
					continue
				}
				ret, ok := fn.Body.List[0].(*ast.ReturnStmt)
				if !ok {
					continue
				}
				recvObj := receiverObj(pass, fn)
				if recvObj == nil {
					continue
				}
				found := false
				for _, res := range ret.Results {
					ast.Inspect(res, func(n ast.Node) bool {
						call, ok := n.(*ast.CallExpr)
						if !ok || found {
							return !found
						}
						if recv, ok := isAtomicPointerLoad(pass, call); ok && chainRoot(pass, recv) == recvObj {
							found = true
						} else if callee := calleeFunc(pass, call); callee != nil && loaders[callee] {
							if sel, ok := call.Fun.(*ast.SelectorExpr); ok && chainRoot(pass, sel.X) == recvObj {
								found = true
							}
						}
						return !found
					})
				}
				if found {
					loaders[obj] = true
					grew = true
				}
			}
		}
		if !grew {
			return loaders
		}
	}
}

func receiverObj(pass *Pass, fn *ast.FuncDecl) types.Object {
	if fn.Recv == nil || len(fn.Recv.List) != 1 || len(fn.Recv.List[0].Names) != 1 {
		return nil
	}
	return pass.TypesInfo.Defs[fn.Recv.List[0].Names[0]]
}

// genLoad is one generation-load event in a scope.
type genLoad struct {
	call *ast.CallExpr
	root types.Object
	what string // rendered receiver for the message, e.g. "db.state.Load" or "db.load"
}

// checkGenScopes walks one function scope (recursing into closures as
// fresh scopes), counting generation loads per root object and flagging
// snapshot stores into fields or globals.
func checkGenScopes(pass *Pass, owner ast.Node, body *ast.BlockStmt, loaders map[*types.Func]bool) {
	var loads []genLoad
	selfLoader := false
	if fn, ok := owner.(*ast.FuncDecl); ok {
		if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok && loaders[obj] {
			selfLoader = true
		}
	}
	workerLits := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if workerLits[x] {
				checkPoolWorkerLoads(pass, x, loaders)
			} else {
				checkGenScopes(pass, x, x.Body, loaders)
			}
			return false
		case *ast.CallExpr:
			// Pre-order: a pool-runner call is visited before its FuncLit
			// arguments, so marking them here steers the FuncLit case above.
			for _, lit := range poolWorkerArgs(pass, x) {
				workerLits[lit] = true
			}
			if recv, ok := isAtomicPointerLoad(pass, x); ok {
				if root := chainRoot(pass, recv); root != nil {
					loads = append(loads, genLoad{call: x, root: root, what: exprString(recv) + ".Load"})
				}
				return true
			}
			if callee := calleeFunc(pass, x); callee != nil && loaders[callee] {
				if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
					if root := chainRoot(pass, sel.X); root != nil {
						loads = append(loads, genLoad{call: x, root: root, what: exprString(sel.X) + "." + callee.Name()})
					}
				}
			}
		case *ast.AssignStmt:
			checkGenStore(pass, x, loaders)
		}
		return true
	})
	if selfLoader {
		return
	}
	seen := map[types.Object]genLoad{}
	for _, l := range loads {
		if first, ok := seen[l.root]; ok {
			pass.Reportf(l.call.Pos(),
				"generation loaded more than once in this scope (%s after %s): take one snapshot per request and thread it, or a swap landing in between hands the scope two different generations",
				l.what, first.what)
			continue
		}
		seen[l.root] = l
	}
}

// checkPoolWorkerLoads flags generation loads inside a pool-worker
// closure: workers inherit the spawning scope's snapshot. Nested
// closures that are not themselves pool workers stay fresh scopes
// (e.g. a callback constructed inside the worker for later use).
func checkPoolWorkerLoads(pass *Pass, lit *ast.FuncLit, loaders map[*types.Func]bool) {
	report := func(call *ast.CallExpr, what string) {
		pass.Reportf(call.Pos(),
			"generation loaded inside pool worker (%s): workers inherit one snapshot from the spawning scope, or a swap mid-query hands sibling workers different generations", what)
	}
	workerLits := map[*ast.FuncLit]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if workerLits[x] {
				checkPoolWorkerLoads(pass, x, loaders)
			} else {
				checkGenScopes(pass, x, x.Body, loaders)
			}
			return false
		case *ast.CallExpr:
			for _, inner := range poolWorkerArgs(pass, x) {
				workerLits[inner] = true
			}
			if recv, ok := isAtomicPointerLoad(pass, x); ok {
				if chainRoot(pass, recv) != nil {
					report(x, exprString(recv)+".Load")
				}
				return true
			}
			if callee := calleeFunc(pass, x); callee != nil && loaders[callee] {
				if sel, ok := x.Fun.(*ast.SelectorExpr); ok && chainRoot(pass, sel.X) != nil {
					report(x, exprString(sel.X)+"."+callee.Name())
				}
			}
		case *ast.AssignStmt:
			checkGenStore(pass, x, loaders)
		}
		return true
	})
}

// checkGenStore flags assignments that cache a generation snapshot
// beyond the request scope: LHS is a field selector or a package-level
// variable and RHS derives from a generation load.
func checkGenStore(pass *Pass, as *ast.AssignStmt, loaders map[*types.Func]bool) {
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) && len(as.Rhs) != 1 {
			break
		}
		rhs := as.Rhs[min(i, len(as.Rhs)-1)]
		if !exprContainsGenLoad(pass, rhs, loaders) {
			continue
		}
		switch l := lhs.(type) {
		case *ast.SelectorExpr:
			pass.Reportf(as.Pos(),
				"generation snapshot stored into field %s: caching a generation across a swap boundary resurrects stale reads; store the epoch or re-load per request instead",
				exprString(l))
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[l]; obj != nil && obj.Parent() == pass.Pkg.Scope() {
				pass.Reportf(as.Pos(),
					"generation snapshot stored into package-level variable %s: caching a generation across a swap boundary resurrects stale reads",
					l.Name)
			}
		}
	}
}

func exprContainsGenLoad(pass *Pass, e ast.Expr, loaders map[*types.Func]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if fl, ok := n.(*ast.FuncLit); ok {
			_ = fl
			return false // a closure capturing a load is its own scope
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, ok := isAtomicPointerLoad(pass, call); ok {
			found = true
			return false
		}
		if callee := calleeFunc(pass, call); callee != nil && loaders[callee] {
			found = true
			return false
		}
		return true
	})
	return found
}

// calleeFunc resolves the *types.Func a call statically invokes, nil
// for indirect calls and conversions.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}
