package analysis

import "go/ast"

// LockPath enforces the one lock order this module relies on: swapMu,
// which serializes Repartition and Update, is the outermost lock. The
// rule is syntactic, per function body (closures are their own bodies):
//
//   - no other Lock or RLock call may precede X.swapMu.Lock() in the
//     body — taken or taken-and-released, an earlier lock is either an
//     inverted order or one refactor away from it;
//   - the statement right after X.swapMu.Lock() must be
//     `defer X.swapMu.Unlock()`, so every exit, panics included,
//     releases it and nothing can run between the two.
var LockPath = &Analyzer{
	Name: "lockpath",
	Doc:  "flags a swapMu.Lock that is not the body's first lock or not followed directly by its deferred Unlock",
	Run:  runLockPath,
}

func runLockPath(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkSwapMu(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkSwapMu(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// checkSwapMu applies both rules to one body.
func checkSwapMu(pass *Pass, body *ast.BlockStmt) {
	var first ast.Expr // receiver of the body's first Lock/RLock call
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // its own body
		case *ast.BlockStmt:
			checkSwapUnlock(pass, x.List)
		case *ast.CaseClause:
			checkSwapUnlock(pass, x.Body)
		case *ast.CommClause:
			checkSwapUnlock(pass, x.Body)
		case *ast.CallExpr:
			recv := lockReceiver(pass, x)
			if recv == nil {
				break
			}
			if first != nil && isSwapMu(recv) {
				pass.Reportf(x.Pos(),
					"swapMu acquired after %s was locked earlier in this body: swapMu is the outermost lock (Repartition/Update serialize on it before touching anything else); take it first",
					exprString(first))
			}
			if first == nil {
				first = recv
			}
		}
		return true
	})
}

// checkSwapUnlock flags an X.swapMu.Lock() statement in stmts that is
// not followed directly by `defer X.swapMu.Unlock()`.
func checkSwapUnlock(pass *Pass, stmts []ast.Stmt) {
	for i, s := range stmts {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		recv := lockReceiver(pass, call)
		if recv == nil || !isSwapMu(recv) {
			continue
		}
		mu := exprString(recv)
		if i+1 < len(stmts) {
			if d, ok := stmts[i+1].(*ast.DeferStmt); ok && calleeName(pass, d.Call) == "(*sync.Mutex).Unlock" {
				if sel, ok := d.Call.Fun.(*ast.SelectorExpr); ok && exprString(sel.X) == mu {
					continue
				}
			}
		}
		pass.Reportf(call.Pos(), "%s.Lock() must be followed directly by `defer %s.Unlock()`: every exit, panics included, must release the outermost lock", mu, mu)
	}
}

// lockReceiver returns the mutex a Lock or RLock call on a sync.Mutex or
// sync.RWMutex acquires, nil for any other call.
func lockReceiver(pass *Pass, call *ast.CallExpr) ast.Expr {
	switch calleeName(pass, call) {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock", "(*sync.RWMutex).RLock":
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			return sel.X
		}
	}
	return nil
}

func isSwapMu(recv ast.Expr) bool {
	sel, ok := ast.Unparen(recv).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "swapMu"
}
