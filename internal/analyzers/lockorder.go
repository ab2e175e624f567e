package analyzers

import (
	"go/ast"
	"go/token"
)

// LockOrder enforces the nested-locking discipline of DESIGN.md §7. Two
// rules, both per function body over the statement CFG:
//
//  1. No self-deadlock: after mu.Lock(), another Lock() on the same
//     receiver chain must not be reachable without a non-deferred
//     Unlock() in between. A deferred Unlock runs at function exit and
//     therefore never breaks the path to a second Lock.
//
//  2. Ordered pair acquisition: while one mutex is held, taking a
//     second mutex reached through the same final field (q.mu and
//     dst.mu — "same-typed" in practice) is only legal when an
//     index-ordering comparison (<, >, <=, >=) appears earlier in the
//     function, the way a work-stealing transfer compares deque indices
//     before locking victim and destination in a fixed order (the
//     stealInto fixture in testdata/src/lockorder).
//
// The analysis is syntactic: receiver chains are compared textually
// (selectorChain), and any ordering comparison before the outer Lock
// counts as the guard — the analyzer cannot prove the comparison is
// about these two mutexes, only that the function establishes an order
// before nesting.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "nested mutex Lock calls on same-typed receivers need an index-ordering guard " +
		"(such as a comparison of deque indices), and no Lock may be reachable twice on one receiver " +
		"without an intervening Unlock",
	Run: runLockOrder,
}

// lockSite is one Lock/Unlock call statement inside a function body.
type lockSite struct {
	node     *cfgNode
	call     *ast.CallExpr
	chain    string // receiver chain, e.g. "q.mu"
	unlock   bool
	deferred bool
}

func runLockOrder(pass *Pass) {
	for _, f := range pass.files() {
		eachFuncBody(f, func(name string, recv *ast.FieldList, body *ast.BlockStmt) {
			checkLockOrderFunc(pass, body)
		})
	}
}

// lockCall destructures expr as <chain>.Lock() / <chain>.Unlock()
// (including the RLock/RUnlock spellings) and returns the chain.
func lockCall(expr ast.Expr) (call *ast.CallExpr, chain string, unlock, ok bool) {
	c, isCall := expr.(*ast.CallExpr)
	if !isCall || len(c.Args) != 0 {
		return nil, "", false, false
	}
	sel, isSel := c.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		unlock = false
	case "Unlock", "RUnlock":
		unlock = true
	default:
		return nil, "", false, false
	}
	chain = selectorChain(sel.X)
	if chain == "" {
		return nil, "", false, false
	}
	return c, chain, unlock, true
}

func checkLockOrderFunc(pass *Pass, body *ast.BlockStmt) {
	var sites []lockSite
	funcStmts(body, func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if call, chain, unlock, ok := lockCall(s.X); ok {
				sites = append(sites, lockSite{call: call, chain: chain, unlock: unlock})
			}
		case *ast.DeferStmt:
			if call, chain, unlock, ok := lockCall(s.Call); ok {
				sites = append(sites, lockSite{call: call, chain: chain, unlock: unlock, deferred: true})
			}
		}
	})
	locks := 0
	for _, s := range sites {
		if !s.unlock {
			locks++
		}
	}
	if locks == 0 {
		return
	}

	g := buildCFG(body)
	// Attach CFG nodes: the site statements are exactly the ExprStmt /
	// DeferStmt wrappers, which funcStmts and buildCFG agree on.
	stmtOf := make(map[*ast.CallExpr]ast.Stmt)
	funcStmts(body, func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if c, ok := s.X.(*ast.CallExpr); ok {
				stmtOf[c] = s
			}
		case *ast.DeferStmt:
			stmtOf[s.Call] = s
		}
	})
	for i := range sites {
		sites[i].node = g.node(stmtOf[sites[i].call])
	}

	hasOrderingGuardBefore := func(pos token.Pos) bool {
		found := false
		funcStmts(body, func(s ast.Stmt) {
			if found || s.Pos() >= pos {
				return
			}
			ast.Inspect(s, func(n ast.Node) bool {
				if found {
					return false
				}
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				if be, ok := n.(*ast.BinaryExpr); ok && be.Pos() < pos {
					switch be.Op {
					case token.LSS, token.GTR, token.LEQ, token.GEQ:
						found = true
						return false
					}
				}
				return true
			})
		})
		return found
	}

	isNode := func(want *cfgNode) func(*cfgNode) bool {
		return func(n *cfgNode) bool { return n == want }
	}
	unlockKill := func(chain string) func(*cfgNode) bool {
		kills := make(map[*cfgNode]bool)
		for _, s := range sites {
			if s.unlock && !s.deferred && s.chain == chain && s.node != nil {
				kills[s.node] = true
			}
		}
		return func(n *cfgNode) bool { return kills[n] }
	}

	for i, outer := range sites {
		if outer.unlock || outer.node == nil || outer.deferred {
			continue
		}
		kill := unlockKill(outer.chain)

		// Rule 1: another Lock on the same chain reachable with the
		// lock still held.
		for j, inner := range sites {
			if inner.unlock || inner.node == nil || inner.deferred || inner.chain != outer.chain {
				continue
			}
			if i == j {
				// Self via a loop back-edge counts too.
				if g.canReach(outer.node, isNode(outer.node), kill) {
					pass.Reportf(inner.call.Pos(),
						"%s.Lock() is reachable again before %s.Unlock(): possible self-deadlock", outer.chain, outer.chain)
				}
				continue
			}
			if g.canReach(outer.node, isNode(inner.node), kill) {
				pass.Reportf(inner.call.Pos(),
					"second %s.Lock() reachable while the first is still held; unlock before relocking", inner.chain)
			}
		}

		// Rule 2: nested acquisition of a same-typed sibling mutex
		// needs an ordering guard earlier in the function.
		for _, inner := range sites {
			if inner.unlock || inner.node == nil || inner.chain == outer.chain {
				continue
			}
			if chainLastComponent(inner.chain) != chainLastComponent(outer.chain) {
				continue
			}
			if !g.canReach(outer.node, isNode(inner.node), kill) {
				continue
			}
			if inner.call.Pos() <= outer.call.Pos() {
				// Report each unordered pair once, at the inner lock.
				continue
			}
			if !hasOrderingGuardBefore(outer.call.Pos()) {
				pass.Reportf(inner.call.Pos(),
					"%s.Lock() while %s is held: same-typed mutexes must be acquired in index order "+
						"behind an ordering comparison", inner.chain, outer.chain)
			}
		}
	}
}
