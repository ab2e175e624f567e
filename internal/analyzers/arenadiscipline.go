package analyzers

import (
	"go/ast"
)

// ArenaDiscipline enforces the stack discipline of the scratch arenas
// (DESIGN.md §8): every Arena.Mark() must be paired with a Release on
// every path from the mark to the function exit — either deferred or
// post-dominating the mark — and nested marks must be released in LIFO
// order, because Release truncates the arena back to the mark and a
// later out-of-order Release would resurrect freed sets.
//
// Tracked shape: a mark assigned to a single plain identifier
// (`m := ar.Mark()`; the exported tidlist.Arena and tidlist.Stack
// spellings and the unexported eclat wrapper `mark()`/`release()` all
// count), matched against `ar.Release(m)` calls on the same receiver
// chain with that identifier as the argument. Marks consumed in any
// other position (composite literals, call arguments, returns) are a
// wrapper's business and are not tracked — except a mark discarded as a
// bare statement, which can never be released and is always a finding.
//
// The LIFO check only looks at non-deferred Release statements: defers
// execute in reverse registration order, which the statement CFG cannot
// see, so defer-based release order is left to the runtime.
var ArenaDiscipline = &Analyzer{
	Name: "arenadiscipline",
	Doc: "every arena Mark needs a matching Release on all exit paths of the enclosing " +
		"function (deferred or post-dominating), and nested marks must release in LIFO order",
	Run: runArenaDiscipline,
}

// markCall destructures expr as <chain>.Mark() / <chain>.mark() with no
// arguments.
func markCall(expr ast.Expr) (chain string, ok bool) {
	call, isCall := expr.(*ast.CallExpr)
	if !isCall || len(call.Args) != 0 {
		return "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || (sel.Sel.Name != "Mark" && sel.Sel.Name != "mark") {
		return "", false
	}
	chain = selectorChain(sel.X)
	if chain == "" {
		return "", false
	}
	return chain, true
}

// releaseCall destructures expr as <chain>.Release(ident) /
// <chain>.release(ident).
func releaseCall(expr ast.Expr) (chain, arg string, ok bool) {
	call, isCall := expr.(*ast.CallExpr)
	if !isCall || len(call.Args) != 1 {
		return "", "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || (sel.Sel.Name != "Release" && sel.Sel.Name != "release") {
		return "", "", false
	}
	id, isIdent := call.Args[0].(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	chain = selectorChain(sel.X)
	if chain == "" {
		return "", "", false
	}
	return chain, id.Name, true
}

// arenaMarkSite is one tracked `m := ar.Mark()` statement.
type arenaMarkSite struct {
	node  *cfgNode
	stmt  ast.Stmt
	chain string // arena receiver, e.g. "ar"
	name  string // mark variable
	pos   ast.Node
}

// arenaReleaseSite is one `ar.Release(m)` statement.
type arenaReleaseSite struct {
	node     *cfgNode
	stmt     ast.Stmt
	chain    string
	arg      string
	deferred bool
}

func runArenaDiscipline(pass *Pass) {
	for _, f := range pass.files() {
		eachFuncBody(f, func(name string, recv *ast.FieldList, body *ast.BlockStmt) {
			checkArenaFunc(pass, body)
		})
	}
}

func checkArenaFunc(pass *Pass, body *ast.BlockStmt) {
	var marks []arenaMarkSite
	var releases []arenaReleaseSite
	funcStmts(body, func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return
			}
			id, ok := s.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				return
			}
			if chain, ok := markCall(s.Rhs[0]); ok {
				marks = append(marks, arenaMarkSite{stmt: s, chain: chain, name: id.Name, pos: s.Rhs[0]})
			}
		case *ast.ExprStmt:
			if chain, ok := markCall(s.X); ok {
				pass.Reportf(s.X.Pos(), "arena mark from %s is discarded; assign it and release it (a dropped mark can never be released)", chain+".Mark()")
				return
			}
			if chain, arg, ok := releaseCall(s.X); ok {
				releases = append(releases, arenaReleaseSite{stmt: s, chain: chain, arg: arg})
			}
		case *ast.DeferStmt:
			if chain, arg, ok := releaseCall(s.Call); ok {
				releases = append(releases, arenaReleaseSite{stmt: s, chain: chain, arg: arg, deferred: true})
			}
		}
	})
	if len(marks) == 0 {
		return
	}

	g := buildCFG(body)
	for i := range marks {
		marks[i].node = g.node(marks[i].stmt)
	}
	for i := range releases {
		releases[i].node = g.node(releases[i].stmt)
	}

	releasesOf := func(m arenaMarkSite) map[*cfgNode]bool {
		out := make(map[*cfgNode]bool)
		for _, r := range releases {
			if r.chain == m.chain && r.arg == m.name && r.node != nil {
				out[r.node] = true
			}
		}
		return out
	}

	for _, m := range marks {
		if m.node == nil {
			continue
		}
		kills := releasesOf(m)
		if len(kills) == 0 {
			pass.Reportf(m.pos.Pos(), "arena mark %q from %s.Mark() is never released in this function; every mark needs a matching Release", m.name, m.chain)
			continue
		}
		kill := func(n *cfgNode) bool { return kills[n] }
		if g.escapesExit(m.node, kill) {
			pass.Reportf(m.pos.Pos(), "arena mark %q is not released on every path to the function exit; release it on all paths or defer the release", m.name)
		}
	}

	// LIFO: for an inner mark taken while an outer one is active, a
	// non-deferred release of the outer mark must not be reachable
	// before the inner mark's release.
	for _, outer := range marks {
		if outer.node == nil {
			continue
		}
		outerKills := releasesOf(outer)
		outerKill := func(n *cfgNode) bool { return outerKills[n] }
		for _, inner := range marks {
			if inner.node == nil || inner.name == outer.name {
				continue
			}
			// inner nested inside outer: reachable with outer unreleased.
			if !g.canReach(outer.node, func(n *cfgNode) bool { return n == inner.node }, outerKill) {
				continue
			}
			innerKills := releasesOf(inner)
			innerKill := func(n *cfgNode) bool { return innerKills[n] }
			for _, r := range releases {
				if r.deferred || r.node == nil || !outerKills[r.node] {
					continue
				}
				if g.canReach(inner.node, func(n *cfgNode) bool { return n == r.node }, innerKill) {
					pass.Reportf(r.node.stmt.Pos(), "arena marks released out of LIFO order: %q must be released before %q (Release truncates the arena back to the mark)", inner.name, outer.name)
				}
			}
		}
	}
}
