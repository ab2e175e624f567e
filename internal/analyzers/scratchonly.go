package analyzers

import (
	"go/ast"
)

const tidlistPath = "repro/internal/tidlist"

// kernelFuncs are the tid-set kernels whose first parameter is the
// reusable scratch slot.
var kernelFuncs = map[string]bool{
	"IntersectSets":   true,
	"IntersectSetsSC": true,
}

// ScratchOnly enforces the partial-prefix contract of the short-circuit
// kernel (DESIGN.md §5): when IntersectSetsSC aborts on the support
// bound, the returned set holds an unspecified partial prefix and is
// valid only as the scratch argument of a later kernel call. Concretely,
// at every call site the three results must be assigned; the returned
// set must not escape (be cloned, stored, returned, or passed anywhere
// but a kernel scratch slot) before the ok flag is consulted; and the
// flag may be discarded only when the result is used exclusively as
// scratch.
//
// The check is a same-block syntactic scan, not a dataflow analysis: it
// follows statements from the call to the first one that mentions the
// flag, which is exactly the shape of the mining recursions' inner
// loops.
var ScratchOnly = &Analyzer{
	Name: "scratchonly",
	Doc: "the aborted result of tidlist.IntersectSetsSC is scratch-only: check the ok flag " +
		"before the set escapes, or keep the set strictly in kernel scratch position",
	Run: runScratchOnly,
}

func runScratchOnly(pass *Pass) {
	for _, f := range pass.files() {
		walkWithStack(f.AST, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isTidlistCall(pass, f, call, "IntersectSetsSC") {
				return
			}
			checkSCCallSite(pass, f, call, stack)
		})
	}
}

// isTidlistCall reports whether call invokes tidlist.<name>, either
// qualified through an import of the tidlist package or unqualified
// inside it.
func isTidlistCall(pass *Pass, f *File, call *ast.CallExpr, name string) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		path, sel, ok := resolveQualified(f, fun)
		return ok && path == tidlistPath && sel == name
	case *ast.Ident:
		return pass.Pkg.ImportPath == tidlistPath && fun.Name == name
	}
	return false
}

// checkSCCallSite validates one IntersectSetsSC call against the
// scratch-only contract.
func checkSCCallSite(pass *Pass, f *File, call *ast.CallExpr, stack []ast.Node) {
	setVar, okVar, assign, ok := destructureSC(call, stack)
	if !ok {
		pass.Reportf(call.Pos(), "results of tidlist.IntersectSetsSC must be assigned to (set, ops, ok) variables")
		return
	}
	if setVar == nil {
		// Set result discarded outright: nothing can escape.
		return
	}

	fnBody := enclosingFuncBody(stack)
	if okVar == nil {
		// Flag discarded: legal only if the set never leaves scratch
		// position anywhere in the function.
		if fnBody == nil {
			return
		}
		if esc := firstEscapingUse(pass, f, fnBody, setVar.Name, nil); esc != nil {
			pass.Reportf(esc.Pos(), "IntersectSetsSC result %q escapes but the short-circuit flag was discarded; "+
				"assign and check the flag, or keep the result scratch-only", setVar.Name)
		}
		return
	}

	// Flag assigned: scan forward in the innermost block from the call
	// statement to the first statement consulting the flag; in between,
	// the set may only be reused as scratch.
	block := innermostBlock(stack)
	if block == nil {
		return
	}
	started := false
	for _, stmt := range block.List {
		if !started {
			if stmt == assign || containsNode(stmt, assign) {
				started = true
			}
			continue
		}
		if mentionsIdent(stmt, okVar.Name) {
			return // guarded from here on
		}
		if esc := firstEscapingUse(pass, f, stmt, setVar.Name, nil); esc != nil {
			pass.Reportf(esc.Pos(), "IntersectSetsSC result %q may escape before the short-circuit flag %q is checked; "+
				"an aborted result is scratch-only", setVar.Name, okVar.Name)
			return
		}
	}
}

// destructureSC finds the (set, ok) destination identifiers of the call.
// It accepts `a, b, c := call` / `=` assignments and
// `var a, b, c = call` declarations; blank destinations come back nil.
// ok=false means the call's results are not assigned at all.
func destructureSC(call *ast.CallExpr, stack []ast.Node) (setVar, okVar *ast.Ident, assignStmt ast.Node, ok bool) {
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.AssignStmt:
			if len(parent.Rhs) != 1 || parent.Rhs[0] != ast.Expr(call) || len(parent.Lhs) != 3 {
				return nil, nil, nil, false
			}
			set, setOK := parent.Lhs[0].(*ast.Ident)
			flag, flagOK := parent.Lhs[2].(*ast.Ident)
			if !setOK || !flagOK {
				// Storing a result straight into a field or element
				// escapes before any check is possible.
				return nil, nil, nil, false
			}
			return nonBlank(set), nonBlank(flag), parent, true
		case *ast.ValueSpec:
			if len(parent.Values) != 1 || parent.Values[0] != ast.Expr(call) || len(parent.Names) != 3 {
				return nil, nil, nil, false
			}
			return nonBlank(parent.Names[0]), nonBlank(parent.Names[2]), parent, true
		case *ast.ParenExpr:
			continue
		default:
			return nil, nil, nil, false
		}
	}
	return nil, nil, nil, false
}

func nonBlank(id *ast.Ident) *ast.Ident {
	if id == nil || id.Name == "_" {
		return nil
	}
	return id
}

// enclosingFuncBody returns the body of the innermost enclosing
// function declaration or literal.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// innermostBlock returns the deepest enclosing block statement.
func innermostBlock(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		if b, ok := stack[i].(*ast.BlockStmt); ok {
			return b
		}
	}
	return nil
}

// containsNode reports whether target occurs in the subtree rooted at
// root.
func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// mentionsIdent reports whether the subtree references an identifier
// with the given name.
func mentionsIdent(root ast.Node, name string) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// firstEscapingUse finds a use of name inside root that is neither a
// kernel scratch argument, a plain re-assignment target, nor the whole
// right-hand side of a simple `ident = name` aliasing assignment.
// skip, when non-nil, is a subtree to exclude (the defining statement).
func firstEscapingUse(pass *Pass, f *File, root ast.Node, name string, skip ast.Node) ast.Node {
	var escape ast.Node
	walkWithStack(root, func(n ast.Node, stack []ast.Node) {
		if escape != nil {
			return
		}
		if skip != nil && (n == skip || nodeInStack(stack, skip)) {
			return
		}
		id, ok := n.(*ast.Ident)
		if !ok || id.Name != name {
			return
		}
		if len(stack) == 0 {
			return
		}
		switch parent := stack[len(stack)-1].(type) {
		case *ast.CallExpr:
			// Scratch position of a kernel call is the one legal way to
			// consume a possibly-aborted set.
			if isTidlistCall(pass, f, parent, "IntersectSets") ||
				isTidlistCall(pass, f, parent, "IntersectSetsSC") {
				if len(parent.Args) > 0 && parent.Args[0] == ast.Expr(id) {
					return
				}
			}
			escape = id
		case *ast.AssignStmt:
			// Being overwritten is fine; being the entire RHS of a
			// simple aliasing assignment (scratch = tids) is fine.
			for _, lhs := range parent.Lhs {
				if lhs == ast.Expr(id) {
					return
				}
			}
			if len(parent.Rhs) == 1 && parent.Rhs[0] == ast.Expr(id) && len(parent.Lhs) == 1 {
				if _, isIdent := parent.Lhs[0].(*ast.Ident); isIdent {
					return
				}
			}
			escape = id
		case *ast.ValueSpec:
			// Appearing as a declared name (var scratch Set) is not a
			// use; appearing alone as the initializer of a single-name
			// declaration is the aliasing form of scratch reuse.
			for _, n := range parent.Names {
				if n == id {
					return
				}
			}
			if len(parent.Names) == 1 && len(parent.Values) == 1 && parent.Values[0] == ast.Expr(id) {
				return
			}
			escape = id
		case *ast.SelectorExpr:
			// Method call or field read on the set (tids.Support())
			// observes the aborted prefix.
			if parent.X == ast.Expr(id) {
				escape = id
			}
		default:
			escape = id
		}
	})
	return escape
}

// nodeInStack reports whether target is one of the ancestors.
func nodeInStack(stack []ast.Node, target ast.Node) bool {
	for _, n := range stack {
		if n == target {
			return true
		}
	}
	return false
}
