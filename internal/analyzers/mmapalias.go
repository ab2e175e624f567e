package analyzers

import (
	"go/ast"
)

const storePath = "repro/internal/store"

// datasetViewMethods are the store.Dataset methods that hand out
// mmap-backed (or decode-copy) tid-set views.
var datasetViewMethods = map[string]bool{
	"Sets":         true,
	"SparseLists":  true,
	"VerticalSets": true,
}

// MmapAlias enforces the aliasing contract of the persistent store
// (DESIGN.md §9): tid-sets handed out by store.Dataset are views over a
// shared, possibly memory-mapped buffer. They may be kernel operands —
// IntersectSets and IntersectSetsSC read their a/b arguments,
// IntersectKSetsSC reads its whole slice — but never the
// scratch/destination parameter, and never the target of copy or
// append, because writing through a view corrupts the mapping for every
// other reader (and faults outright on a read-only mapping).
//
// The tracking is a per-function forward scan: identifiers assigned
// from store.OpenDataset (or declared as *store.Dataset parameters) are
// dataset roots; view-method results, their aliases, elements, and
// range values are tainted; tainted values in scratch position of a
// tidlist kernel call, or as the destination of copy/append, are
// findings. Cloning out of the store (Arena.CloneSetInto(view)) reads
// the view and is legal.
var MmapAlias = &Analyzer{
	Name: "mmapalias",
	Doc: "mmap-backed store.Dataset views are read-only kernel operands: never pass one " +
		"as kernel scratch, copy into it, or append to it",
	Run: runMmapAlias,
}

func runMmapAlias(pass *Pass) {
	for _, f := range pass.files() {
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkMmapAliasFunc(pass, f, fn)
		}
	}
}

// isStoreDatasetType reports whether the type expression denotes
// store.Dataset or *store.Dataset under the file's import table (or
// unqualified Dataset inside the store package itself).
func isStoreDatasetType(pass *Pass, f *File, typ ast.Expr) bool {
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return pass.Pkg.ImportPath == storePath && id.Name == "Dataset"
	}
	path, name, ok := resolveQualified(f, typ)
	return ok && path == storePath && name == "Dataset"
}

// isOpenDatasetCall reports whether call is store.OpenDataset(...)
// (qualified, or unqualified inside the store package).
func isOpenDatasetCall(pass *Pass, f *File, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		path, name, ok := resolveQualified(f, fun)
		return ok && path == storePath && name == "OpenDataset"
	case *ast.Ident:
		return pass.Pkg.ImportPath == storePath && fun.Name == "OpenDataset"
	}
	return false
}

// checkMmapAliasFunc scans one top-level function (closures included —
// captured views stay tainted).
func checkMmapAliasFunc(pass *Pass, f *File, fn *ast.FuncDecl) {
	datasets := make(map[string]bool) // identifiers holding a *store.Dataset
	views := make(map[string]bool)    // identifiers holding a store view

	if fn.Type.Params != nil {
		for _, field := range fn.Type.Params.List {
			if !isStoreDatasetType(pass, f, field.Type) {
				continue
			}
			for _, name := range field.Names {
				datasets[name.Name] = true
			}
		}
	}

	// isViewExpr reports whether expr is (an alias of, an element of, or
	// a direct method call producing) a store view, given the taint sets
	// accumulated so far.
	var isViewExpr func(expr ast.Expr) bool
	isViewExpr = func(expr ast.Expr) bool {
		switch x := expr.(type) {
		case *ast.Ident:
			return views[x.Name]
		case *ast.IndexExpr:
			return isViewExpr(x.X)
		case *ast.ParenExpr:
			return isViewExpr(x.X)
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok || !datasetViewMethods[sel.Sel.Name] {
				return false
			}
			if root, ok := sel.X.(*ast.Ident); ok {
				return datasets[root.Name]
			}
			return false
		}
		return false
	}

	// Forward walk: taint propagation and violation checks in one pass.
	// ast.Inspect visits in source order, which is how the assignments
	// execute, so a single pass converges for straight-line taint.
	walkWithStack(fn.Body, func(n ast.Node, stack []ast.Node) {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				if i >= len(x.Lhs) {
					break
				}
				lhs, ok := x.Lhs[i].(*ast.Ident)
				if !ok || lhs.Name == "_" {
					continue
				}
				if call, ok := rhs.(*ast.CallExpr); ok && isOpenDatasetCall(pass, f, call) {
					datasets[lhs.Name] = true
					continue
				}
				if isViewExpr(rhs) {
					views[lhs.Name] = true
				}
			}
			// ds, err := store.OpenDataset(...) — multi-value form.
			if len(x.Rhs) == 1 && len(x.Lhs) >= 1 {
				if call, ok := x.Rhs[0].(*ast.CallExpr); ok {
					if isOpenDatasetCall(pass, f, call) {
						if id, ok := x.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
							datasets[id.Name] = true
						}
					} else if isViewExpr(call) {
						if id, ok := x.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
							views[id.Name] = true
						}
					}
				}
			}
		case *ast.RangeStmt:
			if isViewExpr(x.X) && x.Value != nil {
				if id, ok := x.Value.(*ast.Ident); ok && id.Name != "_" {
					views[id.Name] = true
				}
			}
		case *ast.CallExpr:
			checkMmapCall(pass, f, x, isViewExpr)
		}
	})
}

// checkMmapCall flags a store view in a write position of one call.
func checkMmapCall(pass *Pass, f *File, call *ast.CallExpr, isViewExpr func(ast.Expr) bool) {
	// Kernel scratch position: arg 0 of the scratch-first kernels.
	for name := range kernelFuncs {
		if !isTidlistCallFile(f, call, name) {
			continue
		}
		if len(call.Args) > 0 && isViewExpr(call.Args[0]) {
			pass.Reportf(call.Args[0].Pos(),
				"mmap-backed store view used as the scratch argument of tidlist.%s; store views are read-only operands — pass them as a/b only", name)
		}
		return
	}
	// Builtin write positions.
	if fun, ok := call.Fun.(*ast.Ident); ok {
		switch fun.Name {
		case "copy":
			if len(call.Args) == 2 && isViewExpr(call.Args[0]) {
				pass.Reportf(call.Args[0].Pos(),
					"copy into an mmap-backed store view writes the shared mapping; clone the set out of the store first")
			}
		case "append":
			if len(call.Args) >= 1 && isViewExpr(call.Args[0]) {
				pass.Reportf(call.Args[0].Pos(),
					"append to an mmap-backed store view may write the shared mapping; clone the set out of the store first")
			}
		}
	}
}

// isTidlistCallFile is isTidlistCall without a Pass: qualified calls
// only, which is the shape every package outside tidlist uses. (The
// tidlist package itself never holds store views — store depends on
// tidlist, not the reverse — so the unqualified form cannot occur.)
func isTidlistCallFile(f *File, call *ast.CallExpr, name string) bool {
	fun, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	path, sel, ok := resolveQualified(f, fun)
	return ok && path == tidlistPath && sel == name
}
