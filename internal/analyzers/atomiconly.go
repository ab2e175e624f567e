package analyzers

import (
	"go/ast"
	"go/token"
	"strings"
)

// AtomicOnly enforces the all-or-nothing rule of sync/atomic (DESIGN.md
// §8): once a struct field or local variable is touched through atomic
// operations anywhere in the package, every access must be atomic. A
// single plain read ("it's just a stat") is still a data race — the
// top-k threshold eff and the class-queue cursor are exactly the fields
// the race detector only catches under contention.
//
// Two access styles are tracked:
//
//   - typed fields: a struct field declared as atomic.Int64 (or any of
//     the atomic.* value types) must only be used as the receiver of
//     Load/Store/Add/Swap/CompareAndSwap, or behind & inside a
//     sync/atomic call.
//
//   - old-style variables: a local passed as &x to atomic.AddInt64 and
//     friends must not be read or reassigned plainly afterwards
//     (declaration and := initialization are allowed — the variable is
//     unpublished until the first atomic use).
//
// The field analysis is receiver-scoped and package-wide: fields are
// collected from every struct declaration and every atomic.*(&recv.f)
// call in the package, then every method body (and composite-literal
// typed local) is checked. Purely syntactic — no go/types — so access
// through interfaces or across packages is out of scope.
var AtomicOnly = &Analyzer{
	Name: "atomiconly",
	Doc: "struct fields and locals accessed through sync/atomic must never be read or " +
		"written plainly; mixing atomic and plain access is a data race",
	Run: runAtomicOnly,
}

// atomicScalarTypes are the atomic.* value types whose fields the
// analyzer tracks. Slices/arrays of atomics are deliberately not
// tracked: len/range over them is legitimate plain access.
var atomicScalarTypes = map[string]bool{
	"Bool":    true,
	"Int32":   true,
	"Int64":   true,
	"Uint32":  true,
	"Uint64":  true,
	"Uintptr": true,
	"Pointer": true,
	"Value":   true,
}

// atomicValueMethods are the methods of the atomic.* value types.
var atomicValueMethods = map[string]bool{
	"Load":           true,
	"Store":          true,
	"Add":            true,
	"Swap":           true,
	"CompareAndSwap": true,
}

// isAtomicPkgFunc reports whether call invokes a function of the
// sync/atomic package (AddInt64, LoadUint32, StorePointer, ...).
func isAtomicPkgFunc(f *File, call *ast.CallExpr) bool {
	path, name, ok := resolveQualified(f, call.Fun)
	if !ok || path != "sync/atomic" {
		return false
	}
	for _, prefix := range []string{"Add", "Load", "Store", "Swap", "CompareAndSwap"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// isAtomicValueType reports whether the type expression denotes one of
// the atomic.* value types (including the generic atomic.Pointer[T]).
func isAtomicValueType(f *File, typ ast.Expr) bool {
	if ix, ok := typ.(*ast.IndexExpr); ok {
		typ = ix.X
	}
	path, name, ok := resolveQualified(f, typ)
	return ok && path == "sync/atomic" && atomicScalarTypes[name]
}

func runAtomicOnly(pass *Pass) {
	fields := collectAtomicFields(pass)
	for _, f := range pass.files() {
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkAtomicFunc(pass, f, fn, fields)
		}
	}
}

// collectAtomicFields builds the package-wide map of struct type name
// -> atomic field names, from both declared atomic.* field types and
// old-style atomic.*(&recv.field) calls inside methods.
func collectAtomicFields(pass *Pass) map[string]map[string]bool {
	fields := make(map[string]map[string]bool)
	add := func(typeName, fieldName string) {
		if fields[typeName] == nil {
			fields[typeName] = make(map[string]bool)
		}
		fields[typeName][fieldName] = true
	}
	for _, f := range pass.files() {
		for _, decl := range f.AST.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						if !isAtomicValueType(f, field.Type) {
							continue
						}
						for _, name := range field.Names {
							add(ts.Name.Name, name.Name)
						}
					}
				}
			case *ast.FuncDecl:
				recvName, recvType := receiverIdent(d)
				if recvName == "" || d.Body == nil {
					continue
				}
				ast.Inspect(d.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || !isAtomicPkgFunc(f, call) || len(call.Args) == 0 {
						return true
					}
					un, ok := call.Args[0].(*ast.UnaryExpr)
					if !ok || un.Op != token.AND {
						return true
					}
					sel, ok := un.X.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if root, ok := sel.X.(*ast.Ident); ok && root.Name == recvName {
						add(recvType, sel.Sel.Name)
					}
					return true
				})
			}
		}
	}
	return fields
}

// receiverIdent returns the receiver variable name and the bare
// receiver type name of a method declaration ("" for plain functions
// and anonymous receivers).
func receiverIdent(fn *ast.FuncDecl) (name, typeName string) {
	if fn.Recv == nil || len(fn.Recv.List) != 1 || len(fn.Recv.List[0].Names) != 1 {
		return "", ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if ix, ok := typ.(*ast.IndexExpr); ok { // generic receiver T[P]
		typ = ix.X
	}
	id, ok := typ.(*ast.Ident)
	if !ok {
		return "", ""
	}
	return fn.Recv.List[0].Names[0].Name, id.Name
}

// checkAtomicFunc checks one top-level function body, including its
// nested literals: closures share the enclosing variables, so the whole
// declaration is one scope for old-style locals.
func checkAtomicFunc(pass *Pass, f *File, fn *ast.FuncDecl, fields map[string]map[string]bool) {
	// varTypes maps identifier name -> struct type name for roots whose
	// atomic fields we can check: the receiver, plus locals assigned
	// from a composite literal of a tracked type.
	varTypes := make(map[string]string)
	if recvName, recvType := receiverIdent(fn); recvName != "" && len(fields[recvType]) > 0 {
		varTypes[recvName] = recvType
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || assign.Tok != token.DEFINE || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
			return true
		}
		lhs, ok := assign.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		rhs := assign.Rhs[0]
		if un, ok := rhs.(*ast.UnaryExpr); ok && un.Op == token.AND {
			rhs = un.X
		}
		cl, ok := rhs.(*ast.CompositeLit)
		if !ok {
			return true
		}
		if id, ok := cl.Type.(*ast.Ident); ok && len(fields[id.Name]) > 0 {
			varTypes[lhs.Name] = id.Name
		}
		return true
	})

	// Old-style locals: names passed as &x to a sync/atomic function
	// anywhere in this declaration.
	atomicLocals := make(map[string]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isAtomicPkgFunc(f, call) || len(call.Args) == 0 {
			return true
		}
		if un, ok := call.Args[0].(*ast.UnaryExpr); ok && un.Op == token.AND {
			if id, ok := un.X.(*ast.Ident); ok {
				atomicLocals[id.Name] = true
			}
		}
		return true
	})

	if len(varTypes) == 0 && len(atomicLocals) == 0 {
		return
	}

	walkWithStack(fn.Body, func(n ast.Node, stack []ast.Node) {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			root, ok := x.X.(*ast.Ident)
			if !ok {
				return
			}
			typeName, tracked := varTypes[root.Name]
			if !tracked || !fields[typeName][x.Sel.Name] {
				return
			}
			if atomicFieldUseOK(f, x, stack) {
				return
			}
			pass.Reportf(x.Pos(), "plain access to atomic field %s.%s (%s.%s); use Load/Store/Add — mixing atomic and plain access is a data race",
				root.Name, x.Sel.Name, typeName, x.Sel.Name)
		case *ast.Ident:
			if !atomicLocals[x.Name] {
				return
			}
			if atomicLocalUseOK(f, x, stack) {
				return
			}
			pass.Reportf(x.Pos(), "plain access to %q, which is elsewhere accessed via sync/atomic; use atomic ops for every access (or make it an atomic.Int64)",
				x.Name)
		}
	})
}

// atomicFieldUseOK reports whether this occurrence of recv.field is a
// legal atomic access: the receiver of an atomic value method call, or
// behind & as an argument of a sync/atomic package function.
func atomicFieldUseOK(f *File, sel *ast.SelectorExpr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	parent := stack[len(stack)-1]
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		// sel.field.Load() — parent is the method selector, grandparent
		// must be the call applying it.
		if p.X == ast.Expr(sel) && atomicValueMethods[p.Sel.Name] && len(stack) >= 2 {
			if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && call.Fun == ast.Expr(p) {
				return true
			}
		}
	case *ast.UnaryExpr:
		if p.Op == token.AND && p.X == ast.Expr(sel) && len(stack) >= 2 {
			if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && isAtomicPkgFunc(f, call) {
				return true
			}
		}
	}
	return false
}

// atomicLocalUseOK reports whether this occurrence of an old-style
// atomic local is legal: its declaration, a := initialization, a field
// name that merely shares the spelling, or the &x argument of a
// sync/atomic call.
func atomicLocalUseOK(f *File, id *ast.Ident, stack []ast.Node) bool {
	if len(stack) == 0 {
		return true
	}
	parent := stack[len(stack)-1]
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		// x.steals (field of something else) or steals.X (receiver —
		// not possible for scalars, but be permissive for the root of
		// someone else's chain only when id is the Sel).
		if p.Sel == id {
			return true
		}
	case *ast.ValueSpec:
		for _, n := range p.Names {
			if n == id {
				return true
			}
		}
	case *ast.AssignStmt:
		if p.Tok == token.DEFINE {
			for _, lhs := range p.Lhs {
				if lhs == ast.Expr(id) {
					return true
				}
			}
		}
	case *ast.Field:
		return true // parameter or result declaration
	case *ast.UnaryExpr:
		if p.Op == token.AND && p.X == ast.Expr(id) && len(stack) >= 2 {
			if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && isAtomicPkgFunc(f, call) {
				return true
			}
		}
	case *ast.KeyValueExpr:
		if p.Key == ast.Expr(id) {
			return true // struct literal key sharing the spelling
		}
	}
	return false
}
