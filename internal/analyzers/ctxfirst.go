package analyzers

import (
	"go/ast"
	"strings"
)

// deprecatedMiners maps qualified function names to their replacement.
// Both calling and re-declaring any of them is a ctxfirst diagnostic: the
// public *Context wrappers were deleted outright when
// repro.Source/MineFrom landed, the internal *Ctx spellings were folded
// into the canonical entry points, the per-variant eclat entry points
// were folded into the two local ones, and the simulated cluster's
// maximal form was retired — none of the names may come back.
var deprecatedMiners = map[string]string{
	"repro.MineContext":                      "repro.Mine",
	"repro.MineMaximalContext":               "repro.MineMaximal",
	"repro.MineClosedContext":                "repro.MineClosed",
	"repro.MineVertical":                     "repro.MineFrom",
	"repro/internal/apriori.MineCtx":         "apriori.Mine",
	"repro/internal/eclat.MineSequentialCtx": localEclat,
	// The non-Options eclat entry points were retired when the class-task
	// engine unified the eight variants: every caller threads Options (and
	// with it TopK/MustContain/Workers) through the Options spellings.
	"repro/internal/eclat.Mine":                   "eclat.MineOpts",
	"repro/internal/eclat.MineHybrid":             "eclat.MineHybridOpts",
	"repro/internal/eclat.MineClosed":             localEclat,
	"repro/internal/eclat.MineMaximal":            localEclat,
	"repro/internal/eclat.MineSequentialDiffsets": localEclat,
	"repro/internal/eclat.MineClosedCHARM":        localEclat,
	// One local core replaced the per-variant local entry points: the
	// search is Options.Policy, one worker Workers: 1.
	"repro/internal/eclat.MineSequential":             localEclat,
	"repro/internal/eclat.MineSequentialOpts":         localEclat,
	"repro/internal/eclat.MineMaximalOpts":            localEclat,
	"repro/internal/eclat.MineClosedOpts":             localEclat,
	"repro/internal/eclat.MineSequentialDiffsetsOpts": localEclat,
	"repro/internal/eclat.MineClosedCHARMOpts":        localEclat,
	// The simulated cluster mines the all-frequent output only; maximal
	// sets come from the local engine under PolicyMaximal.
	"repro/internal/eclat.MineMaximalParallel":     localEclat,
	"repro/internal/eclat.MineMaximalParallelOpts": localEclat,
}

// localEclat is the replacement every retired local eclat entry point
// names.
const localEclat = "eclat.MineParallelLocal with Options.Policy"

// CtxFirst enforces the context-first API contract introduced by the
// observability PR: a context.Context parameter must come first in any
// function signature, the exported Mine* entry points of the public
// repro package must take a context, and the retired *Context/*Ctx
// wrapper names must neither gain callers nor be declared again.
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc: "context.Context parameters must be first; exported repro.Mine* entry points " +
		"must take a context; the retired *Context/*Ctx mining wrappers may not be called or redeclared",
	Run: runCtxFirst,
}

func runCtxFirst(pass *Pass) {
	for _, f := range pass.files() {
		checkCtxPosition(pass, f)
		if pass.Pkg.ImportPath == pass.Module.Path && pass.Pkg.Name == "repro" && !f.Test {
			checkPublicMiners(pass, f)
		}
		checkDeprecatedCalls(pass, f)
		checkDeprecatedDecls(pass, f)
	}
}

// checkDeprecatedDecls flags any top-level function declaration that
// reintroduces a retired wrapper name in its original package — the
// deletion is permanent, not a renaming opportunity.
func checkDeprecatedDecls(pass *Pass, f *File) {
	for _, decl := range f.AST.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv != nil {
			continue
		}
		qualified := pass.Pkg.ImportPath + "." + fn.Name.Name
		if repl, banned := deprecatedMiners[qualified]; banned {
			pass.Reportf(fn.Name.Pos(), "declaration of retired %s; the name was deleted in favor of %s and must not return", qualified, repl)
		}
	}
}

// checkCtxPosition flags any function declaration or literal whose
// parameter list contains context.Context anywhere but first.
func checkCtxPosition(pass *Pass, f *File) {
	check := func(ft *ast.FuncType, what string) {
		if ft.Params == nil {
			return
		}
		argIndex := 0
		for _, field := range ft.Params.List {
			n := len(field.Names)
			if n == 0 {
				n = 1
			}
			if isContextContext(f, field.Type) && argIndex != 0 {
				pass.Reportf(field.Pos(), "%s has context.Context as parameter %d; context must be the first parameter", what, argIndex+1)
			}
			argIndex += n
		}
	}
	ast.Inspect(f.AST, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			check(fn.Type, "function "+fn.Name.Name)
		case *ast.FuncLit:
			check(fn.Type, "function literal")
		}
		return true
	})
}

// checkPublicMiners enforces the entry-point contract on the public
// package: every exported func repro.Mine* takes context.Context first.
// The deprecated compatibility wrappers already satisfy it — they are
// context-first too, just banned at call sites.
func checkPublicMiners(pass *Pass, f *File) {
	for _, decl := range f.AST.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv != nil || !fn.Name.IsExported() || !strings.HasPrefix(fn.Name.Name, "Mine") {
			continue
		}
		params := fn.Type.Params
		if params == nil || len(params.List) == 0 || !isContextContext(f, params.List[0].Type) {
			pass.Reportf(fn.Name.Pos(), "exported mining entry point %s must take context.Context as its first parameter", fn.Name.Name)
		}
	}
}

// checkDeprecatedCalls flags call expressions that resolve to a
// denylisted wrapper, both qualified (pkg.MineContext) and unqualified
// within the declaring package.
func checkDeprecatedCalls(pass *Pass, f *File) {
	ast.Inspect(f.AST, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var qualified string
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			path, name, ok := resolveQualified(f, fun)
			if !ok {
				return true
			}
			qualified = path + "." + name
		case *ast.Ident:
			qualified = pass.Pkg.ImportPath + "." + fun.Name
		default:
			return true
		}
		if repl, banned := deprecatedMiners[qualified]; banned {
			pass.Reportf(call.Pos(), "call to deprecated %s; use the context-first %s", qualified, repl)
		}
		return true
	})
}
