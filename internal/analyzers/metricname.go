package analyzers

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

const obsvPath = "repro/internal/obsv"

// metricRegFuncs maps obsv registration method names to their expected
// argument count (name, help[, extra]); the name is always argument 0.
var metricRegFuncs = map[string]int{
	"Counter":   2,
	"Gauge":     2,
	"GaugeFunc": 3,
	"Histogram": 3,
}

// retiredMetricNames maps metric names deleted on purpose to the name
// that now carries the quantity. Registering a retired name again would
// split one quantity across two names, which is why it was retired.
var retiredMetricNames = map[string]string{
	"eclat_classes_mined_total": "eclat_classes_total",
}

// metricNameRE is the exposition-safe naming convention: snake_case,
// starting with a letter. A trailing underscore is allowed so that
// dynamic-name prefixes ("mine_phase_") can be validated too.
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// MetricName enforces the obsv naming conventions: metric names are
// package-level string constants (never inline literals, so the name
// set is greppable in one place per package), snake_case, counters end
// in _total, and nothing but counters ends in _total. Dynamic names
// must be concatenations whose constant segments are package-level
// constants (e.g. mnMinePhasePrefix + obsv.SanitizeName(x) + mnNSSuffix).
// Retired names (retiredMetricNames) may not be registered again.
var MetricName = &Analyzer{
	Name:        "metricname",
	IgnoreTests: true,
	Doc: "obsv metric names must be snake_case package-level constants; counters end in " +
		"_total and only counters do; dynamic names concatenate constant segments; retired names stay retired",
	Run: runMetricName,
}

func runMetricName(pass *Pass) {
	for _, f := range pass.files() {
		if _, importsObsv := f.ImportName(obsvPath); !importsObsv && pass.Pkg.ImportPath != obsvPath {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			want, isReg := metricRegFuncs[sel.Sel.Name]
			if !isReg || len(call.Args) != want {
				return true
			}
			// Only treat this as a metric registration when the receiver
			// chain plausibly reaches the obsv registry (obsv.Default.…,
			// a local *obsv.Registry, …). Requiring the file to import
			// obsv already filtered most of the world; additionally skip
			// receivers that are themselves package qualifiers of other
			// packages (e.g. otherpkg.Counter(...)).
			if path, _, isQualified := resolveQualified(f, sel); isQualified && path != obsvPath {
				return true
			}
			checkMetricNameArg(pass, f, sel.Sel.Name, call.Args[0])
			return true
		})
	}
}

// checkMetricNameArg validates the name argument of one registration.
func checkMetricNameArg(pass *Pass, f *File, regFunc string, arg ast.Expr) {
	switch x := arg.(type) {
	case *ast.BasicLit:
		if x.Kind == token.STRING {
			pass.Reportf(x.Pos(), "obsv.%s name must be a package-level constant, not an inline string literal", regFunc)
		}
	case *ast.Ident, *ast.SelectorExpr:
		value, ok := resolveConstRef(pass, f, arg)
		if !ok {
			pass.Reportf(arg.Pos(), "obsv.%s name must resolve to a package-level string constant", regFunc)
			return
		}
		validateMetricName(pass, arg, regFunc, value, true)
	case *ast.BinaryExpr:
		checkDynamicMetricName(pass, f, regFunc, x)
	default:
		pass.Reportf(arg.Pos(), "obsv.%s name must be a package-level constant or a concatenation of constants and sanitized segments", regFunc)
	}
}

// checkDynamicMetricName validates a concatenated name expression: its
// leaves must be constant references or call expressions (the dynamic
// segment, e.g. obsv.SanitizeName(...)), never inline literals, and the
// first leaf must be a resolvable constant so every metric family has a
// greppable constant prefix.
func checkDynamicMetricName(pass *Pass, f *File, regFunc string, expr *ast.BinaryExpr) {
	leaves := flattenConcat(expr)
	if leaves == nil {
		pass.Reportf(expr.Pos(), "obsv.%s name expression must be a pure + concatenation", regFunc)
		return
	}
	for i, leaf := range leaves {
		switch l := leaf.(type) {
		case *ast.BasicLit:
			pass.Reportf(l.Pos(), "dynamic obsv.%s name segment must be a package-level constant, not an inline string literal", regFunc)
		case *ast.Ident, *ast.SelectorExpr:
			value, ok := resolveConstRef(pass, f, leaf)
			if !ok {
				pass.Reportf(leaf.Pos(), "dynamic obsv.%s name segment must resolve to a package-level string constant", regFunc)
				continue
			}
			// Segment charset check only; _total placement is checked on
			// fully-constant names, which a concatenation is not.
			if !metricNameRE.MatchString(value) && i == 0 {
				pass.Reportf(leaf.Pos(), "metric name prefix %q is not snake_case ([a-z][a-z0-9_]*)", value)
			}
		case *ast.CallExpr:
			// The dynamic segment; assumed sanitized by the callee.
		default:
			pass.Reportf(leaf.Pos(), "unsupported dynamic obsv.%s name segment", regFunc)
		}
	}
	if len(leaves) > 0 {
		if _, ok := leaves[0].(*ast.CallExpr); ok {
			pass.Reportf(leaves[0].Pos(), "dynamic obsv.%s name must start with a constant prefix segment", regFunc)
		}
	}
}

// flattenConcat unfolds a left-assoc + tree into its leaves, or nil if
// any operator is not +.
func flattenConcat(expr ast.Expr) []ast.Expr {
	switch x := expr.(type) {
	case *ast.BinaryExpr:
		if x.Op != token.ADD {
			return nil
		}
		left := flattenConcat(x.X)
		right := flattenConcat(x.Y)
		if left == nil || right == nil {
			return nil
		}
		return append(left, right...)
	case *ast.ParenExpr:
		return flattenConcat(x.X)
	default:
		return []ast.Expr{expr}
	}
}

// resolveConstRef resolves an identifier or pkg-qualified selector to a
// module-level string constant value.
func resolveConstRef(pass *Pass, f *File, expr ast.Expr) (string, bool) {
	switch x := expr.(type) {
	case *ast.Ident:
		return pass.Module.StringConst(pass.Pkg.ImportPath, x.Name)
	case *ast.SelectorExpr:
		path, name, ok := resolveQualified(f, x)
		if !ok {
			return "", false
		}
		return pass.Module.StringConst(path, name)
	}
	return "", false
}

// validateMetricName checks a fully-known name against the conventions.
func validateMetricName(pass *Pass, at ast.Expr, regFunc, name string, complete bool) {
	if !metricNameRE.MatchString(name) {
		pass.Reportf(at.Pos(), "metric name %q is not snake_case ([a-z][a-z0-9_]*)", name)
		return
	}
	if !complete {
		return
	}
	if repl, retired := retiredMetricNames[name]; retired {
		pass.Reportf(at.Pos(), "metric name %q is retired; count under %s", name, repl)
		return
	}
	isTotal := strings.HasSuffix(name, "_total")
	if regFunc == "Counter" && !isTotal {
		pass.Reportf(at.Pos(), "counter name %q must end in _total", name)
	}
	if regFunc != "Counter" && isTotal {
		pass.Reportf(at.Pos(), "%s name %q must not end in _total (that suffix is reserved for counters)", strings.ToLower(regFunc), name)
	}
}
