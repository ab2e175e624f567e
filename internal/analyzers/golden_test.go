package analyzers

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The golden runner mirrors golang.org/x/tools/go/analysis/analysistest:
// fixture files under testdata/src/<fixture> carry expectations as
//
//	expr // want "regexp"
//	expr // want "first" "second"
//
// comments (double-quoted or backquoted), each matching one diagnostic
// reported on that line. Unexpected diagnostics and unmatched
// expectations both fail the test.

// wantMarkerRE extracts the expectation list from a comment.
var wantMarkerRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// wantPatternRE tokenizes the list into quoted regexp literals.
var wantPatternRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	source  string
	matched bool
}

// loadFixture parses testdata/src/<fixture> under the given import path
// and module path.
func loadFixture(t *testing.T, fixture, importPath, modPath string) *Module {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	m, err := LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	if len(m.Packages) == 0 {
		t.Fatalf("fixture %s contains no packages", fixture)
	}
	m.Path = modPath
	return m
}

// collectWants parses every `// want` expectation in the module.
func collectWants(t *testing.T, m *Module) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.AST.Comments {
				for _, c := range cg.List {
					match := wantMarkerRE.FindStringSubmatch(c.Text)
					if match == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					patterns := wantPatternRE.FindAllString(match[1], -1)
					if len(patterns) == 0 {
						t.Fatalf("%s:%d: want comment has no quoted patterns", pos.Filename, pos.Line)
					}
					for _, p := range patterns {
						text := p
						if strings.HasPrefix(p, "`") {
							text = strings.Trim(p, "`")
						} else if unq, err := strconv.Unquote(p); err == nil {
							text = unq
						}
						re, err := regexp.Compile(text)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, p, err)
						}
						wants = append(wants, &expectation{
							file:   pos.Filename,
							line:   pos.Line,
							re:     re,
							source: text,
						})
					}
				}
			}
		}
	}
	return wants
}

// checkGolden runs the suite over the fixture module and compares the
// diagnostics against the want expectations.
func checkGolden(t *testing.T, m *Module, suite []*Analyzer) {
	t.Helper()
	diags := Run(m, suite)
	wants := collectWants(t, m)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.source)
		}
	}
}

// testAnalyzer is the per-analyzer golden entry point.
func testAnalyzer(t *testing.T, a *Analyzer, fixture, importPath, modPath string) {
	t.Helper()
	m := loadFixture(t, fixture, importPath, modPath)
	checkGolden(t, m, []*Analyzer{a})
}

func TestCtxFirstGolden(t *testing.T) {
	testAnalyzer(t, CtxFirst, "ctxfirst", "repro", "repro")
}

// TestCtxFirstRetiredEclatGolden checks the declaration ban inside the
// eclat package itself: the six entry points retired by the class-task
// engine and the six folded into the one local core may not be
// re-declared, while the kept spellings stay silent.
func TestCtxFirstRetiredEclatGolden(t *testing.T) {
	testAnalyzer(t, CtxFirst, "ctxfirst_eclat", "repro/internal/eclat", "repro")
}

func TestVirtualTimeGolden(t *testing.T) {
	testAnalyzer(t, VirtualTime, "virtualtime", "repro/internal/cluster", "repro")
}

// TestVirtualTimeElsewhere checks the analyzer stays quiet outside the
// simulated-time packages: the same source, loaded under an unlisted
// import path, must produce zero diagnostics.
func TestVirtualTimeElsewhere(t *testing.T) {
	m := loadFixture(t, "virtualtime_ok", "repro/internal/eclat", "repro")
	if diags := Run(m, []*Analyzer{VirtualTime}); len(diags) != 0 {
		t.Errorf("virtualtime fired outside the simulated packages: %v", diags)
	}
}

func TestScratchOnlyGolden(t *testing.T) {
	testAnalyzer(t, ScratchOnly, "scratchonly", "repro/internal/tidlist", "repro")
}

func TestScratchOnlyQualifiedGolden(t *testing.T) {
	testAnalyzer(t, ScratchOnly, "scratchonly_import", "repro/internal/eclat", "repro")
}

func TestMetricNameGolden(t *testing.T) {
	testAnalyzer(t, MetricName, "metricname", "repro/internal/service", "repro")
}

func TestSentErrGolden(t *testing.T) {
	testAnalyzer(t, SentErr, "senterr", "repro/internal/service", "repro")
}

func TestLockOrderGolden(t *testing.T) {
	testAnalyzer(t, LockOrder, "lockorder", "repro/internal/eclat", "repro")
}

func TestAtomicOnlyGolden(t *testing.T) {
	testAnalyzer(t, AtomicOnly, "atomiconly", "repro/internal/eclat", "repro")
}

func TestArenaDisciplineGolden(t *testing.T) {
	testAnalyzer(t, ArenaDiscipline, "arenadiscipline", "repro/internal/eclat", "repro")
}

func TestMmapAliasGolden(t *testing.T) {
	testAnalyzer(t, MmapAlias, "mmapalias", "repro/internal/service", "repro")
}

func TestGoroutineJoinGolden(t *testing.T) {
	testAnalyzer(t, GoroutineJoin, "goroutinejoin", "repro/internal/service", "repro")
}

// TestGoroutineJoinElsewhere checks the join rule stays scoped to the
// three hot packages: the same fixture under an unlisted import path
// must produce zero diagnostics.
func TestGoroutineJoinElsewhere(t *testing.T) {
	m := loadFixture(t, "goroutinejoin", "repro/internal/rules", "repro")
	if diags := Run(m, []*Analyzer{GoroutineJoin}); len(diags) != 0 {
		t.Errorf("goroutinejoin fired outside its packages: %v", diags)
	}
}

// TestSuppressGolden exercises the //reprolint:ignore path end to end:
// valid directives silence their line (or the line below), everything
// else still reports.
func TestSuppressGolden(t *testing.T) {
	m := loadFixture(t, "suppress", "repro/internal/service", "repro")
	checkGolden(t, m, All())
}

// TestSuppressMalformed checks that broken directives are themselves
// diagnostics from the "reprolint" pseudo-analyzer. The expectations are
// asserted directly because a want comment cannot share a line with a
// line-comment directive.
func TestSuppressMalformed(t *testing.T) {
	m := loadFixture(t, "suppressbad", "repro/internal/service", "repro")
	diags := Run(m, All())
	var got []string
	for _, d := range diags {
		if d.Analyzer != "reprolint" {
			continue
		}
		got = append(got, fmt.Sprintf("%d: %s", d.Pos.Line, d.Message))
	}
	wants := []string{
		`must give a reason`,
		`unknown analyzer "nosuch"`,
	}
	for _, w := range wants {
		found := false
		for _, g := range got {
			if strings.Contains(g, w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no reprolint diagnostic containing %q; got %v", w, got)
		}
	}
	// The directives are malformed, so the violations they sit next to
	// must still be reported.
	senterr := 0
	for _, d := range diags {
		if d.Analyzer == "senterr" {
			senterr++
		}
	}
	if senterr == 0 {
		t.Errorf("malformed directives must not suppress; diagnostics: %v", diags)
	}
}

// TestSuppressAllKeyword checks the "all" analyzer wildcard.
func TestSuppressAllKeyword(t *testing.T) {
	m := loadFixture(t, "suppressall", "repro/internal/service", "repro")
	if diags := Run(m, All()); len(diags) != 0 {
		t.Errorf("//reprolint:ignore all left diagnostics: %v", diags)
	}
}
