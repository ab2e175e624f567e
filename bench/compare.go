package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// side is one side of a comparison: every untraced run found in the given
// result files, by workload.
type side map[string]*sideRuns

// sideRuns is one workload's untraced runs on one side.
type sideRuns struct {
	metrics   map[string][]float64
	runs      int
	incorrect int // runs whose result line reads correct=false
	attempted int
	failed    int
}

func loadSide(path string) (side, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	s := side{}
	for _, f := range files {
		set, err := readResultSet(f)
		if err != nil {
			return nil, err
		}
		for _, r := range set.Runs {
			if r.Trace != 0 {
				continue
			}
			sr := s[r.Workload]
			if sr == nil {
				sr = &sideRuns{metrics: map[string][]float64{}}
				s[r.Workload] = sr
			}
			sr.runs++
			if !r.Result.Correct {
				sr.incorrect++
			}
			sr.attempted += r.Result.Attempted
			sr.failed += r.Result.Failed
			for name, v := range r.Result.Metrics {
				sr.metrics[name] = append(sr.metrics[name], v.Value)
			}
		}
	}
	return s, nil
}

// compare prints, for each workload, its failure counts and, for each
// end-to-end metric, the median and quartiles of side A (the parent) and,
// when given, side B (the change), and a verdict against the metric's
// bound in the benchmark file. Each side is a result file or a directory
// of them.
//
// With two sides the verdict follows the benchmark's rule: B regressed
// when it failed more operations than A or has a run that is not correct,
// or when a metric's median is worse than A's by more than the bound; a
// metric whose run-to-run spread exceeds the bound is unresolved unless
// every B run beats every A run. With one side it reports whether each
// spread is within the bound, and within a third of it, and fails if any
// run failed.
func compare(args []string, benchmarkPath string, w io.Writer) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("usage: compare A [B], each a result file or a directory of them")
	}
	bf, err := readBenchmark(benchmarkPath)
	if err != nil {
		return err
	}
	sides := make([]side, len(args))
	for i, a := range args {
		if sides[i], err = loadSide(a); err != nil {
			return err
		}
	}
	regressed, failed := false, false
	fmt.Fprintf(w, "%-11s %-17s %-34s %-34s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "worse", "bound", "verdict")
	for _, wl := range bf.Workloads {
		a := sides[0][wl.Name]
		if a == nil {
			continue
		}
		var b *sideRuns
		if len(sides) == 2 {
			b = sides[1][wl.Name]
		}
		verdict := judgeFailures(a, b)
		switch verdict {
		case "REGRESSED":
			regressed = true
		case "FAIL":
			failed = true
		}
		fmt.Fprintf(w, "%-11s %-17s %-34s %-34s %8s %6s  %s\n", wl.Name, "failed", failures(a), failures(b), "-", "0", verdict)
		for _, m := range bf.EndToEnd {
			av := a.metrics[m.Name]
			if len(av) == 0 {
				continue
			}
			var bv []float64
			if b != nil {
				bv = b.metrics[m.Name]
			}
			verdict, worse := judge(av, bv, m.Better, m.Bound)
			if verdict == "REGRESSED" {
				regressed = true
			}
			fmt.Fprintf(w, "%-11s %-17s %-34s %-34s %8s %6.3f  %s\n", wl.Name, m.Name, summary(av), summary(bv), worse, m.Bound, verdict)
		}
	}
	switch {
	case regressed:
		return errors.New("a workload regressed beyond its bounds")
	case failed:
		return errors.New("runs failed their output checks")
	}
	return nil
}

// failures prints a side's failed operations over attempted ones, and how
// many of its runs were not correct.
func failures(s *sideRuns) string {
	if s == nil {
		return "-"
	}
	return fmt.Sprintf("%d/%d ops, %d/%d runs bad", s.failed, s.attempted, s.incorrect, s.runs)
}

// judgeFailures gates on correctness, which no metric carries: a failed
// operation is left out of the latencies and the per-operation costs, so
// a change whose slow operations fail could otherwise read as faster.
func judgeFailures(a, b *sideRuns) string {
	if b == nil {
		if a.failed > 0 || a.incorrect > 0 {
			return "FAIL"
		}
		return "ok"
	}
	if b.incorrect > 0 || b.failed > a.failed {
		return "REGRESSED"
	}
	return "within bound"
}

func summary(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", median(xs), q1, q3, len(xs))
}

// judge returns the verdict for B against A and how much worse B's
// median is, as a signed share of A's (positive is worse).
func judge(a, b []float64, better string, bound float64) (string, string) {
	sa := spread(a)
	if len(b) == 0 {
		switch {
		case sa > bound:
			return fmt.Sprintf("spread %.3f > bound", sa), "-"
		case sa > bound/3:
			return fmt.Sprintf("spread %.3f > bound/3", sa), "-"
		default:
			return fmt.Sprintf("spread %.3f ok", sa), "-"
		}
	}
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	worse := sign * (median(b) - median(a)) / median(a)
	ws := fmt.Sprintf("%+.3f", worse)
	if sa > bound || spread(b) > bound {
		if beatsAll(b, a, sign) {
			return "better (spread > bound)", ws
		}
		return "unresolved (spread > bound)", ws
	}
	if worse > bound {
		return "REGRESSED", ws
	}
	return "within bound", ws
}

// beatsAll reports whether every value of b is better than every value of
// a; sign is 1 when lower is better, -1 when higher is.
func beatsAll(b, a []float64, sign float64) bool {
	for _, x := range b {
		for _, y := range a {
			if sign*(x-y) >= 0 {
				return false
			}
		}
	}
	return true
}
