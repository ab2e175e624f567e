// Package benchrow reduces the `go test -bench` lines of one benchmark
// row to the figures the committed BENCH_*.json snapshots record: the
// median of the row's -count runs, and the interquartile range of their
// times. The fastest run, which the snapshots kept before, cannot tell a
// one-worker difference from the noise of a 2-vCPU host. The
// scripts/bench_*.go commands share it.
package benchrow

import (
	"sort"
	"strconv"
	"strings"
)

// Run is one benchmark line's figures: ns/op, and B/op and allocs/op
// (0 when the line did not report allocations).
type Run struct{ NS, Bytes, Allocs float64 }

// ParseRun reads one line's ns/op figure and the memory figures in the
// tail that follows it; ok is false when ns does not parse.
func ParseRun(ns, tail string) (r Run, ok bool) {
	v, err := strconv.ParseFloat(ns, 64)
	if err != nil {
		return Run{}, false
	}
	r.NS = v
	fields := strings.Fields(tail)
	for i := 0; i+1 < len(fields); i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "B/op":
			r.Bytes = v
		case "allocs/op":
			r.Allocs = v
		}
	}
	return r, true
}

// Summary is a row's median figures and the interquartile range of its
// times.
type Summary struct{ NS, IQR, Bytes, Allocs float64 }

// Summarize reduces one row's runs (at least one) to their medians and
// the IQR of their times.
func Summarize(runs []Run) Summary {
	col := func(f func(Run) float64) []float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = f(r)
		}
		sort.Float64s(xs)
		return xs
	}
	ns := col(func(r Run) float64 { return r.NS })
	return Summary{
		NS:     quantile(ns, 0.5),
		IQR:    quantile(ns, 0.75) - quantile(ns, 0.25),
		Bytes:  quantile(col(func(r Run) float64 { return r.Bytes }), 0.5),
		Allocs: quantile(col(func(r Run) float64 { return r.Allocs }), 0.5),
	}
}

// quantile is the q-quantile of the sorted xs, interpolated linearly
// between neighbouring runs.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}
