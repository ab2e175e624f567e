//go:build ignore

// Command bench_kernels runs the tid-set intersection kernel benchmarks
// (BenchmarkIntersectKernels and its short-circuit variant in
// internal/tidlist), the triangular pair counter's benchmark
// (BenchmarkCounterAddPartition in internal/paircount), the generator's
// (BenchmarkGenerate in internal/gen: Generate against the tests'
// reference loop) and the class
// recursion's benchmarks in internal/eclat (BenchmarkClassExpand:
// figure 3's joins against the class-local triangular count on the same
// classes, fed by the members' transposition or by the L2 count's rows;
// BenchmarkClassCount: the count alone on classes that each stress one
// of its priced units, and on dataset classes fed either way), and
// writes the results to
// BENCH_kernels.json at the repository root — the committed
// perf-trajectory baseline for the representation layer, the
// initialization scan and the class recursion, and the rows the engine's
// per-unit prices are read off. It also fits the count's per-unit costs
// to the BenchmarkClassCount rows (countCost; see fitCountCost), the
// re-check of internal/eclat's costTransposeNS … costIncNS.
//
// Usage (from the repository root):
//
//	go run scripts/bench_kernels.go [-benchtime 200x] [-count 3] [-o BENCH_kernels.json]
//
// With -count > 1 the fastest run per benchmark is kept, the usual way
// to suppress scheduling noise in committed snapshots.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line of the snapshot.
type Result struct {
	// Benchmark is the top-level benchmark name
	// ("IntersectKernels" or "IntersectKernelsSC").
	Benchmark string `json:"benchmark"`
	// Density is the tid density of the operands (e.g. "5%").
	Density string `json:"density"`
	// Kernel is "sparse", "bitset", "roaring", "adaptive" or
	// "diffset" (the dEclat difference kernel on adaptively encoded
	// operands).
	Kernel string `json:"kernel"`
	// NsPerOp is the fastest observed time per intersection.
	NsPerOp float64 `json:"nsPerOp"`
	// BytesPerOp / AllocsPerOp come from -benchmem style accounting
	// (the benchmarks call ReportAllocs).
	BytesPerOp  float64 `json:"bytesPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

// CounterResult is one BenchmarkCounterAddPartition line: a fresh
// counter fed every transaction of one database.
type CounterResult struct {
	// Data names the database ("T10.I6.D20K" or "dense.D5K").
	Data        string  `json:"data"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  float64 `json:"bytesPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

// GenerateResult is one BenchmarkGenerate line: one database generated.
type GenerateResult struct {
	// Data names the configuration ("T10.I6.D20K" or "dense.D5K").
	Data string `json:"data"`
	// Gen is "flat" (gen.Generate) or "reference" (the tests' copy of the
	// loop it replaced, a map per transaction).
	Gen         string  `json:"gen"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  float64 `json:"bytesPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

// ExpandResult is one BenchmarkClassExpand line: every top-level class
// of one dataset expanded by figure 3's joins or by the class-local
// triangular count.
type ExpandResult struct {
	// Data names the dataset and support ("dense.D5K/pct=1.25").
	Data string `json:"data"`
	// Expand is "joined", "counted" (fed by the members'
	// transposition) or "rows" (counted, fed by the L2 count's rows).
	Expand      string  `json:"expand"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  float64 `json:"bytesPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
	// Units holds the benchmark's reported metrics: classes and joins/op,
	// plus counted/op and incs/op for a counted row.
	Units map[string]float64 `json:"units"`
}

// CountResult is one BenchmarkClassCount line: the class-local count,
// with its triangle scan, of a class built so one priced unit dominates
// ("unit=span") or of a size bin of a dataset's classes in one encoding
// ("data=dense.D5K/pct=1.25/enc=bitset/members=8..15"), the latter
// also fed by the L2 count's rows (".../feed=rows").
type CountResult struct {
	Classes string  `json:"classes"`
	NsPerOp float64 `json:"nsPerOp"`
	// Units holds the classes' priced units per op (countUnitNames),
	// plus ptids/op and ranks/op for a feed=rows row.
	Units map[string]float64 `json:"units"`
}

// rowsFed reports whether r counted its classes from the L2 count's
// rows, which the price does not model.
func (r CountResult) rowsFed() bool { return strings.HasSuffix(r.Classes, "/feed=rows") }

// CountCost is the count's per-unit cost in ns, fitted to the
// BenchmarkClassCount rows by fitCountCost.
type CountCost struct {
	TransposeNS float64 `json:"transposeNS"` // per member TID transposed
	ScanWordNS  float64 `json:"scanWordNS"`  // per word of a packed member scanned
	SpanNS      float64 `json:"spanNS"`      // per TID of the class span indexed
	CellNS      float64 `json:"cellNS"`      // per triangle cell cleared and scanned
	IncNS       float64 `json:"incNS"`       // per pair increment
}

// countUnitNames are the BenchmarkClassCount metrics the count's price
// weighs, in CountCost's field order.
var countUnitNames = []string{"tids/op", "words/op", "span/op", "cells/op", "incs/op"}

// Snapshot is the BENCH_kernels.json document.
type Snapshot struct {
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU / GOMAXPROCS of the producing host.
	NumCPU      int              `json:"numCPU"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	ListLen     int              `json:"listLen"` // cardinality of each operand
	Benchtime   string           `json:"benchtime"`
	Results     []Result         `json:"results"`
	Counter     []CounterResult  `json:"counter"`
	Generate    []GenerateResult `json:"generate"`
	ClassExpand []ExpandResult   `json:"classExpand"`
	ClassCount  []CountResult    `json:"classCount"`
	CountCost   CountCost        `json:"countCost"`
}

var (
	benchLine = regexp.MustCompile(
		`^Benchmark(IntersectKernels(?:SC)?)/density=([^/]+)/kernel=([a-z]+)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)
	counterLine = regexp.MustCompile(
		`^BenchmarkCounterAddPartition/data=([^\s]+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)
	generateLine = regexp.MustCompile(
		`^BenchmarkGenerate/data=([^\s]+)/gen=([a-z]+)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)
	expandLine = regexp.MustCompile(
		`^BenchmarkClassExpand/data=([^\s]+)/expand=([a-z]+)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)
	countLine = regexp.MustCompile(
		`^BenchmarkClassCount/([^\s]+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)
)

func main() {
	benchtime := flag.String("benchtime", "200x", "go test -benchtime value")
	count := flag.Int("count", 3, "go test -count value; the fastest run per benchmark is kept")
	out := flag.String("o", "BENCH_kernels.json", "output file")
	flag.Parse()

	cmd := exec.Command("go", "test", "./internal/tidlist", "./internal/paircount", "./internal/gen", "./internal/eclat",
		"-run", "^$", "-bench", "^Benchmark(IntersectKernels|CounterAddPartition|Generate|ClassExpand|ClassCount)",
		"-benchtime", *benchtime, "-count", strconv.Itoa(*count))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench_kernels: go test -bench failed:", err)
		os.Exit(1)
	}

	best := map[[3]string]Result{}
	bestCounter := map[string]CounterResult{}
	bestGenerate := map[[2]string]GenerateResult{}
	bestExpand := map[[2]string]ExpandResult{}
	bestCount := map[string]CountResult{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if m := countLine.FindStringSubmatch(sc.Text()); m != nil {
			ns, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				continue
			}
			if prev, ok := bestCount[m[1]]; !ok || ns < prev.NsPerOp {
				bestCount[m[1]] = CountResult{Classes: m[1], NsPerOp: ns, Units: parseUnits(m[3])}
			}
			continue
		}
		if m := generateLine.FindStringSubmatch(sc.Text()); m != nil {
			ns, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				continue
			}
			r := GenerateResult{Data: m[1], Gen: m[2], NsPerOp: ns}
			r.BytesPerOp, r.AllocsPerOp = parseMem(m[4])
			key := [2]string{r.Data, r.Gen}
			if prev, ok := bestGenerate[key]; !ok || r.NsPerOp < prev.NsPerOp {
				bestGenerate[key] = r
			}
			continue
		}
		if m := expandLine.FindStringSubmatch(sc.Text()); m != nil {
			ns, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				continue
			}
			r := ExpandResult{Data: m[1], Expand: m[2], NsPerOp: ns, Units: parseUnits(m[4])}
			r.BytesPerOp, r.AllocsPerOp = parseMem(m[4])
			key := [2]string{r.Data, r.Expand}
			if prev, ok := bestExpand[key]; !ok || r.NsPerOp < prev.NsPerOp {
				bestExpand[key] = r
			}
			continue
		}
		if m := counterLine.FindStringSubmatch(sc.Text()); m != nil {
			ns, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				continue
			}
			r := CounterResult{Data: m[1], NsPerOp: ns}
			r.BytesPerOp, r.AllocsPerOp = parseMem(m[3])
			if prev, ok := bestCounter[r.Data]; !ok || r.NsPerOp < prev.NsPerOp {
				bestCounter[r.Data] = r
			}
			continue
		}
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			continue
		}
		r := Result{Benchmark: m[1], Density: m[2], Kernel: m[3], NsPerOp: ns}
		r.BytesPerOp, r.AllocsPerOp = parseMem(m[5])
		key := [3]string{r.Benchmark, r.Density, r.Kernel}
		if prev, ok := best[key]; !ok || r.NsPerOp < prev.NsPerOp {
			best[key] = r
		}
	}
	if len(best) == 0 || len(bestCounter) == 0 || len(bestGenerate) == 0 || len(bestExpand) == 0 || len(bestCount) == 0 {
		fmt.Fprintln(os.Stderr, "bench_kernels: missing kernel, counter, generator, class-expand or class-count benchmark lines")
		os.Exit(1)
	}

	snap := Snapshot{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		ListLen:    2048,
		Benchtime:  *benchtime,
	}
	for _, r := range best {
		snap.Results = append(snap.Results, r)
	}
	sort.Slice(snap.Results, func(i, j int) bool {
		a, b := snap.Results[i], snap.Results[j]
		if a.Benchmark != b.Benchmark {
			return a.Benchmark < b.Benchmark
		}
		if a.Density != b.Density {
			// Densities sort numerically descending ("50%" before "1%").
			return densityValue(a.Density) > densityValue(b.Density)
		}
		return a.Kernel < b.Kernel
	})
	for _, r := range bestCounter {
		snap.Counter = append(snap.Counter, r)
	}
	sort.Slice(snap.Counter, func(i, j int) bool { return snap.Counter[i].Data < snap.Counter[j].Data })
	for _, r := range bestGenerate {
		snap.Generate = append(snap.Generate, r)
	}
	sort.Slice(snap.Generate, func(i, j int) bool {
		a, b := snap.Generate[i], snap.Generate[j]
		if a.Data != b.Data {
			return a.Data < b.Data
		}
		return a.Gen < b.Gen
	})
	for _, r := range bestExpand {
		snap.ClassExpand = append(snap.ClassExpand, r)
	}
	expandOrder := map[string]int{"joined": 0, "counted": 1, "rows": 2}
	sort.Slice(snap.ClassExpand, func(i, j int) bool {
		a, b := snap.ClassExpand[i], snap.ClassExpand[j]
		if a.Data != b.Data {
			return a.Data < b.Data
		}
		return expandOrder[a.Expand] < expandOrder[b.Expand]
	})
	for _, r := range bestCount {
		snap.ClassCount = append(snap.ClassCount, r)
	}
	sort.Slice(snap.ClassCount, func(i, j int) bool { return snap.ClassCount[i].Classes < snap.ClassCount[j].Classes })
	if snap.CountCost, err = fitCountCost(snap.ClassCount); err != nil {
		fmt.Fprintln(os.Stderr, "bench_kernels:", err)
		os.Exit(1)
	}

	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench_kernels:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench_kernels:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d results)\n", *out, len(snap.Results))
	c := snap.CountCost
	fmt.Printf("count cost fit (ns): per TID %.3g, per packed word %.3g, per span TID %.3g, per cell %.3g, per increment %.3g\n",
		c.TransposeNS, c.ScanWordNS, c.SpanNS, c.CellNS, c.IncNS)
}

// fitCountCost fits the count's per-unit costs to the BenchmarkClassCount
// rows that transpose their members, the count planClass prices (rows
// fed by the L2 count's rows are skipped): the least-squares solution
// of ns/op = Σ cost·units over the rows, on relative error (a row weighs 1/ns², so a 100 µs row counts as
// much as a 10 ms one). The dataset rows carry the fit to the classes
// the price is applied to; on their own they cannot separate the units,
// which grow together with class size, and the unit rows, each
// dominated by one unit, make every cost identifiable. The costs are
// rounded to three significant digits.
func fitCountCost(rows []CountResult) (CountCost, error) {
	n := len(countUnitNames)
	a := make([][]float64, n) // normal equations, right-hand side in column n
	for i := range a {
		a[i] = make([]float64, n+1)
	}
	for _, r := range rows {
		if r.rowsFed() {
			continue
		}
		w := 1 / (r.NsPerOp * r.NsPerOp)
		for i, ui := range countUnitNames {
			a[i][n] += w * r.Units[ui] * r.NsPerOp
			for j, uj := range countUnitNames {
				a[i][j] += w * r.Units[ui] * r.Units[uj]
			}
		}
	}
	for c := range n { // Gauss-Jordan with partial pivoting
		p := c
		for r := c + 1; r < n; r++ {
			if math.Abs(a[r][c]) > math.Abs(a[p][c]) {
				p = r
			}
		}
		if a[p][c] == 0 {
			return CountCost{}, fmt.Errorf("no class-count row measures %s", countUnitNames[c])
		}
		a[c], a[p] = a[p], a[c]
		for r := range n {
			if r != c {
				f := a[r][c] / a[c][c]
				for k := c; k <= n; k++ {
					a[r][k] -= f * a[c][k]
				}
			}
		}
	}
	cost := make([]float64, n)
	for i := range cost {
		if v := a[i][n] / a[i][i]; v != 0 {
			scale := math.Pow(10, 2-math.Floor(math.Log10(math.Abs(v))))
			cost[i] = math.Round(v*scale) / scale
		}
	}
	return CountCost{TransposeNS: cost[0], ScanWordNS: cost[1], SpanNS: cost[2], CellNS: cost[3], IncNS: cost[4]}, nil
}

// parseMem extracts "N B/op" and "M allocs/op" from the tail of a
// benchmark line (absent when the run did not report allocations).
func parseMem(tail string) (bytesPerOp, allocsPerOp float64) {
	fields := strings.Fields(tail)
	for i := 0; i+1 < len(fields); i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "B/op":
			bytesPerOp = v
		case "allocs/op":
			allocsPerOp = v
		}
	}
	return bytesPerOp, allocsPerOp
}

// parseUnits extracts the custom "value unit" metrics of a benchmark
// line's tail, leaving out the -benchmem pair parseMem reads.
func parseUnits(tail string) map[string]float64 {
	out := map[string]float64{}
	fields := strings.Fields(tail)
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil || fields[i+1] == "B/op" || fields[i+1] == "allocs/op" {
			continue
		}
		out[fields[i+1]] = v
	}
	return out
}

// densityValue parses "12.5%" -> 12.5 for sorting.
func densityValue(s string) float64 {
	v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	return v
}
