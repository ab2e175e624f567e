//go:build ignore

// Command bench_kernels runs the tid-set intersection kernel benchmarks
// (BenchmarkIntersectKernels and its short-circuit variant in
// internal/tidlist) and the triangular pair counter's benchmark
// (BenchmarkCounterAddPartition in internal/paircount), and writes the
// results to BENCH_kernels.json at the repository root — the committed
// perf-trajectory baseline for the representation layer and the
// initialization scan.
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

// Snapshot is the BENCH_kernels.json document.
type Snapshot struct {
	GoVersion string          `json:"goVersion"`
	GOOS      string          `json:"goos"`
	GOARCH    string          `json:"goarch"`
	ListLen   int             `json:"listLen"` // cardinality of each operand
	Benchtime string          `json:"benchtime"`
	Results   []Result        `json:"results"`
	Counter   []CounterResult `json:"counter"`
}

var (
	benchLine = regexp.MustCompile(
		`^Benchmark(IntersectKernels(?:SC)?)/density=([^/]+)/kernel=([a-z]+)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)
	counterLine = regexp.MustCompile(
		`^BenchmarkCounterAddPartition/data=([^\s]+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)
)

func main() {
	benchtime := flag.String("benchtime", "200x", "go test -benchtime value")
	count := flag.Int("count", 3, "go test -count value; the fastest run per benchmark is kept")
	out := flag.String("o", "BENCH_kernels.json", "output file")
	flag.Parse()

	cmd := exec.Command("go", "test", "./internal/tidlist", "./internal/paircount",
		"-run", "^$", "-bench", "^Benchmark(IntersectKernels|CounterAddPartition)",
		"-benchtime", *benchtime, "-count", strconv.Itoa(*count))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench_kernels: go test -bench failed:", err)
		os.Exit(1)
	}

	best := map[[3]string]Result{}
	bestCounter := map[string]CounterResult{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
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
	if len(best) == 0 || len(bestCounter) == 0 {
		fmt.Fprintln(os.Stderr, "bench_kernels: missing kernel or counter benchmark lines")
		os.Exit(1)
	}

	snap := Snapshot{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		ListLen:   2048,
		Benchtime: *benchtime,
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

// densityValue parses "12.5%" -> 12.5 for sorting.
func densityValue(s string) float64 {
	v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	return v
}
