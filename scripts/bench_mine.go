//go:build ignore

// Command bench_mine runs the end-to-end mining benchmarks
// (BenchmarkMineParallelLocal, BenchmarkMineVerticalLocal and
// BenchmarkMineVariants in internal/eclat) and writes the results to
// BENCH_mine.json at the repository root — the committed perf trajectory
// for the real hot path: MineParallelLocal at 1/2/4/8 workers under
// sparse, bitset, roaring and auto; MineVerticalLocal on the dense family
// under the same four at 1/2 workers; and the maximal/closed policies at
// 1/2/4 workers plus a top-k row. Every row, workers=1 included, runs the
// one work-stealing driver.
//
// The snapshot records NumCPU and GOMAXPROCS of the machine that
// produced it: speedup columns are only meaningful relative to the
// recorded core count (a single-core host shows a flat curve by
// construction).
//
// Usage (from the repository root):
//
//	go run scripts/bench_mine.go [-benchtime 3x] [-count 5] [-o BENCH_mine.json]
//
// Each row keeps the median of its -count runs and records their
// interquartile range (nsIQR; see scripts/benchrow).
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

	"repro/scripts/benchrow"
)

// MineResult is one MineParallelLocal or MineVerticalLocal benchmark
// line.
type MineResult struct {
	// Repr is the tid-set representation (sparse, bitset, roaring or
	// auto).
	Repr string `json:"repr"`
	// Workers is the worker-goroutine count.
	Workers int `json:"workers"`
	// NsPerOp is the median time of one full mine over the runs, and
	// NsIQR the interquartile range of those times.
	NsPerOp float64 `json:"nsPerOp"`
	NsIQR   float64 `json:"nsIQR"`
	// Speedup is the same representation's workers=1 NsPerOp over this
	// one (1.0 for workers=1 itself).
	Speedup float64 `json:"speedup"`
	// BytesPerOp and AllocsPerOp are the medians over the runs.
	BytesPerOp  float64 `json:"bytesPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

// PolicyResult is one BenchmarkMineVariants line: a non-all-frequent
// engine policy (maximal, closed, topk100) at a given worker count —
// the multicore the class-task engine opened for the variant miners.
type PolicyResult struct {
	Variant string  `json:"variant"`
	Workers int     `json:"workers"`
	NsPerOp float64 `json:"nsPerOp"`
	NsIQR   float64 `json:"nsIQR"`
	// Speedup is the same variant's workers=1 NsPerOp over this one.
	Speedup     float64 `json:"speedup"`
	BytesPerOp  float64 `json:"bytesPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

// Snapshot is the BENCH_mine.json document.
type Snapshot struct {
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU / GOMAXPROCS of the producing host: the scaling columns
	// cannot exceed them, whatever the worker count.
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Dataset    string `json:"dataset"`
	SupportPct string `json:"supportPct"`
	Benchtime  string `json:"benchtime"`
	// Count is the number of runs each row's median and IQR are over.
	Count int `json:"count"`
	// Mine is the worker-scaling grid; Vertical the dense store-backed
	// family mined from item sets (VerticalDataset); Variants the
	// engine's maximal/closed/top-k scaling rows.
	Mine            []MineResult   `json:"mine"`
	VerticalDataset string         `json:"verticalDataset"`
	Vertical        []MineResult   `json:"vertical"`
	Variants        []PolicyResult `json:"variants"`
}

var (
	mineLine = regexp.MustCompile(
		`^BenchmarkMine(ParallelLocal|VerticalLocal)/repr=([a-z]+)/workers=(\d+)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)
	variantLine = regexp.MustCompile(
		`^BenchmarkMineVariants/variant=([a-z0-9]+)/workers=(\d+)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)
)

func main() {
	benchtime := flag.String("benchtime", "3x", "go test -benchtime value")
	count := flag.Int("count", 5, "go test -count value; each row keeps the median run and the runs' IQR")
	out := flag.String("o", "BENCH_mine.json", "output file")
	flag.Parse()

	cmd := exec.Command("go", "test", "./internal/eclat",
		"-run", "^$", "-bench", "^BenchmarkMine(ParallelLocal|VerticalLocal|Variants)$",
		"-benchtime", *benchtime, "-count", strconv.Itoa(*count))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench_mine: go test -bench failed:", err)
		os.Exit(1)
	}

	// mineRuns is keyed by benchmark (ParallelLocal or VerticalLocal),
	// representation and worker count; variantRuns by variant and worker
	// count.
	mineRuns := map[[3]string][]benchrow.Run{}
	variantRuns := map[[2]string][]benchrow.Run{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if m := mineLine.FindStringSubmatch(line); m != nil {
			if r, ok := benchrow.ParseRun(m[4], m[5]); ok {
				key := [3]string{m[1], m[2], m[3]}
				mineRuns[key] = append(mineRuns[key], r)
			}
			continue
		}
		if m := variantLine.FindStringSubmatch(line); m != nil {
			if r, ok := benchrow.ParseRun(m[3], m[4]); ok {
				key := [2]string{m[1], m[2]}
				variantRuns[key] = append(variantRuns[key], r)
			}
		}
	}
	mineRows := map[[3]string]MineResult{}
	for key, runs := range mineRuns {
		workers, _ := strconv.Atoi(key[2])
		m := benchrow.Summarize(runs)
		mineRows[key] = MineResult{Repr: key[1], Workers: workers, NsPerOp: m.NS, NsIQR: m.IQR, BytesPerOp: m.Bytes, AllocsPerOp: m.Allocs}
	}
	variantRows := map[[2]string]PolicyResult{}
	for key, runs := range variantRuns {
		workers, _ := strconv.Atoi(key[1])
		m := benchrow.Summarize(runs)
		variantRows[key] = PolicyResult{Variant: key[0], Workers: workers, NsPerOp: m.NS, NsIQR: m.IQR, BytesPerOp: m.Bytes, AllocsPerOp: m.Allocs}
	}
	if len(mineRows) == 0 || len(variantRows) == 0 {
		fmt.Fprintln(os.Stderr, "bench_mine: no benchmark lines parsed")
		os.Exit(1)
	}

	snap := Snapshot{
		GoVersion:       runtime.Version(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Dataset:         "T10.I6 n=20000 (gen seed default)",
		SupportPct:      "0.25%",
		VerticalDataset: "dense T20.I6 n=5000 N=200 (gen seed default), support 1.25%",
		Benchtime:       *benchtime,
		Count:           *count,
	}
	// Speedups are relative to the same benchmark and representation's
	// workers=1 row.
	seqNs := map[[2]string]float64{}
	for key, r := range mineRows {
		if r.Workers == 1 {
			seqNs[[2]string{key[0], key[1]}] = r.NsPerOp
		}
	}
	for key, r := range mineRows {
		if base := seqNs[[2]string{key[0], key[1]}]; base > 0 && r.NsPerOp > 0 {
			r.Speedup = base / r.NsPerOp
		}
		if key[0] == "VerticalLocal" {
			snap.Vertical = append(snap.Vertical, r)
		} else {
			snap.Mine = append(snap.Mine, r)
		}
	}
	reprOrder := map[string]int{"sparse": 0, "bitset": 1, "roaring": 2, "auto": 3}
	for _, rows := range [][]MineResult{snap.Mine, snap.Vertical} {
		sort.Slice(rows, func(i, j int) bool {
			a, b := rows[i], rows[j]
			if a.Repr != b.Repr {
				return reprOrder[a.Repr] < reprOrder[b.Repr]
			}
			return a.Workers < b.Workers
		})
	}
	// Variant speedups are relative to the same variant's workers=1 row.
	variantBase := map[string]float64{}
	for key, r := range variantRows {
		if r.Workers == 1 {
			variantBase[key[0]] = r.NsPerOp
		}
	}
	for _, r := range variantRows {
		if base := variantBase[r.Variant]; base > 0 && r.NsPerOp > 0 {
			r.Speedup = base / r.NsPerOp
		}
		snap.Variants = append(snap.Variants, r)
	}
	sort.Slice(snap.Variants, func(i, j int) bool {
		a, b := snap.Variants[i], snap.Variants[j]
		if a.Variant != b.Variant {
			return a.Variant < b.Variant
		}
		return a.Workers < b.Workers
	})
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench_mine:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench_mine:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d mine, %d vertical, %d variant results)\n",
		*out, len(snap.Mine), len(snap.Vertical), len(snap.Variants))
}
