//go:build ignore

// Command bench_mine runs the end-to-end mining benchmarks
// (BenchmarkMineParallelLocal, BenchmarkMineVerticalLocal,
// BenchmarkMineVariants, and BenchmarkMineSequentialAlloc in
// internal/eclat) and writes the results to BENCH_mine.json at the
// repository root — the committed perf trajectory for the real hot path:
// MineParallelLocal at 1/2/4/8 workers (1 is the sequential driver) under
// sparse, bitset, roaring and auto; MineVerticalLocal on the dense family
// under the same four at 1/2 workers; the maximal/closed policies at
// 1/2/4 workers plus a top-k row; and the scratch arena's allocs/op
// effect on the one-worker recursion.
//
// The snapshot records NumCPU and GOMAXPROCS of the machine that
// produced it: speedup columns are only meaningful relative to the
// recorded core count (a single-core host shows a flat curve by
// construction).
//
// Usage (from the repository root):
//
//	go run scripts/bench_mine.go [-benchtime 3x] [-count 3] [-o BENCH_mine.json]
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

// MineResult is one MineParallelLocal or MineVerticalLocal benchmark
// line.
type MineResult struct {
	// Repr is the tid-set representation (sparse, bitset, roaring or
	// auto).
	Repr string `json:"repr"`
	// Workers is the worker-goroutine count (1 is the sequential driver).
	Workers int `json:"workers"`
	// NsPerOp is the fastest observed time for one full mine.
	NsPerOp float64 `json:"nsPerOp"`
	// Speedup is the same representation's workers=1 NsPerOp over this
	// one (1.0 for workers=1 itself).
	Speedup     float64 `json:"speedup"`
	BytesPerOp  float64 `json:"bytesPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

// VariantResult is one BenchmarkMineVariants line: a non-all-frequent
// engine policy (maximal, closed, topk100) at a given worker count —
// the multicore the class-task engine opened for the variant miners.
type VariantResult struct {
	Variant string  `json:"variant"`
	Workers int     `json:"workers"`
	NsPerOp float64 `json:"nsPerOp"`
	// Speedup is the same variant's workers=1 NsPerOp over this one.
	Speedup     float64 `json:"speedup"`
	BytesPerOp  float64 `json:"bytesPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

// AllocResult is one BenchmarkMineSequentialAlloc line: the one-worker
// miner with the scratch arena disabled vs enabled.
type AllocResult struct {
	Arena       string  `json:"arena"` // "off" or "on"
	NsPerOp     float64 `json:"nsPerOp"`
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
	// Mine is the worker-scaling grid; Vertical the dense store-backed
	// family mined from item sets (VerticalDataset); Variants the
	// engine's maximal/closed/top-k scaling rows; SequentialAlloc the
	// arena ablation on the one-worker path.
	Mine            []MineResult    `json:"mine"`
	VerticalDataset string          `json:"verticalDataset"`
	Vertical        []MineResult    `json:"vertical"`
	Variants        []VariantResult `json:"variants"`
	SequentialAlloc []AllocResult   `json:"sequentialAlloc"`
}

var (
	mineLine = regexp.MustCompile(
		`^BenchmarkMine(ParallelLocal|VerticalLocal)/repr=([a-z]+)/workers=(\d+)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)
	variantLine = regexp.MustCompile(
		`^BenchmarkMineVariants/variant=([a-z0-9]+)/workers=(\d+)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)
	allocLine = regexp.MustCompile(
		`^BenchmarkMineSequentialAlloc/arena=(on|off)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)
)

func main() {
	benchtime := flag.String("benchtime", "3x", "go test -benchtime value")
	count := flag.Int("count", 3, "go test -count value; the fastest run per benchmark is kept")
	out := flag.String("o", "BENCH_mine.json", "output file")
	flag.Parse()

	cmd := exec.Command("go", "test", "./internal/eclat",
		"-run", "^$", "-bench", "^BenchmarkMine(ParallelLocal|VerticalLocal|Variants|SequentialAlloc)$",
		"-benchtime", *benchtime, "-count", strconv.Itoa(*count))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench_mine: go test -bench failed:", err)
		os.Exit(1)
	}

	// bestMine is keyed by benchmark (ParallelLocal or VerticalLocal),
	// representation and worker count.
	bestMine := map[[3]string]MineResult{}
	bestVariant := map[[2]string]VariantResult{}
	bestAlloc := map[string]AllocResult{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if m := mineLine.FindStringSubmatch(line); m != nil {
			ns, err := strconv.ParseFloat(m[4], 64)
			if err != nil {
				continue
			}
			workers, _ := strconv.Atoi(m[3])
			r := MineResult{Repr: m[2], Workers: workers, NsPerOp: ns}
			r.BytesPerOp, r.AllocsPerOp = parseMem(m[5])
			key := [3]string{m[1], r.Repr, m[3]}
			if prev, ok := bestMine[key]; !ok || r.NsPerOp < prev.NsPerOp {
				bestMine[key] = r
			}
			continue
		}
		if m := variantLine.FindStringSubmatch(line); m != nil {
			ns, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				continue
			}
			workers, _ := strconv.Atoi(m[2])
			r := VariantResult{Variant: m[1], Workers: workers, NsPerOp: ns}
			r.BytesPerOp, r.AllocsPerOp = parseMem(m[4])
			key := [2]string{r.Variant, m[2]}
			if prev, ok := bestVariant[key]; !ok || r.NsPerOp < prev.NsPerOp {
				bestVariant[key] = r
			}
			continue
		}
		if m := allocLine.FindStringSubmatch(line); m != nil {
			ns, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				continue
			}
			r := AllocResult{Arena: m[1], NsPerOp: ns}
			r.BytesPerOp, r.AllocsPerOp = parseMem(m[3])
			if prev, ok := bestAlloc[r.Arena]; !ok || r.NsPerOp < prev.NsPerOp {
				bestAlloc[r.Arena] = r
			}
		}
	}
	if len(bestMine) == 0 || len(bestVariant) == 0 || len(bestAlloc) == 0 {
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
	}
	// Speedups are relative to the same benchmark and representation's
	// workers=1 row.
	seqNs := map[[2]string]float64{}
	for key, r := range bestMine {
		if r.Workers == 1 {
			seqNs[[2]string{key[0], key[1]}] = r.NsPerOp
		}
	}
	for key, r := range bestMine {
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
	for key, r := range bestVariant {
		if r.Workers == 1 {
			variantBase[key[0]] = r.NsPerOp
		}
	}
	for _, r := range bestVariant {
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
	for _, arena := range []string{"off", "on"} {
		snap.SequentialAlloc = append(snap.SequentialAlloc, bestAlloc[arena])
	}

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
	fmt.Printf("wrote %s (%d mine, %d vertical, %d variant, %d alloc results)\n",
		*out, len(snap.Mine), len(snap.Vertical), len(snap.Variants), len(snap.SequentialAlloc))
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
