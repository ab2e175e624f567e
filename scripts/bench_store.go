//go:build ignore

// Command bench_store runs the persistent-store benchmarks
// (BenchmarkStoreOpen / BenchmarkStoreMine / BenchmarkStoreMineOOC in
// internal/store) and writes the results to BENCH_store.json at the
// repository root — the committed perf-trajectory baseline for the
// dataset store: cold open vs in-memory rebuild vs warm mmap views,
// mine-from-store vs mine-from-heap, and budgeted out-of-core mining at
// 25/50/100% of the mapped bundle.
//
// Usage (from the repository root):
//
//	go run scripts/bench_store.go [-benchtime 20x] [-count 5] [-o BENCH_store.json]
//
// Each row keeps the median of its -count runs and records their
// interquartile range (nsIQR; see scripts/benchrow). The snapshot
// records the producing host's NumCPU, GOMAXPROCS and Go version.
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

// Result is one benchmark line of the snapshot.
type Result struct {
	// Benchmark is the top-level benchmark name ("StoreOpen",
	// "StoreMine" or "StoreMineOOC").
	Benchmark string `json:"benchmark"`
	// Transactions is the dataset size (the n= label).
	Transactions int `json:"transactions"`
	// Case is the sub-case: cold/rebuild/warm for StoreOpen, store/heap
	// for StoreMine, and the budget percentage (25/50/100 of the mapped
	// bundle) for StoreMineOOC.
	Case string `json:"case"`
	// NsPerOp is the median time per operation over the runs, and NsIQR
	// the interquartile range of those times.
	NsPerOp float64 `json:"nsPerOp"`
	NsIQR   float64 `json:"nsIQR"`
	// BytesPerOp / AllocsPerOp come from ReportAllocs accounting, the
	// medians over the runs.
	BytesPerOp  float64 `json:"bytesPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

// Snapshot is the BENCH_store.json document.
type Snapshot struct {
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Benchtime  string `json:"benchtime"`
	// Count is the number of runs each row's median and IQR are over.
	Count   int      `json:"count"`
	Results []Result `json:"results"`
}

var benchLine = regexp.MustCompile(
	`^Benchmark(StoreOpen|StoreMineOOC|StoreMine)/n=(\d+)/(?:mode|source|budget)=([a-z0-9]+)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)

func main() {
	benchtime := flag.String("benchtime", "20x", "go test -benchtime value")
	count := flag.Int("count", 5, "go test -count value; each row keeps the median run and the runs' IQR")
	out := flag.String("o", "BENCH_store.json", "output file")
	flag.Parse()

	cmd := exec.Command("go", "test", "./internal/store",
		"-run", "^$", "-bench", "^BenchmarkStore",
		"-benchtime", *benchtime, "-count", strconv.Itoa(*count))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench_store: go test -bench failed:", err)
		os.Exit(1)
	}

	// runs is keyed by benchmark, transaction count and case.
	runs := map[[3]string][]benchrow.Run{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		if r, ok := benchrow.ParseRun(m[4], m[5]); ok {
			key := [3]string{m[1], m[2], m[3]}
			runs[key] = append(runs[key], r)
		}
	}
	if len(runs) == 0 {
		fmt.Fprintln(os.Stderr, "bench_store: no benchmark lines parsed")
		os.Exit(1)
	}

	snap := Snapshot{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchtime:  *benchtime,
		Count:      *count,
	}
	for key, rs := range runs {
		n, _ := strconv.Atoi(key[1])
		m := benchrow.Summarize(rs)
		snap.Results = append(snap.Results, Result{Benchmark: key[0], Transactions: n, Case: key[2],
			NsPerOp: m.NS, NsIQR: m.IQR, BytesPerOp: m.Bytes, AllocsPerOp: m.Allocs})
	}
	sort.Slice(snap.Results, func(i, j int) bool {
		a, b := snap.Results[i], snap.Results[j]
		if a.Benchmark != b.Benchmark {
			return a.Benchmark < b.Benchmark
		}
		if a.Transactions != b.Transactions {
			return a.Transactions < b.Transactions
		}
		return a.Case < b.Case
	})

	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench_store:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench_store:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d results)\n", *out, len(snap.Results))
}
