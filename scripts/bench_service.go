//go:build ignore

// Command bench_service runs the serving-path benchmark
// (BenchmarkServiceQueries in internal/service) and writes the results
// to BENCH_service.json at the repository root — the committed
// service-layer row: one end-to-end job (submit, queue, registry,
// facade, engine, result) on a generated T10.I6 D2K dataset, as an
// uncached job on a dataset whose L2 memo is warm (uncached), as an
// uncached job on a freshly registered dataset that counts L2
// (uncached-cold), and as a cache hit (cached).
//
// Usage (from the repository root):
//
//	go run scripts/bench_service.go [-benchtime 200x] [-count 5] [-o BENCH_service.json]
//
// Each case keeps the median of its -count runs and records their
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

// Result is one benchmark case of the snapshot.
type Result struct {
	// Case is the sub-benchmark: uncached, uncached-cold or cached.
	Case string `json:"case"`
	// NsPerOp is the median time per job over the runs, and NsIQR the
	// interquartile range of those times.
	NsPerOp float64 `json:"nsPerOp"`
	NsIQR   float64 `json:"nsIQR"`
	// BytesPerOp / AllocsPerOp come from -benchmem accounting, the
	// medians over the runs.
	BytesPerOp  float64 `json:"bytesPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

// Snapshot is the BENCH_service.json document.
type Snapshot struct {
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Benchtime  string `json:"benchtime"`
	// Count is the number of runs each case's median and IQR are over.
	Count   int      `json:"count"`
	Results []Result `json:"results"`
}

var benchLine = regexp.MustCompile(`^BenchmarkServiceQueries/([a-z-]+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)

func main() {
	benchtime := flag.String("benchtime", "200x", "go test -benchtime value")
	count := flag.Int("count", 5, "go test -count value; each case keeps the median run and the runs' IQR")
	out := flag.String("o", "BENCH_service.json", "output file")
	flag.Parse()

	cmd := exec.Command("go", "test", "./internal/service",
		"-run", "^$", "-bench", "^BenchmarkServiceQueries$", "-benchmem",
		"-benchtime", *benchtime, "-count", strconv.Itoa(*count))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench_service: go test -bench failed:", err)
		os.Exit(1)
	}

	runs := map[string][]benchrow.Run{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		if r, ok := benchrow.ParseRun(m[2], m[3]); ok {
			runs[m[1]] = append(runs[m[1]], r)
		}
	}
	if len(runs) == 0 {
		fmt.Fprintln(os.Stderr, "bench_service: no benchmark lines parsed")
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
	for c, rs := range runs {
		m := benchrow.Summarize(rs)
		snap.Results = append(snap.Results, Result{Case: c, NsPerOp: m.NS, NsIQR: m.IQR, BytesPerOp: m.Bytes, AllocsPerOp: m.Allocs})
	}
	sort.Slice(snap.Results, func(i, j int) bool { return snap.Results[i].Case < snap.Results[j].Case })

	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench_service:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench_service:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d results)\n", *out, len(snap.Results))
}
