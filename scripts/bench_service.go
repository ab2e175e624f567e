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
//	go run scripts/bench_service.go [-benchtime 200x] [-count 3] [-o BENCH_service.json]
//
// With -count > 1 the fastest run per case is kept, the usual way to
// suppress scheduling noise in committed snapshots. The snapshot records
// the producing host's NumCPU, GOMAXPROCS and Go version.
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

// Result is one benchmark case of the snapshot.
type Result struct {
	// Case is the sub-benchmark: uncached, uncached-cold or cached.
	Case string `json:"case"`
	// NsPerOp is the fastest observed time per job.
	NsPerOp float64 `json:"nsPerOp"`
	// BytesPerOp / AllocsPerOp come from -benchmem accounting.
	BytesPerOp  float64 `json:"bytesPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

// Snapshot is the BENCH_service.json document.
type Snapshot struct {
	GoVersion  string   `json:"goVersion"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"numCPU"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Benchtime  string   `json:"benchtime"`
	Count      int      `json:"count"`
	Results    []Result `json:"results"`
}

var benchLine = regexp.MustCompile(`^BenchmarkServiceQueries/([a-z-]+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)

func main() {
	benchtime := flag.String("benchtime", "200x", "go test -benchtime value")
	count := flag.Int("count", 3, "go test -count value; the fastest run per case is kept")
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

	best := map[string]Result{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		r := Result{Case: m[1], NsPerOp: ns}
		r.BytesPerOp, r.AllocsPerOp = parseMem(m[3])
		if prev, ok := best[r.Case]; !ok || r.NsPerOp < prev.NsPerOp {
			best[r.Case] = r
		}
	}
	if len(best) == 0 {
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
	for _, r := range best {
		snap.Results = append(snap.Results, r)
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

// parseMem extracts "N B/op" and "M allocs/op" from the tail of a
// benchmark line.
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
