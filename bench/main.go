// Command bench is the repository's benchmark: four workloads that load
// the mining stack from the library facade to an HTTP job on the
// assocmined daemon. Each run prints every end-to-end metric by name with
// its unit, checks every output against a reference computed on an
// independent path, and, with -trace 1, reports per-layer metrics from
// spans placed around each call into the program, from the program's own
// counters, and from layer replays on the workload's data.
//
// bench/run.sh builds this package and the daemon, then runs it:
//
//	bash bench/run.sh --workload serve_cold --seed 3 --seconds 20 --trace 0
//	bash bench/run.sh -seed 1 -trace 1 -out .bench_build/set.json   # every workload, untraced and traced
//	bash bench/run.sh compare bench/results/a.json bench/results/b.json
//
// With -workload, the last line of standard output is one JSON object:
// {"correct","attempted","failed","metrics":{name:{"value","unit"}}}.
// Without it, every workload runs in a fresh process of its own. Any
// failed check prints FAIL and makes the command exit non-zero.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errFailed reports a run whose output checks failed; its report has
// already been printed.
var errFailed = errors.New("FAIL: outputs differ from the reference")

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run in this process ("+strings.Join(workloadNames, ", ")+"); empty runs each in its own process")
	seed := fs.Int64("seed", 1, "workload seed: drives the generated data, the request mix and the arrival schedule")
	seconds := fs.Int("seconds", 20, "measurement window of one run, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced protocol and reports per-layer metrics, 0 the end-to-end metrics")
	out := fs.String("out", "", "write the run's report (or, without -workload, the result set) to this JSON file")
	daemonBin := fs.String("daemon", ".bench_build/bin/assocmined", "assocmined binary")
	workdir := fs.String("workdir", ".bench_build/tmp", "scratch directory for data, stores and traces")
	smoke := fs.Bool("smoke", false, "tiny datasets and a 1s window unless -seconds is given: all four workloads in seconds (a self-test, not a measurement)")
	benchmark := fs.String("benchmark", "BENCHMARK.json", "benchmark definition, for compare's bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *smoke {
		explicit := false
		fs.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "seconds" })
		if !explicit {
			*seconds = 1
		}
	}
	if fs.Arg(0) == "compare" {
		return compare(fs.Args()[1:], *benchmark, stdout)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be positive, got %d", *seconds)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	abs, err := filepath.Abs(*workdir)
	if err != nil {
		return err
	}
	e := env{seed: *seed, seconds: *seconds, smoke: *smoke, daemon: *daemonBin, workdir: abs, log: stderr}
	if *workload == "" {
		return runAll(ctx, e, *trace == 1, *out, stdout, stderr)
	}
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	rep, err := runOne(ctx, *workload, e, *trace == 1)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := writeResultSet(*out, []*report{rep}); err != nil {
			return err
		}
	}
	printTable(stdout, rep)
	if err := writeJSONLine(stdout, rep.Result); err != nil {
		return err
	}
	if !rep.Result.Correct {
		return errFailed
	}
	return nil
}

// runAll runs every workload untraced (and, with trace, traced too), each
// in a fresh process of this binary, so peak RSS, the GC and caches do
// not carry over between workloads.
func runAll(ctx context.Context, e env, trace bool, out string, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	passes := []int{0}
	if trace {
		passes = append(passes, 1)
	}
	var reps []*report
	failed := false
	for _, name := range workloadNames {
		for _, t := range passes {
			tmp, err := os.CreateTemp(e.workdir, "report-*.json")
			if err != nil {
				return err
			}
			tmp.Close()
			defer os.Remove(tmp.Name())
			args := []string{"-workload", name, "-seed", strconv.FormatInt(e.seed, 10),
				"-seconds", strconv.Itoa(e.seconds), "-trace", strconv.Itoa(t),
				"-daemon", e.daemon, "-workdir", e.workdir, "-out", tmp.Name()}
			if e.smoke {
				args = append(args, "-smoke")
			}
			fmt.Fprintf(stderr, "running %s trace=%d\n", name, t)
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stdout, cmd.Stderr = stderr, stderr
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					return err
				}
				failed = true
			}
			set, err := readResultSet(tmp.Name())
			if err != nil {
				return fmt.Errorf("%s trace=%d: %w", name, t, err)
			}
			reps = append(reps, set.Runs...)
		}
	}
	for _, r := range reps {
		printTable(stdout, r)
	}
	if out != "" {
		if err := writeResultSet(out, reps); err != nil {
			return err
		}
	}
	if failed {
		return errFailed
	}
	return nil
}

// resultSet is the content of a result file: one report per workload run.
type resultSet struct {
	Runs []*report `json:"runs"`
}

func writeResultSet(path string, runs []*report) error {
	b, err := json.MarshalIndent(resultSet{Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// provenance records what a result depends on besides the code.
type provenance struct {
	NumCPU       int    `json:"numCPU"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"goVersion"`
	GitHead      string `json:"gitHead"`
	GitDirty     bool   `json:"gitDirty"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Smoke        bool   `json:"smoke,omitempty"`
	LoadAvgStart string `json:"loadavgStart"`
	LoadAvgEnd   string `json:"loadavgEnd"`
	DaemonFlags  string `json:"daemonFlags"`
	Started      string `json:"started"`
}

func startProvenance(e env) provenance {
	p := provenance{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitHead: "unknown", Seed: e.seed, Seconds: e.seconds, Smoke: e.smoke, LoadAvgStart: loadavg(),
		DaemonFlags: "defaults, -addr 127.0.0.1:0 -data-dir <scratch>", Started: time.Now().UTC().Format(time.RFC3339)}
	if head, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.GitHead = strings.TrimSpace(string(head))
		if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			p.GitDirty = len(bytes.TrimSpace(st)) > 0
		}
	}
	return p
}

func (p *provenance) finish() { p.LoadAvgEnd = loadavg() }

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	return strings.Join(f[:min(3, len(f))], " ")
}

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}
