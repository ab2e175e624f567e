// Command assocmined is the mining daemon: it loads datasets once,
// then serves frequent-itemset mining jobs over HTTP through a bounded
// job queue, a worker pool, and an LRU result cache (stdlib net/http
// only; see internal/service).
//
// Usage:
//
//	assocmined -addr :8420 -gen t10=100000
//	assocmined -dataset retail=retail.fimi,fimi -dataset big=big.db -workers 8
//	assocmined -data-dir /var/lib/assocmined -gen t10=100000   # persists; restarts skip the rebuild
//
// API:
//
//	POST   /v1/jobs              {"dataset":"t10","algorithm":"eclat","supportPct":0.25}
//	                             optional: "variant":"all|maximal|closed",
//	                             "representation":"auto|sparse|bitset|roaring"
//	                             (tid-set encoding for Eclat-family algorithms;
//	                             auto prices each equivalence class's joins)
//	GET    /v1/jobs/{id}         job status
//	GET    /v1/jobs/{id}/result  result text (support<TAB>items per line)
//	DELETE /v1/jobs/{id}         cancel
//	GET    /v1/datasets          registered datasets
//	POST   /v1/datasets          register a dataset (persists under -data-dir)
//	DELETE /v1/datasets/{name}   remove a dataset (409 while jobs reference it)
//	GET    /healthz, /statsz     liveness and counters
//	GET    /metricsz             metrics registry (expvar JSON; ?format=prometheus for text exposition)
//	GET    /debug/pprof/         runtime profiling (profile, heap, goroutine, trace, ...)
//
// Errors come back as {"error":{"code","message"}} with a stable
// machine-readable code.
//
// SIGINT/SIGTERM drain running jobs before exit (bounded by -drain).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/db"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "assocmined:", err)
		os.Exit(1)
	}
}

// repeatFlag collects a repeatable string flag.
type repeatFlag []string

func (r *repeatFlag) String() string     { return strings.Join(*r, ",") }
func (r *repeatFlag) Set(v string) error { *r = append(*r, v); return nil }

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("assocmined", flag.ContinueOnError)
	fs.SetOutput(stdout)
	addr := fs.String("addr", ":8420", "listen address (host:port; port 0 picks an ephemeral port)")
	workers := fs.Int("workers", runtime.NumCPU(), "mining worker goroutines")
	parallelBudget := fs.Int("parallel-budget", 0, "total intra-job mining goroutines across concurrent jobs; 0 means GOMAXPROCS (each job gets budget/workers, min 1)")
	queue := fs.Int("queue", 64, "bounded job-queue depth (submissions beyond it get 429)")
	cacheMB := fs.Int("cache-mb", 64, "result-cache budget in MiB")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
	dataDir := fs.String("data-dir", "", "persistent dataset store directory; datasets registered by flag or HTTP persist there and the daemon restarts without rebuilding")
	memBudget := fs.Int64("memory-budget", 0, "default per-job residency budget in bytes for store-backed mines (jobs may override with memoryBudget); 0 leaves unbudgeted jobs in-core")
	var datasets, gens repeatFlag
	fs.Var(&datasets, "dataset", "register a dataset: name=path[,binary|fimi] (repeatable; format inferred from extension when omitted)")
	fs.Var(&gens, "gen", "register a generated T10.I6 dataset: name=numTransactions (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be positive, got %d", *workers)
	}
	if *queue < 1 {
		return fmt.Errorf("-queue must be positive, got %d", *queue)
	}
	if *cacheMB < 1 {
		return fmt.Errorf("-cache-mb must be positive, got %d", *cacheMB)
	}
	if *parallelBudget < 0 {
		return fmt.Errorf("-parallel-budget must not be negative, got %d", *parallelBudget)
	}
	if *memBudget < 0 {
		return fmt.Errorf("-memory-budget must not be negative, got %d", *memBudget)
	}

	logf := func(format string, args ...any) { fmt.Fprintf(stdout, format+"\n", args...) }
	var st *store.Store
	if *dataDir != "" {
		var err error
		if st, err = store.Open(*dataDir, logf); err != nil {
			return fmt.Errorf("opening data dir %s: %w", *dataDir, err)
		}
		defer st.Close()
	}
	svc, err := service.New(service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheBytes:      int64(*cacheMB) << 20,
		ParallelBudget:  *parallelBudget,
		ResidencyBudget: *memBudget,
		Store:           st,
		Logf:            logf,
	})
	if err != nil {
		return err
	}
	if err := registerDatasets(svc, datasets, gens); err != nil {
		return err
	}
	for _, info := range svc.Datasets() {
		fmt.Fprintf(stdout, "dataset %s: %d transactions, %d items (%s)\n",
			info.Name, info.Transactions, info.NumItems, info.Source)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := newHTTPServer(service.NewHandler(svc))
	fmt.Fprintf(stdout, "assocmined listening on %s (workers=%d queue=%d cache=%dMiB)\n",
		ln.Addr(), *workers, *queue, *cacheMB)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(stdout, "shutting down: draining jobs (timeout %v)\n", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := svc.Shutdown(sctx); err != nil {
		return fmt.Errorf("job drain: %w", err)
	}
	fmt.Fprintln(stdout, "drained cleanly")
	return nil
}

// Read deadlines of the daemon's HTTP server. A request is a few
// hundred bytes of headers and at most a 1 MiB body, so a client that
// needs longer is trickling its request to hold the connection open.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
)

// newHTTPServer wraps h in the daemon's server, with read deadlines so a
// slow client cannot hold a connection forever. Writes stay unbounded: a
// large result body may legitimately take long to stream.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout}
}

// registerDatasets loads every -dataset and -gen spec into the service's
// registry. Specs whose names the persistent store already holds are
// skipped — a restarted daemon keeps its flags without rebuilding the
// data. With no specs and no stored datasets, it registers a small
// generated demo dataset so the daemon is immediately usable.
func registerDatasets(svc *service.Service, datasets, gens []string) error {
	persisted := make(map[string]bool)
	for _, info := range svc.Datasets() {
		persisted[info.Name] = true
	}
	for _, spec := range datasets {
		name, rest, ok := strings.Cut(spec, "=")
		if !ok || name == "" || rest == "" {
			return fmt.Errorf("bad -dataset %q (want name=path[,format])", spec)
		}
		if persisted[name] {
			continue
		}
		path, format, _ := strings.Cut(rest, ",")
		d, err := loadDatabase(path, format)
		if err != nil {
			return fmt.Errorf("dataset %s: %w", name, err)
		}
		if _, err := svc.Registry().Add(name, path, d); err != nil {
			return err
		}
	}
	for _, spec := range gens {
		name, nStr, ok := strings.Cut(spec, "=")
		if !ok || name == "" {
			return fmt.Errorf("bad -gen %q (want name=numTransactions)", spec)
		}
		n, err := strconv.Atoi(nStr)
		if err != nil || n < 1 {
			return fmt.Errorf("bad -gen %q: numTransactions must be a positive integer", spec)
		}
		if persisted[name] {
			continue
		}
		d, err := repro.Generate(repro.StandardConfig(n))
		if err != nil {
			return err
		}
		if _, err := svc.Registry().Add(name, fmt.Sprintf("generated T10.I6 n=%d", n), d); err != nil {
			return err
		}
	}
	if len(datasets) == 0 && len(gens) == 0 && len(persisted) == 0 {
		d, err := repro.Generate(repro.StandardConfig(5000))
		if err != nil {
			return err
		}
		if _, err := svc.Registry().Add("demo", "generated T10.I6 n=5000 (default)", d); err != nil {
			return err
		}
	}
	return nil
}

// loadDatabase reads a database file; format "" infers from the
// extension (.fimi/.dat/.txt are FIMI text, everything else binary).
func loadDatabase(path, format string) (*db.Database, error) {
	if format == "" {
		switch strings.ToLower(strings.TrimPrefix(lastExt(path), ".")) {
		case "fimi", "dat", "txt":
			format = "fimi"
		default:
			format = "binary"
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch format {
	case "binary":
		return db.Decode(f)
	case "fimi":
		return db.DecodeFIMI(f, 0)
	default:
		return nil, fmt.Errorf("unknown format %q (want binary or fimi)", format)
	}
}

func lastExt(path string) string {
	if i := strings.LastIndexByte(path, '.'); i >= 0 {
		return path[i:]
	}
	return ""
}
