package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// env is what every workload shares: the run's seed and length, and where
// the daemon binary and scratch space are.
type env struct {
	seed    int64
	seconds int
	smoke   bool
	daemon  string    // assocmined binary
	workdir string    // scratch root; each setup makes its own directory
	log     io.Writer // progress and FAIL lines
	gauge   *gauge    // the run's host-speed gauge, set by runOne
}

// op is one measured operation: a mine (mine_*) or an HTTP job (serve_*).
type op struct {
	due, start, end time.Time // due: when it should have started (open loop), else start
	late            time.Duration
	want            int // index of the expected output
	err             error
	fp              uint64 // FNV-64a of the output bytes
	wallNS          int64  // mining wall time (RunInfo.WallNS, job durationNs); 0 for cache hits
	phases          []phaseSpan

	http bool
	view jobView
	tm   jobTiming
}

func (o op) latency() time.Duration { return o.end.Sub(o.due) }

// workload is one benchmark workload. setUp may run several times, each
// after a tearDown; run may run several times on one setup.
type workload interface {
	setUp(ctx context.Context) error
	tearDown()
	run(ctx context.Context, pass int, window time.Duration, tr *tracer) []op
	// check counts the ops whose output differs from the reference, and
	// run-level assertion failures. It runs off the clock.
	check(ctx context.Context, ops []op) (int, error)
	pid() int                                 // the process that mines
	usage(ctx context.Context) (usage, error) // its CPU time and heap allocation so far
	counters(ctx context.Context) (map[string]float64, error)
	layerInput() layerInput
}

// usage is what the mining process has consumed: for mine_*, summed over
// the measured calls only; for serve_*, the daemon's totals.
type usage struct {
	cpu   time.Duration
	alloc uint64 // heap bytes allocated
}

var workloadNames = []string{"mine_t10", "mine_dense", "serve_cold", "serve_hot"}

func newWorkload(name string, e env) (workload, error) {
	switch name {
	case "mine_t10":
		return newMineT10(e), nil
	case "mine_dense":
		return newMineDense(e), nil
	case "serve_cold":
		return newServeCold(e), nil
	case "serve_hot":
		return newServeHot(e), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

var reqSeq atomic.Int64

// nextReq returns a fresh request id for the spans of one operation.
func nextReq() int64 { return reqSeq.Add(1) }

type metricDef struct{ name, unit string }

// e2eMetrics are what a user of the system pays, reported by every
// workload with tracing off. Their timings are CPU time scaled to the
// host's reference speed by the gauge; see bench/README.md.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mib_per_op", "MiB"},
	{"rss_peak_mib", "MiB"},
}

// infoMetrics are further observations of the same runs: the unscaled CPU
// times, the gauge, and the wall-clock numbers. They are printed and kept
// in result files, but not gated: on a shared host they move with the
// other tenants' load.
var infoMetrics = []metricDef{
	{"raw_setup_cpu_s", "s"},
	{"raw_cpu_ms_per_op", "ms"},
	{"gauge_unit_ms", "ms"},
	{"setup_wall_s", "s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"throughput_per_s", "1/s"},
}

// layerMetrics are reported by every workload with tracing on; see
// bench/README.md for what each measures and which end-to-end metric it
// should move.
var layerMetrics = []metricDef{
	{"paircount.count_ms", "ms"},
	{"tidlist.build_pairs_ms", "ms"},
	{"tidlist.l2_sc_ns_per_call.sparse", "ns"},
	{"tidlist.l2_sc_ns_per_call.bitset", "ns"},
	{"tidlist.l2_sc_ns_per_call.roaring", "ns"},
	{"tidlist.l2_sc_ns_per_call.auto", "ns"},
	{"tidlist.l2_alloc_b_per_call.sparse", "B"},
	{"tidlist.l2_alloc_b_per_call.bitset", "B"},
	{"tidlist.l2_alloc_b_per_call.roaring", "B"},
	{"tidlist.l2_alloc_b_per_call.auto", "B"},
	{"eclat.init_ms_p50", "ms"},
	{"eclat.transform_ms_p50", "ms"},
	{"eclat.async_ms_p50", "ms"},
	{"eclat.init_share_pct", "%"},
	{"eclat.transform_share_pct", "%"},
	{"eclat.async_share_pct", "%"},
	{"eclat.intersections", "count"},
	{"eclat.shortcircuit_ratio", "ratio"},
	{"eclat.kernel_ops", "count"},
	{"eclat.kernel_split.sparse", "ratio"},
	{"eclat.kernel_split.dense", "ratio"},
	{"eclat.kernel_split.mixed", "ratio"},
	{"eclat.kernel_split.roaring", "ratio"},
	{"eclat.steals", "count"},
	{"eclat.diffset_classes", "count"},
	{"eclat.classes", "count"},
	{"eclat.class_refetches", "count"},
	{"repro.mine_ms.sparse", "ms"},
	{"repro.mine_ms.bitset", "ms"},
	{"repro.mine_ms.roaring", "ms"},
	{"repro.mine_ms.auto", "ms"},
	{"repro.overhead_ms_p50", "ms"},
	{"store.open_ms_p50", "ms"},
	{"store.sets_ms.auto", "ms"},
	{"store.sets_ms.bitset", "ms"},
	{"store.sets_ms.roaring", "ms"},
	{"store.register_ms", "ms"},
	{"store.bytes_mapped", "B"},
	{"store.residency_evictions", "count"},
	{"store.madvise_calls", "count"},
	{"store.spills", "count"},
	{"mining.write_ms_p50", "ms"},
	{"mining.result_kb_p50", "KiB"},
	{"service.submit_ms_p50", "ms"},
	{"service.result_ms_p50", "ms"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.queue_wait_ms_p90", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.other_ms_p50", "ms"},
	{"service.polls_per_job", "count"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.rejected", "count"},
	{"client.late_ms_p99", "ms"},
	{"client.sent", "count"},
	{"trace.overhead_pct", "%"},
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload run as written to a result file.
type report struct {
	Workload   string     `json:"workload"`
	Trace      int        `json:"trace"`
	Provenance provenance `json:"provenance"`
	Result     resultLine `json:"result"`
	// Samples is the sample count behind each metric (for a percentile,
	// the operations it is taken over).
	Samples map[string]int `json:"samples"`
	// SupportedTail is the highest percentile with at least ten
	// operations beyond it; a latency_ms_p90 above it rests on fewer.
	SupportedTail float64            `json:"supportedTailPercentile,omitempty"`
	SetupRuns     []float64          `json:"setupRuns"`           // raw CPU seconds of each setup
	SetupWallRuns []float64          `json:"setupWallRuns"`       // wall seconds of each setup
	Info          map[string]float64 `json:"info,omitempty"`      // untraced: infoMetrics
	SelfMS        map[string]float64 `json:"selfMs,omitempty"`    // traced: self time per span name
	TraceFile     string             `json:"traceFile,omitempty"` // in the scratch directory
}

// runOne sets the workload up several times (setup_s is the median of
// their CPU time), then measures it with tracing off, or, with trace,
// runs the traced protocol of runTraced.
func runOne(ctx context.Context, name string, e env, trace bool) (*report, error) {
	e.gauge = newGauge()
	w, err := newWorkload(name, e)
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: name, Provenance: startProvenance(e), Samples: map[string]int{}}
	if trace {
		rep.Trace = 1
	}
	setups := 3
	if e.smoke || trace {
		setups = 1
	}
	if !trace { // runMeasured stops it after the window
		e.gauge.start()
		defer e.gauge.stop()
	}
	self := os.Getpid()
	for i := 0; i < setups; i++ {
		if i > 0 {
			w.tearDown()
		}
		runtime.GC() // the previous setup's garbage is not this one's cost
		c0, err := cpuTime(self)
		if err != nil {
			return nil, err
		}
		g0 := e.gauge.cpu()
		start := time.Now()
		if err := w.setUp(ctx); err != nil {
			w.tearDown()
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		wall := time.Since(start)
		c1, err := cpuTime(self)
		if err != nil {
			w.tearDown()
			return nil, err
		}
		cpu := c1 - c0 - (e.gauge.cpu() - g0)
		if pid := w.pid(); pid != self { // the daemon started in this setup
			d, err := cpuTime(pid)
			if err != nil {
				w.tearDown()
				return nil, err
			}
			cpu += d
		}
		rep.SetupRuns = append(rep.SetupRuns, cpu.Seconds())
		rep.SetupWallRuns = append(rep.SetupWallRuns, wall.Seconds())
	}
	defer w.tearDown()
	window := time.Duration(e.seconds) * time.Second
	if trace {
		err = runTraced(ctx, w, e, window, rep)
	} else {
		err = runMeasured(ctx, w, e, window, rep)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	rep.Provenance.finish()
	return rep, nil
}

func runMeasured(ctx context.Context, w workload, e env, window time.Duration, rep *report) error {
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS(w.pid())
	u0, err := w.usage(ctx)
	if err != nil {
		return err
	}
	start := time.Now()
	ops := w.run(ctx, 0, window, nil)
	elapsed := lastEnd(ops, start).Sub(start)
	u1, err := w.usage(ctx)
	if err != nil {
		return err
	}
	e.gauge.stop()
	f, units, err := e.gauge.factor()
	if err != nil {
		return err
	}
	rss, err := peakRSS(w.pid())
	if err != nil {
		return err
	}
	failed, err := w.check(ctx, ops)
	if err != nil {
		return err
	}
	lat := latencies(ops)
	ok := len(lat)
	cpuPerOp := ms(u1.cpu-u0.cpu) / float64(max(ok, 1))
	m := map[string]float64{
		"setup_s":          f * median(rep.SetupRuns),
		"cpu_ms_per_op":    f * cpuPerOp,
		"alloc_mib_per_op": float64(u1.alloc-u0.alloc) / float64(max(ok, 1)) / (1 << 20),
		"rss_peak_mib":     rss / 1024,
	}
	rep.Info = map[string]float64{
		"raw_setup_cpu_s":   median(rep.SetupRuns),
		"raw_cpu_ms_per_op": cpuPerOp,
		"gauge_unit_ms":     ms(refUnit) / f,
		"setup_wall_s":      median(rep.SetupWallRuns),
		"latency_ms_p50":    median(lat),
		"latency_ms_p90":    percentile(lat, 90),
		"throughput_per_s":  float64(ok) / elapsed.Seconds(),
	}
	rep.Samples["setup_s"] = len(rep.SetupRuns)
	for _, k := range []string{"cpu_ms_per_op", "alloc_mib_per_op", "latency_ms_p50", "latency_ms_p90", "throughput_per_s"} {
		rep.Samples[k] = ok
	}
	rep.Samples["rss_peak_mib"] = 1
	rep.Samples["gauge_unit_ms"] = units
	if rep.SupportedTail = tailPercentile(ok); rep.SupportedTail < 90 {
		fmt.Fprintf(e.log, "note: %d operations; latency_ms_p90 has fewer than ten beyond it\n", ok)
	}
	rep.Result = result(e2eMetrics, m, len(ops), failed)
	return nil
}

// runTraced runs the workload for a quarter of the window with spans
// around every call, then replays each layer on the workload's data, and
// derives the per-layer metrics from the spans, the program's counters
// and the replays.
func runTraced(ctx context.Context, w workload, e env, window time.Duration, rep *report) error {
	before, err := w.counters(ctx)
	if err != nil {
		return err
	}
	tr := newTracer()
	ops := w.run(ctx, 1, window/4, tr)
	recording := tr.recordingTime()
	after, err := w.counters(ctx)
	if err != nil {
		return err
	}
	failed, err := w.check(ctx, ops)
	if err != nil {
		return err
	}
	in := w.layerInput()
	dir, err := os.MkdirTemp(e.workdir, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reps := 3
	if e.smoke {
		reps = 1
	}
	m, err := replayLibrary(ctx, tr, in, dir, reps)
	if err != nil {
		return err
	}
	svc, err := replayService(ctx, e, tr, in)
	if err != nil {
		return err
	}

	obs := func(name string) float64 { return after[name] - before[name] }
	m["eclat.class_refetches"] = obs("eclat_class_refetches_total")
	m["store.residency_evictions"] = obs("store_residency_evictions_total")
	m["store.madvise_calls"] = obs("store_madvise_calls_total")
	m["store.spills"] = obs("store_spills_total")
	hits, misses := obs("service_cache_hits_total"), obs("service_cache_misses_total")
	m["service.cache_hit_ratio"] = hits / max(hits+misses, 1)
	m["service.rejected"] = obs("service_jobs_rejected_total")

	var wallNS, initNS, transformNS, asyncNS float64
	var lates []float64
	var busy time.Duration
	for _, o := range ops {
		lates = append(lates, ms(o.late))
		busy += o.latency()
		if o.err != nil || o.wallNS == 0 {
			continue
		}
		wallNS += float64(o.wallNS)
		for _, p := range o.phases {
			switch p.Name {
			case "initialization":
				initNS += float64(p.DurationNS)
			case "transformation":
				transformNS += float64(p.DurationNS)
			case "asynchronous":
				asyncNS += float64(p.DurationNS)
			}
		}
	}
	wallNS = max(wallNS, 1)
	m["eclat.init_share_pct"] = 100 * initNS / wallNS
	m["eclat.transform_share_pct"] = 100 * transformNS / wallNS
	m["eclat.async_share_pct"] = 100 * asyncNS / wallNS
	m["client.late_ms_p99"] = percentile(lates, 99)
	m["client.sent"] = float64(len(ops))
	// The spans' cost is timed directly: comparing traced with untraced
	// latency cannot resolve a cost this small under the host's drift.
	m["trace.overhead_pct"] = 100 * float64(recording) / float64(max(busy, 1))

	var submit, fetch, queue, run, other, polls []float64
	for _, o := range append(httpOps(ops), svc...) {
		submit = append(submit, ms(o.tm.submit))
		fetch = append(fetch, ms(o.tm.result))
		polls = append(polls, float64(o.tm.polls))
		rest := o.end.Sub(o.start) - o.tm.submit - o.tm.result
		if !o.view.Cached {
			queue = append(queue, ms(time.Duration(o.view.QueueWaitNS)))
			run = append(run, ms(time.Duration(o.view.DurationNS)))
			rest -= time.Duration(o.view.QueueWaitNS + o.view.DurationNS)
		}
		other = append(other, ms(rest))
	}
	m["service.submit_ms_p50"] = median(submit)
	m["service.result_ms_p50"] = median(fetch)
	m["service.queue_wait_ms_p50"] = median(queue)
	m["service.queue_wait_ms_p90"] = percentile(queue, 90)
	m["service.run_ms_p50"] = median(run)
	m["service.other_ms_p50"] = median(other)
	m["service.polls_per_job"] = mean(polls)
	rep.Samples["client"] = len(ops)
	rep.Samples["service"] = len(submit)
	rep.Samples["service.uncached"] = len(queue)

	spans := tr.snapshot()
	rep.SelfMS = map[string]float64{}
	for name, ns := range selfTimes(spans) {
		rep.SelfMS[name] = float64(ns) / 1e6
	}
	rep.TraceFile = fmt.Sprintf("trace-%s-seed%d.json", rep.Workload, e.seed)
	f, err := os.Create(filepath.Join(e.workdir, rep.TraceFile))
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rep.Result = result(layerMetrics, m, len(ops)+len(svc), failed)
	return nil
}

func result(defs []metricDef, m map[string]float64, attempted, failed int) resultLine {
	r := resultLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return r
}

// latencies returns the successful ops' latencies in ms.
func latencies(ops []op) []float64 {
	out := make([]float64, 0, len(ops))
	for _, o := range ops {
		if o.err == nil {
			out = append(out, ms(o.latency()))
		}
	}
	return out
}

func httpOps(ops []op) []op {
	var out []op
	for _, o := range ops {
		if o.http && o.err == nil {
			out = append(out, o)
		}
	}
	return out
}

func lastEnd(ops []op, start time.Time) time.Time {
	end := start
	for _, o := range ops {
		if o.end.After(end) {
			end = o.end
		}
	}
	return end
}

// peakRSS is the VmHWM of pid in KiB.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// cpuTime is the CPU time process pid has run so far, all its threads
// included, read from its CPU-time clock (clock_getcpuclockid(3): the
// clock id ^pid<<3 | CPUCLOCK_SCHED). The scheduler's clock leaves out
// time the hypervisor stole from the virtual CPUs, so on a shared host it
// moves far less with the other tenants' load than wall time does.
func cpuTime(pid int) (time.Duration, error) {
	return clockTime(uintptr(^pid<<3 | 2))
}

// threadCPU is the calling thread's CPU time.
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTimeID = 3
	return clockTime(clockThreadCPUTimeID)
}

func clockTime(clock uintptr) (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(%d): %w", int64(clock), errno)
	}
	return time.Duration(ts.Nano()), nil
}

// resetPeakRSS restarts pid's VmHWM from its current RSS, so the peak
// covers the measured window rather than setup. Where the kernel refuses,
// the peak covers the process's life.
func resetPeakRSS(pid int) {
	_ = os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// printTable writes a run's metrics, and a traced run's self times, as a
// human-readable table.
func printTable(w io.Writer, rep *report) {
	defs := e2eMetrics
	if rep.Trace == 1 {
		defs = layerMetrics
	}
	status := "ok"
	if !rep.Result.Correct {
		status = "FAIL"
	}
	fmt.Fprintf(w, "%s seed=%d trace=%d: %d attempted, %d failed, %s\n",
		rep.Workload, rep.Provenance.Seed, rep.Trace, rep.Result.Attempted, rep.Result.Failed, status)
	for _, d := range defs {
		v := rep.Result.Metrics[d.name]
		fmt.Fprintf(w, "  %-38s %14.4f %s\n", d.name, v.Value, v.Unit)
	}
	if len(rep.Info) > 0 {
		fmt.Fprintln(w, "  not gated:")
		for _, d := range infoMetrics {
			fmt.Fprintf(w, "    %-36s %14.4f %s\n", d.name, rep.Info[d.name], d.unit)
		}
	}
	if len(rep.SelfMS) > 0 {
		names := make([]string, 0, len(rep.SelfMS))
		for n := range rep.SelfMS {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return rep.SelfMS[names[i]] > rep.SelfMS[names[j]] })
		fmt.Fprintf(w, "  self time by span (trace %s in the scratch directory):\n", rep.TraceFile)
		for _, n := range names {
			fmt.Fprintf(w, "    %-36s %12.1f ms\n", n, rep.SelfMS[n])
		}
	}
}
