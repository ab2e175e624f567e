package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro"
	"repro/internal/store"
)

// fleet is a daemon serving a store the benchmark wrote: the datasets are
// registered through store.Open/Store.Register before the daemon starts,
// so the daemon opens them store-backed, as after a restart.
type fleet struct {
	dir    string
	d      *daemon
	names  []string
	mapped []int64 // per dataset, the bundle bytes the daemon maps
}

func startFleet(ctx context.Context, e env, prefix string, dbs []*repro.Database) (*fleet, error) {
	dir, err := os.MkdirTemp(e.workdir, prefix+"-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	st, err := store.Open(filepath.Join(dir, "data"), nil)
	if err != nil {
		f.stop()
		return nil, err
	}
	for j, d := range dbs {
		name := fmt.Sprintf("%s%d", prefix, j)
		sd, err := st.Register(store.DatasetMeta(name, "bench", d), d, store.VerticalLists(d))
		if err != nil {
			st.Close()
			f.stop()
			return nil, err
		}
		f.names = append(f.names, name)
		f.mapped = append(f.mapped, sd.BytesMapped())
	}
	if err := st.Close(); err != nil {
		f.stop()
		return nil, err
	}
	if f.d, err = startDaemon(ctx, e.daemon, filepath.Join(dir, "data")); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fleet) stop() {
	if f.d != nil {
		f.d.stop()
		f.d = nil
	}
	os.RemoveAll(f.dir)
}

// runAll runs specs on the daemon from clientConns goroutines and
// returns the first error.
func (f *fleet) runAll(ctx context.Context, specs []jobSpec) error {
	var mu sync.Mutex
	var firstErr error
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(specs) {
					return
				}
				if _, _, err := f.d.runJob(ctx, specs[i], &buf); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// httpOp runs one job end to end — submit, poll, result body — and records
// it as an op, with client spans and the daemon's queue, run and phase
// spans imported from the job view under the request span.
func httpOp(ctx context.Context, d *daemon, spec jobSpec, due time.Time, lane, want int, tr *tracer, buf *bytes.Buffer) op {
	req := nextReq()
	start := time.Now()
	v, tm, err := d.runJob(ctx, spec, buf)
	end := time.Now()
	o := op{due: due, start: start, end: end, late: start.Sub(due), want: want, err: err, view: v, tm: tm, http: true}
	if err == nil {
		o.fp = fingerprintBytes(buf.Bytes())
		if !v.Cached {
			o.wallNS, o.phases = v.DurationNS, v.Phases
		}
	}
	if tr != nil && err == nil {
		root := tr.add("client.request", 0, req, lane, start, end)
		tr.add("service.submit", root, req, lane, start, start.Add(tm.submit))
		if !v.Cached {
			tr.add("service.queue", root, req, lane+10, v.Created, v.Started)
			run := tr.add("service.run", root, req, lane+10, v.Started, v.Finished)
			tr.phases(run, req, lane+10, v.Started, v.Phases)
		}
		tr.add("service.result", root, req, lane, end.Add(-tm.result), end)
	}
	return o
}

// serveCold is the uncached HTTP path: every job has a distinct cache key.
type serveCold struct {
	env    env
	n, k   int
	lo, hi int // supportCount range of the measured jobs

	dbs []*repro.Database
	f   *fleet
	gen *coldGen

	mu    sync.Mutex
	specs []jobSpec // every job issued, indexed by op.want

	hitsBefore int64 // cache hits after setup; a measured job must never add one
	bases      []*repro.Result
	outputs    []*repro.Result
}

func newServeCold(e env) *serveCold {
	w := &serveCold{env: e, n: 10000, k: 8, lo: 80, hi: 140}
	if e.smoke {
		w.n, w.k, w.lo, w.hi = 2000, 2, 40, 80
	}
	return w
}

func (w *serveCold) setUp(ctx context.Context) error {
	dbs, err := generate("t10", w.n, w.env.seed, w.k)
	if err != nil {
		return err
	}
	w.dbs = dbs
	if w.f, err = startFleet(ctx, w.env, "cold", dbs); err != nil {
		return err
	}
	// Pre-warm, at a support outside the measured range: one job per
	// representation (the daemon builds and spills each encoding once per
	// dataset) and one maximal job (loads the horizontal data).
	var warm []jobSpec
	cold := make([]coldDataset, len(dbs))
	for j, name := range w.f.names {
		for _, r := range []string{"auto", "sparse", "bitset", "roaring"} {
			warm = append(warm, jobSpec{Dataset: name, Representation: r, SupportCount: 2 * w.hi})
		}
		warm = append(warm, jobSpec{Dataset: name, Variant: "maximal", SupportCount: 2 * w.hi})
		cold[j] = coldDataset{name: name, top: topItems(dbs[j], 10), budget: w.f.mapped[j] / 4}
	}
	if err := w.f.runAll(ctx, warm); err != nil {
		return fmt.Errorf("pre-warm: %w", err)
	}
	w.gen = newColdGen(w.env.seed, cold, w.lo, w.hi)
	w.specs = nil
	s, err := w.f.d.stats(ctx)
	w.hitsBefore = s.Cache.Hits
	return err
}

func (w *serveCold) tearDown() {
	if w.f != nil {
		w.f.stop()
		w.f = nil
	}
}

// run is a closed loop of clientConns callers, each submitting its next
// job as soon as the previous result arrived, until the window closes or
// the generator runs out of distinct keys.
func (w *serveCold) run(ctx context.Context, _ int, window time.Duration, tr *tracer) []op {
	deadline := time.Now().Add(window)
	var mu sync.Mutex
	var ops []op
	var wg sync.WaitGroup
	for lane := 0; lane < clientConns; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) && ctx.Err() == nil {
				w.mu.Lock()
				spec, ok := w.gen.next()
				idx := len(w.specs)
				if ok {
					w.specs = append(w.specs, spec)
				}
				w.mu.Unlock()
				if !ok {
					return
				}
				now := time.Now()
				o := httpOp(ctx, w.f.d, spec, now, lane, idx, tr, &buf)
				mu.Lock()
				ops = append(ops, o)
				mu.Unlock()
			}
		}(lane)
	}
	wg.Wait()
	return ops
}

// check computes every job's expected output (see expected) and fails a
// job whose body differs, a budgeted job that did not run out-of-core, and
// the run if the cache served a hit.
func (w *serveCold) check(ctx context.Context, ops []op) (int, error) {
	if w.bases == nil {
		for _, d := range w.dbs {
			base, err := reference(ctx, d, w.lo)
			if err != nil {
				return 0, err
			}
			w.bases = append(w.bases, base)
		}
	}
	index := make(map[string]int, len(w.f.names))
	for j, name := range w.f.names {
		index[name] = j
	}
	failed := 0
	w.outputs = w.outputs[:0]
	for _, o := range ops {
		spec := w.specs[o.want]
		j := index[spec.Dataset]
		exp, err := expected(ctx, w.dbs[j], w.bases[j], spec)
		if err != nil {
			return 0, err
		}
		w.outputs = append(w.outputs, exp)
		if o.err != nil || o.fp != fingerprint(exp) || o.view.Cached || (spec.MemoryBudget > 0 && !o.view.OutOfCore) {
			failed++
		}
	}
	s, err := w.f.d.stats(ctx)
	if err != nil {
		return 0, err
	}
	if s.Cache.Hits != w.hitsBefore {
		fmt.Fprintf(w.env.log, "FAIL serve_cold: /statsz cache hits advanced by %d\n", s.Cache.Hits-w.hitsBefore)
		failed++
	}
	return failed, nil
}

func (w *serveCold) pid() int { return w.f.d.pid() }

func (w *serveCold) usage(ctx context.Context) (usage, error) { return w.f.d.usage(ctx) }

func (w *serveCold) counters(ctx context.Context) (map[string]float64, error) {
	return w.f.d.counters(ctx)
}

func (w *serveCold) layerInput() layerInput {
	return layerInput{
		db: w.dbs[0], minsup: (w.lo + w.hi) / 2, vertical: true, results: w.outputs,
		f: w.f, dataset: w.f.names[0], serviceSupport: 2*w.hi + 1,
	}
}

// hotKey is one of serve_hot's primed keys: a request at a support given
// as a share of |D|.
type hotKey struct {
	spec jobSpec
	pct  float64
}

// serveHot is the cache-hit path: an open loop of Poisson arrivals over
// keys primed in setup, so no request mines.
type serveHot struct {
	env   env
	n     int
	rate  float64
	scale float64 // multiplies every key's support share

	db   *repro.Database
	f    *fleet
	keys []jobSpec

	missesBefore int64 // cache misses after priming; a measured request must never add one
	base         *repro.Result
	outputs      []*repro.Result
}

func newServeHot(e env) *serveHot {
	w := &serveHot{env: e, n: 5000, rate: 50, scale: 1}
	if e.smoke {
		w.n, w.rate, w.scale = 1000, 25, 5
	}
	return w
}

// hotKeys are the primed keys in Zipf rank order (rank 0 is requested most
// often). The ranks are fixed so every seed sees the same mix: the median
// request falls well inside the mid-size results (ranks 0 and 5, ~5k
// itemsets) and the 90th percentile well inside the large ones (~70k).
// At these supports the result sizes vary little between seeds.
var hotKeys = []hotKey{
	{jobSpec{}, 0.8},                          // all/auto, mid-size
	{jobSpec{}, 0.2},                          // all/auto, large
	{jobSpec{TopK: 100}, 0.2},                 // top-k
	{jobSpec{Variant: "maximal"}, 0.2},        // maximal sets
	{jobSpec{Variant: "closed"}, 0.2},         // closed sets
	{jobSpec{Representation: "sparse"}, 0.8},  // another encoding, same bytes as rank 0
	{jobSpec{Representation: "roaring"}, 0.2}, // another encoding, same bytes as rank 1
	{jobSpec{}, 2},                            // small
}

func (w *serveHot) setUp(ctx context.Context) error {
	dbs, err := generate("hot", w.n, w.env.seed, 1)
	if err != nil {
		return err
	}
	w.db = dbs[0]
	if w.f, err = startFleet(ctx, w.env, "hot", dbs); err != nil {
		return err
	}
	w.keys = make([]jobSpec, len(hotKeys))
	for i, k := range hotKeys {
		w.keys[i] = k.spec
		w.keys[i].Dataset = w.f.names[0]
		w.keys[i].SupportCount = int(math.Ceil(w.scale * k.pct / 100 * float64(w.n)))
	}
	// Prime: the first round mines every key into the cache, the second
	// serves each once from it.
	if err := w.f.runAll(ctx, w.keys); err != nil {
		return fmt.Errorf("priming: %w", err)
	}
	if err := w.f.runAll(ctx, w.keys); err != nil {
		return fmt.Errorf("priming: %w", err)
	}
	s, err := w.f.d.stats(ctx)
	w.missesBefore = s.Cache.Misses
	return err
}

func (w *serveHot) tearDown() {
	if w.f != nil {
		w.f.stop()
		w.f = nil
	}
}

// run sends requests on a seeded Poisson schedule regardless of how fast
// replies come back, from clientConns senders; a request waiting for a
// free sender is late, and its latency counts from when it was due.
func (w *serveHot) run(ctx context.Context, pass int, window time.Duration, tr *tracer) []op {
	seed := w.env.seed*100 + int64(pass)
	sched := poissonSchedule(seed, w.rate, window)
	draws := zipfDeck(seed, 1.1, len(w.keys), len(sched))
	ch := make(chan int, len(sched))
	ops := make([]op, len(sched))
	start := time.Now()
	var wg sync.WaitGroup
	for lane := 0; lane < clientConns; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range ch {
				ops[i] = httpOp(ctx, w.f.d, w.keys[draws[i]], start.Add(sched[i]), lane, draws[i], tr, &buf)
			}
		}(lane)
	}
	for i, at := range sched {
		time.Sleep(time.Until(start.Add(at)))
		if ctx.Err() != nil {
			sched = sched[:i]
			break
		}
		ch <- i
	}
	close(ch)
	wg.Wait()
	return ops[:len(sched)]
}

// check compares every body with the key's expected output and fails the
// run if any request missed the cache.
func (w *serveHot) check(ctx context.Context, ops []op) (int, error) {
	if w.base == nil {
		lowest := w.keys[0].SupportCount
		for _, k := range w.keys {
			lowest = min(lowest, k.SupportCount)
		}
		base, err := reference(ctx, w.db, lowest)
		if err != nil {
			return 0, err
		}
		w.base = base
		for _, k := range w.keys {
			exp, err := expected(ctx, w.db, base, k)
			if err != nil {
				return 0, err
			}
			w.outputs = append(w.outputs, exp)
		}
	}
	want := make([]uint64, len(w.outputs))
	for i, r := range w.outputs {
		want[i] = fingerprint(r)
	}
	failed := 0
	for _, o := range ops {
		if o.err != nil || o.fp != want[o.want] || !o.view.Cached {
			failed++
		}
	}
	s, err := w.f.d.stats(ctx)
	if err != nil {
		return 0, err
	}
	if s.Cache.Misses != w.missesBefore {
		fmt.Fprintf(w.env.log, "FAIL serve_hot: /statsz cache misses advanced by %d\n", s.Cache.Misses-w.missesBefore)
		failed++
	}
	return failed, nil
}

func (w *serveHot) pid() int { return w.f.d.pid() }

func (w *serveHot) usage(ctx context.Context) (usage, error) { return w.f.d.usage(ctx) }

func (w *serveHot) counters(ctx context.Context) (map[string]float64, error) {
	return w.f.d.counters(ctx)
}

func (w *serveHot) layerInput() layerInput {
	return layerInput{
		db: w.db, minsup: w.keys[1].SupportCount, vertical: true, results: w.outputs,
		f: w.f, dataset: w.f.names[0],
		serviceSupport: 4 * w.keys[len(w.keys)-1].SupportCount,
	}
}
