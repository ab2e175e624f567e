package eclat

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/eqclass"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/obsv"
)

// Local mining metrics. Per-worker busy time is observed once per
// worker at run end; classes go to eclat_classes_total.
const mnWorkerBusyNS = "eclat_worker_busy_ns"

var mWorkerBusyNS = obsv.Default.Histogram(mnWorkerBusyNS, "per-worker busy nanoseconds of local mines",
	[]int64{1_000_000, 10_000_000, 100_000_000, 1_000_000_000, 10_000_000_000})

// MineParallelLocal mines horizontal data on this host — the paper's
// asynchronous phase (section 5.3) mapped onto a multicore host instead
// of the simulated cluster. Initialization (one scan counting L1 and, in
// the triangular array, L2) and transformation (a second scan building
// the tid-lists of the items the classes read) run once on the calling
// goroutine; the top-level equivalence classes are then mined under
// opts.Policy on opts.Workers goroutines.
//
// The classes form one queue, heaviest first by their C(s,2) weight
// (section 5.2.1), and every worker takes the next class from one shared
// cursor, so one skewed class cannot serialize the run the way it can
// under the paper's static deal. The result is byte-identical at every
// worker count: the classes partition the itemset space by prefix, each
// class is mined single-threaded by one worker, which sorts its
// emissions, and one merge of those runs with the seeded L1/L2 puts the
// collection in canonical order.
//
// On context cancellation every worker drains, the partial result is
// discarded and ctx.Err() is returned; no goroutines outlive the call.
func MineParallelLocal(ctx context.Context, d *db.Database, minsup int, opts Options) (*mining.Result, Stats, error) {
	return mineLocal(ctx, minsup, opts, func(minsup int, opts Options, st *Stats, rs *runScratch) *vertical {
		return rs.buildVertical(ctx, d, minsup, st, opts)
	})
}

// mineLocal is the one mining core behind both local entry points. It
// normalizes the options once — minsup at least 1, workers resolved
// (≤ 0 means GOMAXPROCS), TopK and MustContain cleared for every policy
// but PolicyAll, the only output contract their pruning is sound
// against — then builds the run's vertical through build, mines every
// class from the shared class queue and ends with the final reduction.
// The run's scratch comes from runPool and goes back once the reduction
// is done, or the run is cut short.
func mineLocal(ctx context.Context, minsup int, opts Options, build func(minsup int, opts Options, st *Stats, rs *runScratch) *vertical) (*mining.Result, Stats, error) {
	if minsup < 1 {
		minsup = 1
	}
	if opts.Policy != PolicyAll {
		opts.TopK, opts.MustContain = 0, nil
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	st := Stats{Workers: opts.Workers}
	rs := runPool.Get().(*runScratch)
	defer rs.release()
	v := build(minsup, opts, &st, rs)
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	eng := newEngine(v, minsup, opts)
	if err := eng.run(ctx, &st, rs); err != nil {
		return nil, st, err
	}
	return eng.finish(ctx, &st, rs), st, nil
}

// run is the engine's one driver, for every policy, entry point and
// worker count: order the top-level classes once, then let every worker
// take the next class index from one shared cursor, appending its
// emissions to its own buffer in rs, sorting each class's emissions, its
// run, once the class is done, and recording the run's offsets in
// rs.runs. One atomic Add hands out each index, so every class is mined
// exactly once. Worker counters are folded into st.
func (e *engine) run(ctx context.Context, st *Stats, rs *runScratch) error {
	v := e.v
	if e.th.heap != nil {
		// Seed the heap with the already-known L1/L2 supports so the
		// effective threshold starts rising before the first class.
		e.seeded(func(_ itemset.Itemset, sup int) { e.th.heap.offer(sup) })
	}
	tr := obsv.TraceFrom(ctx)
	sp := tr.Start("asynchronous")
	workers := rs.forWorkers(e.opts.Workers)
	rs.runs = grow(rs.runs, len(v.classes))

	// Heaviest first, ties in class order, so the long classes start
	// early and the light tail fills the workers' gaps. Under a residency
	// budget the classes keep their bundle-locality order, so the classes
	// in flight at any moment are neighbours in segment order: sequential
	// segment traversal beats heaviest-first when pages are the scarce
	// resource.
	if !v.budgeted() {
		slices.SortStableFunc(v.classes, func(a, b eqclass.Class) int { return cmp.Compare(b.Weight(), a.Weight()) })
	}

	workerStats := make([]Stats, len(workers))
	var next atomic.Int64

	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			start := time.Now()
			defer func() { mWorkerBusyNS.Observe(time.Since(start).Nanoseconds()) }()

			ws, wst := workers[self], &workerStats[self]
			var prev Stats
			wk := &worker{st: wst, opts: e.opts, th: e.th, ar: &ws.ar, cs: &ws.cs, rows: v.rows}
			emit := e.wrapEmit(func(set itemset.Itemset, sup int) {
				ws.out = append(ws.out, mining.FrequentItemset{Set: set, Support: sup})
			})

			for ctx.Err() == nil {
				ci := int(next.Add(1) - 1)
				if ci >= len(v.classes) {
					break
				}
				mark := wk.ar.mark()
				lo := len(ws.out)
				v.acquire(ci)
				sup, prefix := v.prefix(ci)
				wk.explore(ctx, v.sets.classMembers(&v.classes[ci], e.opts.Representation, wst, wk.ar), sup, prefix, emit)
				v.release(ci)
				wk.ar.release(mark)
				slices.SortFunc(ws.out[lo:], mining.Compare)
				rs.runs[ci] = classRun{item: v.classes[ci].Prefix[0], w: int32(self), lo: lo, hi: len(ws.out)}
				flushStats(&prev, wst)
				mClasses.Inc()
			}
		}(w)
	}
	wg.Wait()
	sp.End()

	for w := range workerStats {
		st.merge(&workerStats[w])
	}
	return ctx.Err()
}
