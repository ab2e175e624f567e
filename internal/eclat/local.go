package eclat

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/eqclass"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/obsv"
)

// Shared-memory parallel mining metrics. Steals are counted once per
// event (cheap); per-worker busy time is observed once per worker at run
// end. Classes go to eclat_classes_total, as on the sequential driver.
const (
	mnSteals       = "eclat_steals_total"
	mnWorkerBusyNS = "eclat_worker_busy_ns"
)

var (
	mSteals       = obsv.Default.Counter(mnSteals, "work-stealing transfers between MineParallelLocal workers")
	mWorkerBusyNS = obsv.Default.Histogram(mnWorkerBusyNS, "per-worker busy nanoseconds of MineParallelLocal runs",
		[]int64{1_000_000, 10_000_000, 100_000_000, 1_000_000_000, 10_000_000_000})
)

// classTask is one unit of stealable work: a top-level equivalence class,
// tagged with its C(s,2) weight so victims can be ranked by the work they
// still hold.
type classTask struct {
	ci     int   // index into the vertical's class slice
	weight int64 // eqclass weight, ≥ 1 so deque weights stay positive
}

// wsDeque is one worker's class queue. The owner pops from the front;
// thieves steal a batch from the back, where the lighter classes sit
// (deques are seeded heaviest-first), so a steal rebalances without
// taking the victim's next — likely heaviest — task out from under it.
//
// A plain mutex is deliberate: the unit of work is an entire equivalence
// class (milliseconds to seconds), so deque operations are nowhere near
// the contention regime that justifies a lock-free Chase-Lev deque.
type wsDeque struct {
	mu     sync.Mutex
	tasks  []classTask
	weight int64 // sum of queued task weights, guarded by mu
}

// popFront removes the owner's next task.
func (q *wsDeque) popFront() (classTask, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.tasks) == 0 {
		return classTask{}, false
	}
	t := q.tasks[0]
	q.tasks = q.tasks[1:]
	q.weight -= t.weight
	return t, true
}

// queuedWeight is the victim-ranking key (racy reads are fine: stealing
// only needs a heuristic ranking, and the transfer itself re-checks under
// both locks).
func (q *wsDeque) queuedWeight() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.weight
}

// stealInto moves the back half (rounded up) of q into dst. Both locks
// are held for the transfer, in deque-index order to rule out deadlock
// between symmetric thieves, so queued classes are never in limbo: any
// moment an observer takes a deque's lock, every unmined class is in
// exactly one deque. Returns the number of classes moved.
func (q *wsDeque) stealInto(dst *wsDeque, qi, dsti int) int {
	first, second := q, dst
	if dsti < qi {
		first, second = dst, q
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	second.mu.Lock()
	defer second.mu.Unlock()

	n := (len(q.tasks) + 1) / 2
	if n == 0 {
		return 0
	}
	cut := len(q.tasks) - n
	var moved int64
	for _, t := range q.tasks[cut:] {
		moved += t.weight
	}
	dst.tasks = append(dst.tasks, q.tasks[cut:]...)
	dst.weight += moved
	q.tasks = q.tasks[:cut]
	q.weight -= moved
	return n
}

// MineParallelLocal mines horizontal data on this host — the paper's
// asynchronous phase (section 5.3) mapped onto a multicore host instead
// of the simulated cluster. Initialization (one scan counting L1 and, in
// the triangular array, L2) and transformation (a second scan building
// the per-pair tid-lists) run once on the calling goroutine; the
// top-level equivalence classes are then mined under opts.Policy on
// opts.Workers goroutines. PolicyCharm scans once for per-item tid-lists
// instead: its search starts from the frequent singletons.
//
// Above one worker the classes are dealt to per-worker deques by the
// greedy C(s,2) weight schedule (section 5.2.1) and mined with work
// stealing: an idle worker takes the back half of the queue of the
// victim holding the most queued weight, so one skewed class cannot
// serialize the run the way it can under the paper's static schedule.
// The result is byte-identical at every worker count: each class is
// mined single-threaded into its own slot, slots are concatenated in
// class-index order (the sequential mining order), and the final
// reduction is order-independent.
//
// On context cancellation every worker drains, the partial result is
// discarded and ctx.Err() is returned; no goroutines outlive the call.
func MineParallelLocal(ctx context.Context, d *db.Database, minsup int, opts Options) (*mining.Result, Stats, error) {
	return mineLocal(ctx, minsup, opts, &arena{}, horizontalBuild(ctx, d))
}

// horizontalBuild returns MineParallelLocal's build step (see mineLocal).
func horizontalBuild(ctx context.Context, d *db.Database) func(int, Options, *Stats) *vertical {
	return func(minsup int, opts Options, st *Stats) *vertical {
		if opts.Policy == PolicyCharm {
			return buildVerticalItems(d, minsup, st)
		}
		return buildVertical(ctx, d, minsup, st, opts)
	}
}

// mineLocal is the one mining core behind both local entry points. It
// normalizes the options once — minsup at least 1, workers resolved
// (≤ 0 means GOMAXPROCS), TopK and MustContain cleared for every policy
// but PolicyAll, the only output contract their pruning is sound
// against — then builds the run's vertical through build, mines every
// class with the sequential driver at one worker (on scratch arena ar;
// nil is the heap fallback the allocation ablation measures) or the
// work-stealing driver above, and ends with the final reduction.
func mineLocal(ctx context.Context, minsup int, opts Options, ar *arena, build func(minsup int, opts Options, st *Stats) *vertical) (*mining.Result, Stats, error) {
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
	v := build(minsup, opts, &st)
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	eng := newEngine(v, minsup, opts)
	if err := eng.run(ctx, &st, ar); err != nil {
		return nil, st, err
	}
	return eng.finish(ctx, &st), st, nil
}

// runParallel is the engine's work-stealing driver, shared by every
// policy and entry point that mines with Workers > 1: deal the top-level
// classes to per-worker deques, mine with stealing, then append the
// per-class outputs to e.v.res in class-index order (the sequential
// mining order), so the bytes match the sequential driver regardless of
// which worker mined what. Worker counters are folded into st;
// st.Steals is overwritten with the run's steal count.
func (e *engine) runParallel(ctx context.Context, st *Stats) error {
	tr := obsv.TraceFrom(ctx)
	sp := tr.Start("asynchronous")
	v := e.v
	workers := e.opts.Workers

	// Deal classes to deques with the greedy weighted schedule, then order
	// each deque heaviest-first so owners start on the big classes while
	// thieves nibble the light tail. Under a residency budget both rules
	// flip: the classes are already in bundle-locality order, so each
	// worker takes one contiguous span (balanced by the same weights) and
	// keeps it in order — sequential segment traversal beats
	// heaviest-first when pages are the scarce resource.
	deques := make([]*wsDeque, workers)
	for w := range deques {
		deques[w] = &wsDeque{}
	}
	if v.budgeted() {
		for w, span := range spanSchedule(v.classes, workers) {
			q := deques[w]
			for _, ci := range span {
				q.tasks = append(q.tasks, classTask{ci: ci, weight: v.classes[ci].Weight() + 1})
				q.weight += q.tasks[len(q.tasks)-1].weight
			}
		}
	} else {
		sched := eqclass.Schedule(v.classes, workers)
		for w := 0; w < workers; w++ {
			q := deques[w]
			for _, ci := range sched.ClassesOf(w) {
				q.tasks = append(q.tasks, classTask{ci: ci, weight: v.classes[ci].Weight() + 1})
				q.weight += q.tasks[len(q.tasks)-1].weight
			}
			sort.SliceStable(q.tasks, func(i, j int) bool { return q.tasks[i].weight > q.tasks[j].weight })
		}
	}

	// classOut[ci] receives class ci's itemsets; only the worker that
	// popped ci writes the slot, so no lock is needed.
	classOut := make([][]mining.FrequentItemset, len(v.classes))
	workerStats := make([]Stats, workers)
	var steals atomic.Int64

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			start := time.Now()
			defer func() { mWorkerBusyNS.Observe(time.Since(start).Nanoseconds()) }()

			wst := &workerStats[self]
			var prev Stats
			wk := &worker{st: wst, opts: e.opts, th: e.th, ar: &arena{}}
			var acc []mining.FrequentItemset
			emit := e.wrapEmit(func(set itemset.Itemset, sup int) {
				acc = append(acc, mining.FrequentItemset{Set: set, Support: sup})
			})

			mine := func(t classTask) {
				acc = acc[:0]
				mark := wk.ar.mark()
				v.acquire(t.ci)
				wk.explore(ctx, v.members(t.ci, e.opts.Representation, wst, wk.ar), emit)
				v.release(t.ci)
				wk.ar.release(mark)
				out := make([]mining.FrequentItemset, len(acc))
				copy(out, acc)
				classOut[t.ci] = out
				flushStats(&prev, wst)
				mClasses.Inc()
			}

			for ctx.Err() == nil {
				if t, ok := deques[self].popFront(); ok {
					mine(t)
					continue
				}
				// Own deque empty: pick the victim with the most queued
				// weight and take the back half of its queue.
				victim, best := -1, int64(0)
				for i, q := range deques {
					if i == self {
						continue
					}
					if w := q.queuedWeight(); w > best {
						victim, best = i, w
					}
				}
				if victim < 0 {
					return // every deque empty: no class left unowned
				}
				if n := deques[victim].stealInto(deques[self], victim, self); n > 0 {
					steals.Add(1)
					mSteals.Inc()
				}
				// A failed steal (the victim drained between the scan and
				// the transfer) just rescans; the loop terminates because
				// the top-level class set is fixed and never grows.
			}
		}(w)
	}
	wg.Wait()
	sp.End()

	for w := range workerStats {
		st.merge(&workerStats[w])
	}
	st.Steals = steals.Load()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, out := range classOut {
		v.res.Itemsets = append(v.res.Itemsets, out...)
	}
	return nil
}
