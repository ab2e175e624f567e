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

// Local mining metrics. Steals are counted once per event (cheap);
// per-worker busy time is observed once per worker at run end. Classes
// go to eclat_classes_total.
const (
	mnSteals       = "eclat_steals_total"
	mnWorkerBusyNS = "eclat_worker_busy_ns"
)

var (
	mSteals       = obsv.Default.Counter(mnSteals, "work-stealing transfers between the workers of local mines")
	mWorkerBusyNS = obsv.Default.Histogram(mnWorkerBusyNS, "per-worker busy nanoseconds of local mines",
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
	mu sync.Mutex
	// tasks[head:] are queued; the popped front stays in place, so the
	// storage keeps its capacity for the next run.
	tasks  []classTask
	head   int
	weight int64 // sum of queued task weights, guarded by mu
}

// popFront removes the owner's next task.
func (q *wsDeque) popFront() (classTask, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.tasks) {
		return classTask{}, false
	}
	t := q.tasks[q.head]
	q.head++
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

	n := (len(q.tasks) - q.head + 1) / 2
	if n == 0 {
		return 0
	}
	cut := len(q.tasks) - n
	var moved int64
	for _, t := range q.tasks[cut:] {
		moved += t.weight
	}
	if dst.head == len(dst.tasks) {
		dst.tasks, dst.head = dst.tasks[:0], 0
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
// the tid-lists of the items the classes read) run once on the calling
// goroutine; the top-level equivalence classes are then mined under
// opts.Policy on opts.Workers goroutines.
//
// The classes are dealt to per-worker deques by the greedy C(s,2)
// weight schedule (section 5.2.1) and mined with work stealing: an idle
// worker takes the back half of the queue of the victim holding the
// most queued weight, so one skewed class cannot serialize the run the
// way it can under the paper's static schedule. The result is
// byte-identical at every worker count: the classes partition the
// itemset space by prefix, each class is mined single-threaded by one
// worker, which sorts its emissions, and one merge of those runs with
// the seeded L1/L2 puts the collection in canonical order.
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
// class with the work-stealing driver and ends with the final
// reduction. The run's scratch comes from runPool and goes back once
// the reduction is done, or the run is cut short.
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
// worker count: deal the top-level classes to per-worker deques and mine
// them with stealing, each worker appending its emissions to its own
// buffer in rs, sorting each class's emissions, its run, once the class
// is done, and recording the run's offsets in rs.runs. Worker counters
// are folded into st; st.Steals is overwritten with the run's steal
// count.
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

	// Deal classes to deques with the greedy weighted schedule, then order
	// each deque heaviest-first so owners start on the big classes while
	// thieves nibble the light tail. Under a residency budget both rules
	// flip: the classes are already in bundle-locality order, so each
	// worker takes one contiguous span (balanced by the same weights) and
	// keeps it in order — sequential segment traversal beats
	// heaviest-first when pages are the scarce resource.
	if v.budgeted() {
		for w, span := range spanSchedule(v.classes, len(workers)) {
			q := &workers[w].q
			for _, ci := range span {
				q.tasks = append(q.tasks, classTask{ci: ci, weight: v.classes[ci].Weight() + 1})
				q.weight += q.tasks[len(q.tasks)-1].weight
			}
		}
	} else {
		for ci, w := range eqclass.Schedule(v.classes, len(workers)).Owner {
			q := &workers[w].q
			q.tasks = append(q.tasks, classTask{ci: ci, weight: v.classes[ci].Weight() + 1})
			q.weight += q.tasks[len(q.tasks)-1].weight
		}
		for _, ws := range workers {
			slices.SortStableFunc(ws.q.tasks, func(a, b classTask) int { return cmp.Compare(b.weight, a.weight) })
		}
	}

	workerStats := make([]Stats, len(workers))
	var steals atomic.Int64

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

			mine := func(t classTask) {
				mark := wk.ar.mark()
				lo := len(ws.out)
				v.acquire(t.ci)
				sup, prefix := v.prefix(t.ci)
				wk.explore(ctx, v.sets.classMembers(&v.classes[t.ci], e.opts.Representation, wst, wk.ar), sup, prefix, emit)
				v.release(t.ci)
				wk.ar.release(mark)
				slices.SortFunc(ws.out[lo:], mining.Compare)
				rs.runs[t.ci] = classRun{item: v.classes[t.ci].Prefix[0], w: int32(self), lo: lo, hi: len(ws.out)}
				flushStats(&prev, wst)
				mClasses.Inc()
			}

			for ctx.Err() == nil {
				if t, ok := ws.q.popFront(); ok {
					mine(t)
					continue
				}
				// Own deque empty: pick the victim with the most queued
				// weight and take the back half of its queue.
				victim, best := -1, int64(0)
				for i, o := range workers {
					if i == self {
						continue
					}
					if w := o.q.queuedWeight(); w > best {
						victim, best = i, w
					}
				}
				if victim < 0 {
					break // every deque empty: no class left unowned
				}
				if n := workers[victim].q.stealInto(&ws.q, victim, self); n > 0 {
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
	return ctx.Err()
}
