package eclat

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/eqclass"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/obsv"
)

// Top-k and targeted-query metrics (see /metricsz). Raises are published
// once per run (the heap keeps a run-local count); skipped classes are
// counted where the class list is pruned, which happens once per run too.
const (
	mnTopKRaises      = "eclat_topk_raises_total"
	mnTargetedSkipped = "eclat_targeted_classes_skipped_total"
)

var (
	mTopKRaises      = obsv.Default.Counter(mnTopKRaises, "effective minimum-support raises performed by the top-k support heap")
	mTargetedSkipped = obsv.Default.Counter(mnTargetedSkipped, "equivalence classes skipped because their prefix cannot contain the targeted items")
)

// Emitter receives one frequent itemset with its exact support. The
// engine owns delivery order: single-goroutine, deterministic (class-index
// order under every worker count).
type Emitter func(itemset.Itemset, int)

// supportHeap is the concurrent top-k pruning hook: a bounded min-heap of
// the k largest supports emitted so far. Once full, its minimum is the
// kth-largest support seen, which is a lower bound on nothing and an
// *upper-bounded* estimate of the true kth-largest overall support s_k
// (adding elements can only raise the kth largest), so mining may prune
// any branch whose support falls strictly below it without losing a
// top-k itemset — ties at the threshold always survive.
type supportHeap struct {
	mu sync.Mutex
	k  int
	h  []int // min-heap of the k largest supports seen (with duplicates)
	// eff is the current effective threshold (0 until the heap fills),
	// readable without the lock on the hot path.
	eff    atomic.Int64
	raises atomic.Int64
}

func newSupportHeap(k int) *supportHeap { return &supportHeap{k: k} }

// offer records one emitted support. Safe for concurrent use; the
// lock-free fast path rejects supports that can neither enter the heap
// nor raise its minimum.
func (sh *supportHeap) offer(sup int) {
	if eff := sh.eff.Load(); eff > 0 && int64(sup) <= eff {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.h) < sh.k {
		sh.h = append(sh.h, sup)
		for i := len(sh.h) - 1; i > 0; {
			parent := (i - 1) / 2
			if sh.h[parent] <= sh.h[i] {
				break
			}
			sh.h[parent], sh.h[i] = sh.h[i], sh.h[parent]
			i = parent
		}
		if len(sh.h) == sh.k {
			sh.eff.Store(int64(sh.h[0]))
			sh.raises.Add(1)
		}
		return
	}
	if sup <= sh.h[0] {
		return
	}
	sh.h[0] = sup
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(sh.h) && sh.h[l] < sh.h[smallest] {
			smallest = l
		}
		if r < len(sh.h) && sh.h[r] < sh.h[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		sh.h[i], sh.h[smallest] = sh.h[smallest], sh.h[i]
		i = smallest
	}
	if m := int64(sh.h[0]); m > sh.eff.Load() {
		sh.eff.Store(m)
		sh.raises.Add(1)
	}
}

// threshold is the pruning bound the class recursion mines against: a
// fixed floor (the caller's minsup) possibly raised at runtime by a
// top-k support heap. With a nil heap, current() is a constant — the
// pre-engine behaviour, byte- and counter-identical.
type threshold struct {
	floor int
	heap  *supportHeap
}

func fixedThreshold(minsup int) *threshold { return &threshold{floor: minsup} }

// current returns the effective minimum support right now. It is read
// once per sub-class (i-iteration or recursion entry), never inside the
// intersection inner loop.
func (t *threshold) current() int {
	if t.heap == nil {
		return t.floor
	}
	if e := int(t.heap.eff.Load()); e > t.floor {
		return e
	}
	return t.floor
}

// worker bundles the per-goroutine mining state every policy explores
// with: the run (or worker-local) Stats, the run options, the shared
// threshold and a scratch arena.
type worker struct {
	st   *Stats
	opts Options
	th   *threshold
	ar   *arena
}

// explore mines one class's members under the run's policy, emitting
// every (itemset, support) its search produces; the final reduction
// turns the emissions into the policy's output.
func (w *worker) explore(ctx context.Context, members []member, emit Emitter) {
	switch w.opts.Policy {
	case PolicyMaximal:
		computeMaximal(ctx, members, w.th, w.st, w.ar, emit)
	case PolicyCharm:
		charmExplore(ctx, members, w.th.current(), w.st, emit)
	case PolicyDiffsets:
		for i := 0; i < len(members)-1; i++ {
			if ctx.Err() != nil {
				return
			}
			diffTransition(ctx, members, i, w.th, w.st, w.ar, emit)
		}
	default: // PolicyAll, PolicyClosed
		computeFrequent(ctx, members, w.th, w.st, w.opts, w.ar, emit)
	}
}

// engine is the class-task engine every entry point runs on: it owns
// class iteration, emit filtering (targeted queries), top-k threshold
// raising, per-class stats flushing, ctx checks, and — under
// Workers > 1 — the work-stealing deques with the deterministic
// class-index-order merge.
type engine struct {
	v    *vertical
	th   *threshold
	opts Options
	must []itemset.Item // canonical (sorted, deduped) MustContain
}

func newEngine(v *vertical, minsup int, opts Options) *engine {
	th := fixedThreshold(minsup)
	if opts.TopK > 0 {
		th = &threshold{floor: minsup, heap: newSupportHeap(opts.TopK)}
	}
	return &engine{v: v, th: th, opts: opts, must: canonMust(opts.MustContain)}
}

// wrapEmit layers the engine's emit hooks under a sink: the targeted
// containment filter first (only matching itemsets reach the output or
// the heap), then the top-k support offer.
func (e *engine) wrapEmit(sink Emitter) Emitter {
	emit := sink
	if len(e.must) > 0 {
		must, inner := e.must, emit
		emit = func(set itemset.Itemset, sup int) {
			if containsAll(set, must) {
				inner(set, sup)
			}
		}
	}
	if e.th.heap != nil {
		heap, inner := e.th.heap, emit
		emit = func(set itemset.Itemset, sup int) {
			heap.offer(sup)
			inner(set, sup)
		}
	}
	return emit
}

// run mines every class of e.v on opts.Workers goroutines, appending the
// emissions to e.v.res in class-index order (the sequential mining
// order) regardless of worker count. ar is the sequential driver's
// scratch arena (parallel workers own their own).
func (e *engine) run(ctx context.Context, st *Stats, ar *arena) error {
	if e.th.heap != nil {
		// Seed the heap with the already-known L1/L2 supports so the
		// effective threshold starts rising before the first class.
		for _, f := range e.v.res.Itemsets {
			e.th.heap.offer(f.Support)
		}
	}
	if e.opts.Workers > 1 {
		return e.runParallel(ctx, st)
	}
	return e.runSequential(ctx, st, ar)
}

// runSequential is the single-goroutine driver: mine class by class,
// flushing the intersection counters to the metrics registry at class
// granularity.
func (e *engine) runSequential(ctx context.Context, st *Stats, ar *arena) error {
	tr := obsv.TraceFrom(ctx)
	sp := tr.Start("asynchronous")
	w := &worker{st: st, opts: e.opts, th: e.th, ar: ar}
	emit := e.wrapEmit(e.v.res.Add)
	for ci := range e.v.classes {
		if err := ctx.Err(); err != nil {
			return err
		}
		before := *st
		mark := ar.mark()
		e.v.acquire(ci)
		w.explore(ctx, e.v.members(ci, e.opts.Representation, st, ar), emit)
		e.v.release(ci)
		ar.release(mark)
		flushStats(&before, st)
		mClasses.Inc()
	}
	sp.End()
	return ctx.Err()
}

// finish is a local run's final reduction (§5.4), traced as its own
// "reduction" phase after the asynchronous one: the run's closing
// figures land in st and reduce shapes the collection into the policy's
// output.
func (e *engine) finish(ctx context.Context, st *Stats) *mining.Result {
	sp := obsv.TraceFrom(ctx).Start("reduction")
	defer sp.End()
	st.Candidates = len(e.v.res.Itemsets)
	st.EffectiveMinSup = e.th.current()
	if e.th.heap != nil {
		mTopKRaises.Add(e.th.heap.raises.Load())
	}
	return reduce(e.v.res, e.opts.Policy, e.opts.TopK)
}

// reduce shapes a run's collection — the seeded L1/L2 plus every
// emission — into the policy's output, for the local and the
// simulated-cluster entry points alike: the global subsumption filter
// for PolicyMaximal (local filtering cannot be final: a set from one
// class can be subsumed by a set from another), the closure filter for
// PolicyClosed, then the canonical sort and, under top-k, the
// support-ordered truncation. Both filters are independent of the
// collection's order, which is what makes the output byte-identical at
// every worker count and cluster shape.
func reduce(res *mining.Result, policy Policy, topK int) *mining.Result {
	switch policy {
	case PolicyMaximal:
		res.Itemsets = filterMaximal(res.Itemsets)
	case PolicyClosed:
		res.Itemsets = closedFilter(res.Itemsets)
	}
	res.Sort()
	res.TruncateTopK(topK)
	return res
}

// canonMust returns the canonical targeted-item list: sorted ascending,
// deduplicated, nil when empty.
func canonMust(must []itemset.Item) []itemset.Item {
	if len(must) == 0 {
		return nil
	}
	out := append([]itemset.Item(nil), must...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	n := 0
	for i, it := range out {
		if i == 0 || it != out[n-1] {
			out[n] = it
			n++
		}
	}
	return out[:n]
}

// containsAll reports whether set contains every item of must (both
// sorted ascending; a merge walk).
func containsAll(set itemset.Itemset, must []itemset.Item) bool {
	i := 0
	for _, it := range set {
		if i == len(must) {
			return true
		}
		if it == must[i] {
			i++
		} else if it > must[i] {
			return false
		}
	}
	return i == len(must)
}

// classCanContain reports whether the sub-lattice rooted at an L2
// equivalence class can produce an itemset containing every targeted
// item: every itemset derivable from the class is a subset of the class
// prefix plus its members' last items.
func classCanContain(c *eqclass.Class, must []itemset.Item) bool {
	for _, x := range must {
		ok := false
		for _, p := range c.Prefix {
			if p == x {
				ok = true
				break
			}
		}
		if !ok {
			for _, m := range c.Members {
				if m[len(m)-1] == x {
					ok = true
					break
				}
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// filterClasses prunes the classes a targeted query can never satisfy,
// counting the skips. It returns classes unchanged when must is empty.
func filterClasses(classes []eqclass.Class, must []itemset.Item) []eqclass.Class {
	if len(must) == 0 {
		return classes
	}
	kept := classes[:0]
	skipped := 0
	for i := range classes {
		if classCanContain(&classes[i], must) {
			kept = append(kept, classes[i])
		} else {
			skipped++
		}
	}
	if skipped > 0 {
		mTargetedSkipped.Add(int64(skipped))
	}
	return kept
}
