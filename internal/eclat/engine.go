package eclat

import (
	"cmp"
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/eqclass"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/obsv"
	"repro/internal/tidlist"
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

// Emitter receives one frequent itemset with its exact support. Each
// worker calls its own emitter on its own goroutine, in the order it
// mines its classes; each class's emissions are sorted once the class
// is done, and one merge of those runs puts the collection in canonical
// order, so the output is independent of the order the classes ran in.
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
// threshold, a scratch arena, the counting scratch that lets
// computeFrequent count a class's member pairs, and the run's rows that
// feed those counts when it kept them. The local engine gives every
// worker counting scratch; the simulated cluster's workers have none and
// keep figure 3's joins, whose kernel counters they bill as virtual
// time.
type worker struct {
	st   *Stats
	opts Options
	th   *threshold
	ar   *arena
	cs   *countScratch
	rows *txRows
}

// explore mines one class's members under the run's policy, emitting
// every (itemset, support) its search produces; the final reduction
// turns the emissions into the policy's output. prefixSup is the
// support of the class prefix (0 when unknown), which prices the
// class's counted expansion, and prefix its tid-set, which feeds that
// count from the worker's rows (nil without rows).
func (w *worker) explore(ctx context.Context, members []member, prefixSup int, prefix tidlist.Set, emit Emitter) {
	if w.opts.Policy == PolicyMaximal {
		computeMaximal(ctx, members, w.th, w.st, w.ar, emit)
		return
	}
	w.computeFrequent(ctx, members, prefixSup, prefix, emit) // PolicyAll, PolicyClosed
}

// engine is the class-task engine both local entry points run on: it
// owns class iteration on the work-stealing deques, emit filtering
// (targeted queries), top-k threshold raising, per-class stats flushing
// and ctx checks.
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

// holds reports whether the result holds the seeded L1 or L2 itemset
// set: every one does, or under a targeted query those holding every
// targeted item.
func (e *engine) holds(set itemset.Itemset) bool {
	return len(e.must) == 0 || containsAll(set, e.must)
}

// seeded calls f with each seeded itemset the result holds.
func (e *engine) seeded(f func(set itemset.Itemset, sup int)) {
	for i, set := range e.v.seeds {
		if e.holds(set) {
			f(set, e.v.sups[i])
		}
	}
}

// finish is a local run's final reduction (§5.4), traced as its own
// "reduction" phase after the asynchronous one: merge gathers the
// collection, the run's closing figures land in st, and reduce shapes
// the collection into the policy's output.
func (e *engine) finish(ctx context.Context, st *Stats, rs *runScratch) *mining.Result {
	sp := obsv.TraceFrom(ctx).Start("reduction")
	defer sp.End()
	e.v.res.Itemsets = e.merge(rs)
	st.Candidates = len(e.v.res.Itemsets)
	st.EffectiveMinSup = e.th.current()
	if e.th.heap != nil {
		mTopKRaises.Add(e.th.heap.raises.Load())
	}
	return reduce(e.v.res, e.opts.Policy, e.opts.TopK)
}

// merge returns the run's collection — the seeds the result holds and
// every class's run in rs — in canonical order, in one slice of its
// exact length (nil when empty): for each L1 item a, {a}, then a's L2
// seeds merged with the run of the class prefixed by a. Classes
// partition the longer itemsets by their first item, so this one linear
// pass orders the collection whatever order the schedule, or a budget's
// locality order, mined the classes in. A maximal class can re-emit an
// L2 seed; the merge puts the two side by side, the seed first. It
// reorders rs.runs by prefix.
func (e *engine) merge(rs *runScratch) []mining.FrequentItemset {
	workers := rs.workers[:e.opts.Workers]
	n := 0
	e.seeded(func(itemset.Itemset, int) { n++ })
	for _, ws := range workers {
		n += len(ws.out)
	}
	if n == 0 {
		return nil
	}
	dst := make([]mining.FrequentItemset, 0, n)
	runs := rs.runs
	slices.SortFunc(runs, func(a, b classRun) int { return cmp.Compare(a.item, b.item) })
	seeds, sups := e.v.seeds, e.v.sups
	n1 := 0
	for n1 < len(seeds) && len(seeds[n1]) == 1 {
		n1++
	}
	l2 := n1
	for i, set := range seeds[:n1] {
		a := set[0]
		if e.holds(set) {
			dst = append(dst, mining.FrequentItemset{Set: set, Support: sups[i]})
		}
		var run []mining.FrequentItemset
		if len(runs) > 0 && runs[0].item == a {
			r := runs[0]
			run, runs = workers[r.w].out[r.lo:r.hi], runs[1:]
		}
		for ; l2 < len(seeds) && seeds[l2][0] == a; l2++ {
			if !e.holds(seeds[l2]) {
				continue
			}
			for len(run) > 0 && itemset.Compare(run[0].Set, seeds[l2]) < 0 {
				dst, run = append(dst, run[0]), run[1:]
			}
			dst = append(dst, mining.FrequentItemset{Set: seeds[l2], Support: sups[l2]})
		}
		dst = append(dst, run...)
	}
	return dst
}

// reduce shapes a local run's collection — the seeded L1/L2 and every
// emission, in canonical order — into the policy's output: the global
// subsumption filter for PolicyMaximal (local filtering cannot be
// final: a set from one class can be subsumed by a set from another),
// the closure filter for PolicyClosed and, under top-k, the
// support-ordered truncation. Both filters keep the order they are
// handed, so nothing sorts after them, and the output is byte-identical
// at every worker count.
func reduce(res *mining.Result, policy Policy, topK int) *mining.Result {
	switch policy {
	case PolicyMaximal:
		res.Itemsets = filterMaximal(res.Itemsets)
	case PolicyClosed:
		res.Itemsets = closedFilter(res.Itemsets)
	}
	// The cut sorts by support itself, then restores the canonical order
	// of the k it keeps; it leaves a result of at most k untouched.
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
