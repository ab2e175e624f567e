package eclat

import (
	"context"
	"runtime"
	"slices"

	"repro/internal/eqclass"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/obsv"
	"repro/internal/paircount"
	"repro/internal/tidlist"
)

// VerticalInput is a dataset already in the paper's vertical layout: one
// tid-set per item, as served zero-copy by the persistent store
// (internal/store) or memoized by the service registry. Mining from it
// skips the horizontal scans entirely — the property the store exists to
// buy — and the sets are treated as immutable operands throughout (a
// mapped view must never be written, so they are never used as kernel
// scratch).
type VerticalInput struct {
	// NumTransactions is |D|, needed for percentage supports.
	NumTransactions int
	// Items holds the tid-set of each item (index = item id); nil entries
	// are items with no transactions.
	Items []tidlist.Set
	// Residency, when non-nil, switches the mine to the budgeted
	// out-of-core protocol: classes are ordered by bundle locality and
	// every class mine is bracketed by Acquire/Release so the store can
	// evict dead segments. Output bytes and work counters are identical to
	// the unbudgeted path at every budget and worker count.
	Residency Residency
}

// MineVerticalLocal mines a vertical dataset on this host: L1 is read
// off the per-item supports, L2 and its exact supports come from the
// paper's upper-triangular pair count (§5.1) over the frequent items'
// tid-sets transposed into per-transaction rows, and each class's pair
// tid-lists are derived inside the class task by intersecting its member
// items' sets. The class recursion then proceeds exactly as in
// MineSequential/MineParallelLocal (whose engine it shares). The result
// is byte-identical to mining the corresponding horizontal database with
// the same minsup and options: both paths produce the same L1/L2 and the
// same sorted pair tid-lists, and Result.Sort imposes the canonical
// order.
//
// Stats.Scans is always 0 — no horizontal pass happens — which is the
// figure restart-without-rebuild tests assert on. The derivation
// intersections are the run's only L2 kernel calls and are charged to
// Stats, so Stats.Intersections exceeds the horizontal path's by exactly
// the number of class members. opts.Workers > 1 mines classes with the
// work-stealing pool; ≤ 1 mines sequentially.
func MineVerticalLocal(ctx context.Context, in VerticalInput, minsup int, opts Options) (*mining.Result, Stats, error) {
	if minsup < 1 {
		minsup = 1
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	var st Stats
	st.Workers = workers
	if in.Residency != nil {
		// Done on every exit path — error, cancellation, success — so a
		// cut-short mine never leaves segments accounted resident.
		defer in.Residency.Done()
	}
	v := buildVerticalFromSets(ctx, in, minsup, &st, opts)
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	eng := newEngine(v, minsup, opts, policyAll{})
	if _, err := eng.run(ctx, workers, &st, &arena{}, v.res.Add); err != nil {
		return nil, st, err
	}
	eng.finish(v.res, &st)
	return v.res, st, nil
}

// buildVerticalFromSets is buildVertical's counterpart for data that is
// already vertical: the same (res, classes) bundle, built from per-item
// tid-sets instead of horizontal scans. L1, the triangular L2 count and
// class partitioning all happen under the "initialization" span; there
// is no transformation phase because the data arrives transformed, so
// tracing-based tests can assert the phase never ran. No pair tid-list
// is built here: the engine derives each class's lists when it mines the
// class (see itemSets.classMembers), with or without a residency budget.
// Targeted queries (opts.MustContain) filter the seeded L1/L2 and the
// classes exactly as buildVertical does.
func buildVerticalFromSets(ctx context.Context, in VerticalInput, minsup int, st *Stats, opts Options) *vertical {
	must := canonMust(opts.MustContain)
	res := &mining.Result{MinSup: minsup, NumTransactions: in.NumTransactions}
	tr := obsv.TraceFrom(ctx)
	sp := tr.Start("initialization")
	defer sp.End()

	var frequent []itemset.Item
	var lists []tidlist.List
	for it, s := range in.Items {
		if s == nil {
			continue
		}
		if c := s.Support(); c >= minsup {
			if must == nil || containsAll(itemset.Itemset{itemset.Item(it)}, must) {
				res.Add(itemset.Itemset{itemset.Item(it)}, c)
			}
			frequent = append(frequent, itemset.Item(it))
			lists = append(lists, tidlist.TIDsOf(s))
		}
	}

	var l2 []itemset.Itemset
	for _, fp := range pairCounts(lists).Frequent(minsup) {
		set := itemset.Itemset{frequent[fp.Pair.A], frequent[fp.Pair.B]}
		if must == nil || containsAll(set, must) {
			res.Add(set, fp.Count)
		}
		l2 = append(l2, set)
	}

	classes := filterClasses(eqclass.PruneSingletons(eqclass.Partition(l2)), must)
	st.Classes = len(classes)
	if in.Residency != nil {
		// Store-aware scheduling: run classes in bundle-segment order
		// (the canonical result sort makes class order invisible in the
		// output), then hand the per-class item needs to the residency
		// layer. Indices in the plan are final class indices.
		orderClassesByLocality(classes, in.Residency)
		planResidency(classes, in.Residency)
	}
	return &vertical{res: res, classes: classes, sets: &itemSets{items: in.Items, res: in.Residency}}
}

// pairCounts is the paper's one-pass L2 count (§5.1) run on vertical
// data: the tid-lists of the frequent items (index = rank) are
// transposed into per-transaction rows of ranks — CSR over TIDs, offset
// by the smallest TID — and each row is fed to the upper-triangular
// counter as a horizontal transaction would be. Ranks ascend within a
// row because items are visited in rank order. When the TIDs are so
// scattered that a dense row index would dwarf the data, the rows are
// grouped by sorting (tid, rank) keys instead.
func pairCounts(lists []tidlist.List) *paircount.Counter {
	pc := paircount.New(len(lists))
	total := 0
	lo, hi := itemset.TID(0), itemset.TID(0)
	for _, l := range lists {
		if len(l) == 0 {
			continue
		}
		if total == 0 || l[0] < lo {
			lo = l[0]
		}
		if total == 0 || l[len(l)-1] > hi {
			hi = l[len(l)-1]
		}
		total += len(l)
	}
	if len(lists) < 2 || total == 0 {
		return pc
	}
	rows := make(itemset.Itemset, total)
	span := int64(hi) - int64(lo) + 1
	if span > 2*int64(total)+64 {
		keys := make([]uint64, 0, total)
		for r, l := range lists {
			for _, t := range l {
				keys = append(keys, uint64(t-lo)<<32|uint64(r))
			}
		}
		slices.Sort(keys)
		start := 0
		for i, k := range keys {
			rows[i] = itemset.Item(uint32(k))
			if i+1 == len(keys) || keys[i+1]>>32 != k>>32 {
				pc.AddTransaction(rows[start : i+1])
				start = i + 1
			}
		}
		return pc
	}
	// end[t] first counts row t's entries, then holds its start offset,
	// and — advanced as the fill cursor — ends as its end offset.
	end := make([]int32, span)
	for _, l := range lists {
		for _, t := range l {
			end[t-lo]++
		}
	}
	var sum int32
	for t, n := range end {
		end[t] = sum
		sum += n
	}
	for r, l := range lists {
		for _, t := range l {
			rows[end[t-lo]] = itemset.Item(r)
			end[t-lo]++
		}
	}
	var start int32
	for _, e := range end {
		pc.AddTransaction(rows[start:e])
		start = e
	}
	return pc
}
