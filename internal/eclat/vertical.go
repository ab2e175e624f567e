package eclat

import (
	"context"
	"slices"

	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/obsv"
	"repro/internal/paircount"
	"repro/internal/tidlist"
)

// VerticalInput is a dataset already in the paper's vertical layout: one
// tid-set per item, as served by the persistent store (internal/store)
// or memoized by the service registry. Mining from it skips the
// horizontal scans entirely — the property the store exists to buy —
// and the sets are treated as immutable operands throughout (a mapped
// view must never be written, so they are never used as kernel
// scratch).
type VerticalInput struct {
	// NumTransactions is |D|, needed for percentage supports.
	NumTransactions int
	// Items holds the tid-set of each item (index = item id); nil entries
	// are items with no transactions. Items may mix encodings: a class's
	// members derive in the encoding their item sets produce and convert
	// to the class's, so one input serves every Options.Representation.
	Items []tidlist.Set
	// Residency, when non-nil, switches the mine to the budgeted
	// out-of-core protocol: classes are ordered by bundle locality and
	// every class mine is bracketed by Acquire/Release so the store can
	// evict dead segments. Output bytes and work counters are identical to
	// the unbudgeted path at every budget and worker count.
	Residency Residency
	// Pairs, when non-nil, is the dataset's L2 memo: a mine at or above
	// its floor filters L2 from it instead of counting the triangle, and
	// a mine below it counts and lowers the floor. Output bytes and work
	// counters are identical either way; nil counts, as every mine did
	// before the memo.
	Pairs *paircount.Memo
}

// L2 memo metrics: mines with a memo that filtered L2 from it, and
// mines with a memo that counted L2 because their support was below its
// floor. A mine without a memo counts neither.
const (
	mnL2MemoHits   = "eclat_l2_memo_hits_total"
	mnL2MemoMisses = "eclat_l2_memo_misses_total"
)

var (
	mL2MemoHits   = obsv.Default.Counter(mnL2MemoHits, "vertical mines that filtered L2 from the dataset's memo instead of counting it")
	mL2MemoMisses = obsv.Default.Counter(mnL2MemoMisses, "vertical mines with an L2 memo that counted L2 below the memo's floor")
)

// MineVerticalLocal mines a vertical dataset on this host: L1 is read
// off the per-item supports, L2 and its exact supports come from the
// paper's upper-triangular pair count (§5.1) over the frequent items'
// tid-sets transposed into per-transaction rows, and each class's pair
// tid-lists are derived inside the class task by intersecting its member
// items' sets — exactly as MineParallelLocal mines its classes (the two
// share one core). The result is byte-identical to mining the
// corresponding horizontal database with the same minsup and options:
// both paths produce the same L1/L2 and the same sorted pair tid-lists,
// and the merge of the classes' sorted runs imposes the canonical order.
//
// Stats.Scans is always 0 — no horizontal pass happens — which is the
// figure restart-without-rebuild tests assert on.
func MineVerticalLocal(ctx context.Context, in VerticalInput, minsup int, opts Options) (*mining.Result, Stats, error) {
	if in.Residency != nil {
		// Done on every exit path — error, cancellation, success — so a
		// cut-short mine never leaves segments accounted resident.
		defer in.Residency.Done()
	}
	return mineLocal(ctx, minsup, opts, func(minsup int, opts Options, st *Stats, rs *runScratch) *vertical {
		return rs.buildVerticalFromSets(ctx, in, minsup, st, opts)
	})
}

// buildVerticalFromSets is buildVertical's counterpart for data that is
// already vertical: L1, the triangular L2 count and the classes come
// from per-item tid-sets instead of horizontal scans, all under the
// "initialization" span; there is no transformation phase because the
// data arrives transformed, so tracing-based tests can assert the phase
// never ran. With an L2 memo (in.Pairs) whose floor is at or below
// minsup, L2 is filtered from the memo and the triangle is not counted.
// When the triangle is counted, the rows it was fed stay on the vertical
// for the counted classes, unless the mine is budgeted. The memo holds
// the unfiltered L2 of a targeted query (opts.MustContain). Every
// buffer but the result's, and a memo hit's L2, comes from rs.
func (rs *runScratch) buildVerticalFromSets(ctx context.Context, in VerticalInput, minsup int, st *Stats, opts Options) *vertical {
	res := &mining.Result{MinSup: minsup, NumTransactions: in.NumTransactions}
	tr := obsv.TraceFrom(ctx)
	sp := tr.Start("initialization")
	defer sp.End()

	frequent := rs.frequent[:0]
	rs.itemSup = zeroed(rs.itemSup, len(in.Items))
	itemSup := rs.itemSup
	for it, s := range in.Items {
		if s == nil {
			continue
		}
		c := s.Support()
		itemSup[it] = c
		if c >= minsup {
			frequent = append(frequent, itemset.Item(it))
		}
	}
	rs.frequent = frequent

	// A budgeted mine drops the count's rows: out-of-core mining must not
	// hold a heap copy of the data.
	var rows *txRows
	count := func() []paircount.FrequentPair {
		var pairs []paircount.FrequentPair
		pairs, rows = rs.frequentPairs(in.Items, frequent, minsup)
		if in.Residency != nil {
			rows = nil
		}
		return pairs
	}
	var pairs []paircount.FrequentPair
	if in.Pairs == nil {
		pairs = count()
	} else {
		var hit bool
		pairs, hit = in.Pairs.Frequent(minsup, count)
		if hit {
			mL2MemoHits.Inc()
		} else {
			mL2MemoMisses.Inc()
		}
	}
	seeds, sups, classes := rs.seedClasses(minsup, itemSup, pairs, canonMust(opts.MustContain), st)
	if in.Residency != nil {
		// Store-aware scheduling: run classes in bundle-segment order
		// (the merge of the classes' runs in prefix order makes class
		// order invisible in the output), then hand the per-class item
		// needs to the residency layer. Indices in the plan are final
		// class indices.
		orderClassesByLocality(classes, in.Residency)
		planResidency(classes, in.Residency)
	}
	return &vertical{res: res, seeds: seeds, sups: sups, classes: classes, sets: itemSets{items: in.Items, res: in.Residency}, rows: rows}
}

// frequentPairs counts L2 at minsup over the frequent items' sets
// (ascending item ids) and returns it with ranks mapped back to item
// ids, in Counter.Frequent's order: ranks ascend with item ids, so the
// pairs stay sorted by (A, B). It also returns the rows the count was
// fed, nil when the TIDs were too scattered for a row index.
func (rs *runScratch) frequentPairs(items []tidlist.Set, frequent []itemset.Item, minsup int) ([]paircount.FrequentPair, *txRows) {
	sets := grow(rs.sets, len(frequent))
	for r, it := range frequent {
		sets[r] = items[it]
	}
	rs.sets = sets
	rows := rs.pairCounts(sets)
	pairs := rs.pc.AppendFrequent(rs.pairs[:0], minsup)
	rs.pairs = pairs
	for i, fp := range pairs {
		pairs[i].Pair = tidlist.Pair{A: frequent[fp.Pair.A], B: frequent[fp.Pair.B]}
	}
	if rows != nil {
		rows.items = frequent
	}
	return pairs, rows
}

// txRows are the per-transaction rows the vertical L2 count was fed,
// kept for the counted classes (countScratch.countRows): the frequent
// items' ranks grouped by TID, ascending within a row, CSR over the
// TIDs from lo, and the item of each rank. They take 4 bytes per
// frequent-item occurrence plus 4 per TID of the span. Read-only once
// built, and shared by every worker of the run.
type txRows struct {
	lo    itemset.TID
	offs  []int32         // TID t's row is ranks[offs[t-lo]:offs[t-lo+1]]
	ranks itemset.Itemset // every row's ranks, row after row
	items []itemset.Item  // items[rank]: the frequent item of that rank
}

// row returns the ranks of the frequent items TID t holds.
func (x *txRows) row(t itemset.TID) itemset.Itemset {
	i := t - x.lo
	return x.ranks[x.offs[i]:x.offs[i+1]]
}

// pairCounts is the paper's one-pass L2 count (§5.1) run on vertical
// data: the tid-sets of the frequent items (index = rank) are
// transposed into per-transaction rows of ranks — CSR over TIDs, offset
// by the smallest TID — and each row is fed to rs's upper-triangular
// counter, reset to the ranks, as a horizontal transaction would be.
// Ranks ascend within a row because items are visited in rank order. A
// sparse set is read in place; a packed one is written out one set at a
// time, into one buffer, each time the transposition reads it. It
// returns the rows, kept in rs. When the TIDs are so scattered that a
// dense row index would dwarf the data, the rows are grouped by sorting
// (tid, rank) keys instead, and no rows are returned.
func (rs *runScratch) pairCounts(sets []tidlist.Set) *txRows {
	pc := &rs.pc
	pc.Reset(len(sets))
	total := 0
	lo, hi := itemset.TID(0), itemset.TID(0)
	for _, s := range sets {
		l, h, ok := tidlist.Bounds(s)
		if !ok {
			continue
		}
		if total == 0 || l < lo {
			lo = l
		}
		if total == 0 || h > hi {
			hi = h
		}
		total += s.Support()
	}
	if len(sets) < 2 || total == 0 {
		return nil
	}
	tidsOf := func(s tidlist.Set) tidlist.List {
		if l, ok := s.(tidlist.List); ok {
			return l
		}
		rs.tids = s.AppendTIDs(rs.tids[:0])
		return rs.tids
	}
	rows := grow(rs.rows.ranks, total)
	span := int64(hi) - int64(lo) + 1
	if span > 2*int64(total)+64 {
		keys := slices.Grow(rs.keys[:0], total)
		for r, s := range sets {
			for _, t := range tidsOf(s) {
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
		rs.keys, rs.rows.ranks = keys, rows
		return nil
	}
	// offs[0] is 0; end = offs[1:], where end[t] first counts row t's
	// entries, then holds its start offset, and — advanced as the fill
	// cursor — ends as its end offset, the next row's start.
	offs := zeroed(rs.rows.offs, int(span)+1)
	end := offs[1:]
	for _, s := range sets {
		for _, t := range tidsOf(s) {
			end[t-lo]++
		}
	}
	var sum int32
	for t, n := range end {
		end[t] = sum
		sum += n
	}
	for r, s := range sets {
		for _, t := range tidsOf(s) {
			rows[end[t-lo]] = itemset.Item(r)
			end[t-lo]++
		}
	}
	var start int32
	for _, e := range end {
		pc.AddTransaction(rows[start:e])
		start = e
	}
	rs.rows = txRows{lo: lo, offs: offs, ranks: rows}
	return &rs.rows
}
