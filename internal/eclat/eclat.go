// Package eclat implements the paper's contribution: the Eclat
// (Equivalence CLass Transformation) algorithm for frequent-itemset
// mining, in the four-phase parallel form of section 5 (initialization,
// transformation, asynchronous, final reduction) on the simulated
// cluster — one SPMD program, which also runs the hybrid host-level
// parallelization sketched as future work in section 8.1 — and in the
// local class-queue engine over the same class search.
//
// The mining core is Compute_Frequent (figure 3): within an equivalence
// class, every pair of member tid-lists is intersected (short-circuited
// on the minimum support); surviving itemsets form the next level, which
// is recursively partitioned into classes by prefix. A class never needs
// more than its own current level in memory, and candidate pruning is
// deliberately absent — the paper found it "of little or no help" with
// the vertical layout (section 5.3).
package eclat

import (
	"context"
	"slices"
	"sort"

	"repro/internal/db"
	"repro/internal/eqclass"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/obsv"
	"repro/internal/paircount"
	"repro/internal/tidlist"
)

// Global intersection-work counters (see /metricsz). They are flushed
// once per equivalence class — the hot inner loop still updates only the
// run-local Stats struct, so the atomics never appear on the
// per-intersection path. Kernel-dispatch counters (sparse vs dense
// intersections, words touched, conversions) live in internal/tidlist
// and are flushed on the same per-class cadence.
const (
	mnIntersections  = "eclat_intersections_total"
	mnShortCircuit   = "eclat_intersections_shortcircuited_total"
	mnIntersectOps   = "eclat_intersect_ops_total"
	mnTidlistBytes   = "eclat_tidlist_bytes_total"
	mnClasses        = "eclat_classes_total"
	mnCountedClasses = "eclat_counted_classes_total"
	mnCountOps       = "eclat_count_ops_total"
)

var (
	mIntersections  = obsv.Default.Counter(mnIntersections, "tid-list intersections attempted")
	mShortCircuit   = obsv.Default.Counter(mnShortCircuit, "intersections aborted early by the minimum-support bound")
	mIntersectOps   = obsv.Default.Counter(mnIntersectOps, "tid-set kernel operations performed (element comparisons or words)")
	mTidlistBytes   = obsv.Default.Counter(mnTidlistBytes, "tid-set bytes touched by intersections")
	mClasses        = obsv.Default.Counter(mnClasses, "top-level equivalence classes mined")
	mCountedClasses = obsv.Default.Counter(mnCountedClasses, "classes, at any depth, expanded by counting their member pairs instead of joining them")
	mCountOps       = obsv.Default.Counter(mnCountOps, "pair increments performed by class-local triangular counts")
)

// tidBytes is the in-memory size of one sparse tid-list element.
const tidBytes = 4 // sizeof(itemset.TID) — int32

// flushStats publishes the delta between two snapshots of a run's Stats
// to the global counters (prev is updated to cur's values).
func flushStats(prev, cur *Stats) {
	mIntersections.Add(cur.Intersections - prev.Intersections)
	mShortCircuit.Add(cur.ShortCircuited - prev.ShortCircuited)
	mIntersectOps.Add(cur.IntersectOps - prev.IntersectOps)
	mTidlistBytes.Add((cur.Kernel.SparseOps()-prev.Kernel.SparseOps())*tidBytes +
		(cur.Kernel.WordsTouched()-prev.Kernel.WordsTouched())*8 +
		(cur.Kernel.RoaringElemOps()-prev.Kernel.RoaringElemOps())*2 +
		(cur.Kernel.RoaringWords()-prev.Kernel.RoaringWords())*8)
	mCountedClasses.Add(cur.CountedClasses - prev.CountedClasses)
	mCountOps.Add(cur.CountOps - prev.CountOps)
	cur.Kernel.Flush(&prev.Kernel)
}

// Options selects algorithm variants used by the ablation benchmarks.
// The zero value is the paper's algorithm.
type Options struct {
	// NoShortCircuit disables the minimum-support short-circuiting of
	// tid-list intersections (section 5.3).
	NoShortCircuit bool
	// RoundRobinSchedule replaces the simulated cluster's greedy
	// weighted class scheduling (section 5.2.1) with naive round-robin
	// dealing. Like SupportWeightedSchedule, the local class queue
	// ignores it.
	RoundRobinSchedule bool
	// SupportWeightedSchedule replaces the C(s,2) class weight with a
	// support-aware estimate of the intersection work — sum over member
	// pairs of min(support_i, support_j) — the refinement the paper
	// suggests in section 5.2.1 ("We could also make use of the average
	// support of the itemsets within a class to get better weight
	// factors").
	SupportWeightedSchedule bool
	// ExternalTransform performs the vertical transformation through
	// bounded disk buffers instead of anonymous memory-mapped regions —
	// the improvement the paper reports as in progress ("we are currently
	// implementing an external memory transformation, keeping only small
	// buffers in main memory"). It trades one extra structured pass over
	// the tid-list data for immunity to paging, so it wins exactly when
	// the mapped regions would overflow host memory.
	ExternalTransform bool
	// Representation selects the tid-set representation the class
	// recursion mines through: ReprAuto (the zero value) decides per
	// equivalence class by pricing its C(s,2) joins under each kernel
	// (tidlist.ChooseRepr), ReprSparse forces the paper's sorted slice
	// with the scalar merge kernel, ReprBitset forces the word-packed
	// dense kernel, ReprRoaring forces the containerized compressed
	// kernels.
	Representation tidlist.Repr
	// Policy selects the search and its output (see Policy). The zero
	// value is the paper's all-frequent search.
	Policy Policy
	// Workers is the number of real goroutines the local entry points
	// mine with, each taking the next class from one shared heaviest-first
	// queue; ≤ 0 means runtime.GOMAXPROCS(0). The simulated-cluster entry
	// points ignore it: they deal their classes statically (section 5.2.1).
	Workers int
	// TopK, when > 0, mines the k highest-support itemsets instead of a
	// fixed-threshold collection: the engine's support heap adaptively
	// raises the effective minimum support as itemsets are found, and
	// the result is truncated to k by support (ties broken
	// lexicographically). Output is byte-identical to a full mine at the
	// same floor followed by Result.TruncateTopK. Honored by the local
	// entry points under PolicyAll; the other two policies and the
	// cluster forms clear it (adaptive pruning is unsound against their
	// output contracts).
	TopK int
	// MustContain, when non-empty, restricts mining to itemsets
	// containing every listed item (a targeted query): equivalence
	// classes whose prefix cannot contain the items are skipped
	// entirely, and emissions are filtered. Output equals post-filtering
	// a full mine. Honored and cleared exactly like TopK.
	MustContain []itemset.Item
}

// Policy selects the search the local engine runs over every
// equivalence class, and with it the output the final reduction shapes.
// The simulated-cluster forms mine PolicyAll's output whatever it says.
type Policy int

const (
	// PolicyAll is Compute_Frequent (figure 3): every frequent itemset.
	PolicyAll Policy = iota
	// PolicyMaximal keeps only the maximal frequent itemsets (no frequent
	// superset), found with the MaxEclat hybrid search of the authors'
	// companion report [18]: before expanding a class bottom-up, a
	// top-down lookahead intersects all its tid-lists, and if the class's
	// top itemset is frequent the whole sub-lattice collapses into one
	// candidate. The final reduction drops candidates subsumed by other
	// candidates; supports stay exact.
	PolicyMaximal
	// PolicyClosed keeps only the closed itemsets (no strict superset of
	// equal support), the lossless compression of the frequent
	// collection: the search is PolicyAll's, and the final reduction
	// applies the closure filter by the immediate-superset property.
	PolicyClosed
)

// Stats counts the work of a local (shared-memory, any worker count)
// run; the simulated parallel forms report through cluster.Report
// instead. The lookahead counters stay zero outside PolicyMaximal.
type Stats struct {
	Scans int
	// Intersections counts tid-set kernel calls: intersections and the
	// folds of the maximal lookahead. A counted class adds only the joins
	// that seed its sub-classes.
	Intersections  int64
	ShortCircuited int64 // intersections aborted by the support bound
	// IntersectOps counts kernel operations: element comparisons for the
	// sparse merge kernel, 64-bit words touched for the dense kernel (the
	// per-kind split is in Kernel).
	IntersectOps int64
	Classes      int // top-level equivalence classes mined
	// Workers is the number of mining goroutines the run used.
	Workers int
	// Steals is always 0: the local driver hands every class out from one
	// shared queue and steals none. The field stays because the
	// benchmark module reports it as eclat.steals.
	Steals int64
	// DiffsetClasses is always 0: figure 3 expands every class by joins
	// or a count and switches none to dEclat diffsets. The field stays
	// because the benchmark module reports it as eclat.diffset_classes.
	DiffsetClasses int64
	// CountedClasses counts the classes, at any recursion depth, that
	// the local engine expanded by a class-local triangular count of
	// their member pairs instead of C(s,2) joins (see planClass);
	// CountOps counts the pair increments those counts performed.
	CountedClasses int64
	CountOps       int64
	// Lookaheads and LookaheadHits count PolicyMaximal's class-collapse
	// attempts and the classes whose full union was frequent.
	Lookaheads    int64
	LookaheadHits int64
	// Candidates is the size of the collection the final reduction
	// started from: the seeded L1/L2 plus every emission (for
	// PolicyMaximal, the locally-maximal sets before the subsumption
	// filter).
	Candidates int
	// EffectiveMinSup is the minimum support the run ended at: the
	// caller's floor, raised by the top-k support heap when Options.TopK
	// is set (equal to the floor otherwise).
	EffectiveMinSup int
	// Kernel is the representation-dispatch accounting of the run: how
	// many intersections went to the sparse, dense, mixed and roaring
	// kernels, their per-kind work units, and representation
	// conversions.
	Kernel tidlist.KernelStats
}

// merge folds a worker's counters into the run totals. Scans, Classes,
// Workers, Candidates and EffectiveMinSup are run-level figures
// owned by the coordinator and are deliberately not summed.
func (s *Stats) merge(w *Stats) {
	s.Intersections += w.Intersections
	s.ShortCircuited += w.ShortCircuited
	s.IntersectOps += w.IntersectOps
	s.CountedClasses += w.CountedClasses
	s.CountOps += w.CountOps
	s.Lookaheads += w.Lookaheads
	s.LookaheadHits += w.LookaheadHits
	s.Kernel.Add(w.Kernel)
}

// member is one itemset of the current level within a class, with its
// tid-set (sparse or dense, per the class's chosen representation).
type member struct {
	set  itemset.Itemset
	tids tidlist.Set
}

// computeFrequent is figure 3: mine everything derivable from one
// equivalence class. members must be lexicographically sorted and share a
// common prefix of len(set)-1 items, whose support is prefixSup (0 when
// unknown) and whose tid-set is prefix (nil only when the worker has no
// rows to feed a count with). emit is called for every frequent itemset
// found (sets of size len(members[0].set)+1 and deeper).
//
// Each class, at every depth, is first priced (planClass): when counting
// its member pairs in a class-local triangle is cheaper than joining
// them, and the worker has counting scratch, countExpand takes the
// class. The simulated cluster's workers have none, so they keep the
// joins whose kernel counters they bill as virtual time.
//
// Cancellation is checked once per sub-class (each iteration of the
// i-loop opens the class prefixed by members[i].set), never inside the
// intersection inner loop, so an expired ctx stops the search promptly
// without per-intersection overhead. On cancellation the walk simply
// unwinds; the caller is responsible for reporting ctx.Err().
//
// w.ar is the worker's scratch arena; a sub-class's member slice and
// surviving tid-set clones are carved from it and released when the
// recursion unwinds past the sub-class, so the steady state allocates
// nothing per itemset.
//
// w.th is the pruning bound, re-read once per sub-class so a top-k run
// picks up threshold raises promptly; with a fixed threshold the reads
// are constant and the kernel call sequence is identical to mining
// against a plain minsup.
func (w *worker) computeFrequent(ctx context.Context, members []member, prefixSup int, prefix tidlist.Set, emit Emitter) {
	plan := planClass(members, prefixSup)
	if plan.counted && w.cs != nil {
		w.countExpand(ctx, members, prefix, plan, emit)
		return
	}
	// Pairing member i with each j > i yields the class prefixed by
	// members[i].set, so the recursion needs no separate partitioning
	// pass: the i-loop enumerates the next level's classes directly.
	//
	// Each kernel call writes into the worker's buffer for its encoding
	// (arena.scratch) and leaves its result there for the next call
	// (arena.keep); the dispatch functions recover the storage, so no
	// frame allocates a kernel result.
	st, ar := w.st, w.ar
	for i := 0; i < len(members)-1; i++ {
		if ctx.Err() != nil {
			return
		}
		minsup := w.th.current()
		mark := ar.mark()
		next := ar.nextMembers(len(members) - 1 - i)
		for j := i + 1; j < len(members); j++ {
			st.Intersections++
			var tids tidlist.Set
			var ops int
			var ok bool
			scratch := ar.scratch(members[i].tids, members[j].tids)
			if w.opts.NoShortCircuit {
				tids, ops = tidlist.IntersectSets(scratch, members[i].tids, members[j].tids, &st.Kernel)
				ok = tids.Support() >= minsup
			} else {
				tids, ops, ok = tidlist.IntersectSetsSC(scratch, members[i].tids, members[j].tids, minsup, &st.Kernel)
			}
			st.IntersectOps += int64(ops)
			if !ok {
				ar.keep(tids) // aborted: only the next join's buffer
				st.ShortCircuited++
				continue
			}
			ar.keep(tids)
			next = append(next, member{
				set:  members[i].set.Join(members[j].set),
				tids: ar.cloneSet(tids),
			})
		}
		for _, m := range next {
			emit(m.set, m.tids.Support())
		}
		if len(next) > 1 {
			w.computeFrequent(ctx, next, members[i].tids.Support(), members[i].tids, emit)
		}
		ar.release(mark)
	}
}

// classSpan is the TID window covered by a class's members, its first
// TID and its length (0 for a class of empty members) — the density
// denominator of the representation policy, and the window the count's
// row index covers.
func classSpan(members []member) (lo itemset.TID, span int) {
	var hi itemset.TID
	any := false
	for _, m := range members {
		l, h, ok := tidlist.Bounds(m.tids)
		if !ok {
			continue
		}
		if !any || l < lo {
			lo = l
		}
		if !any || h > hi {
			hi = h
		}
		any = true
	}
	if !any {
		return 0, 0
	}
	return lo, int(hi-lo) + 1
}

// classMembers assembles the sorted member list of one L2 equivalence
// class from a simulated processor's global pair tid-lists (§5.2), then
// resolves the class's encoding as the local engine's classes do (see
// applyClassRepr).
func classMembers(class *eqclass.Class, lists map[tidlist.Pair]tidlist.List, repr tidlist.Repr, ks *tidlist.KernelStats) []member {
	out := make([]member, 0, len(class.Members))
	for _, set := range class.Members {
		out = append(out, member{set: set, tids: lists[tidlist.Pair{A: set[0], B: set[1]}]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].set.Less(out[j].set) })
	applyClassRepr(out, repr, ks)
	return out
}

// applyClassRepr resolves repr for the class — ReprAuto by pricing its
// shape, with each member's current encoding — and re-encodes in place
// exactly the members whose encoding differs from the outcome.
func applyClassRepr(members []member, repr tidlist.Repr, ks *tidlist.KernelStats) {
	chosen := repr
	if repr == tidlist.ReprAuto {
		chosen = tidlist.ChooseRepr(repr, classShape(members))
	}
	for i := range members {
		members[i].tids = tidlist.Convert(members[i].tids, chosen, ks)
	}
}

// classShape summarizes members for the priced representation policy.
func classShape(members []member) tidlist.ClassShape {
	c := tidlist.ClassShape{Members: len(members)}
	_, c.Span = classSpan(members)
	for _, m := range members {
		c.Support += m.tids.Support()
		switch m.tids.Repr() {
		case tidlist.ReprSparse:
			c.Sparse++
		case tidlist.ReprBitset:
			c.Bitset++
		case tidlist.ReprRoaring:
			c.Roaring++
		}
	}
	if c.Members > 0 {
		c.Support /= c.Members
	}
	return c
}

// vertical is what the local entry points hand the mining core: the
// result to assemble, the seeded L1 and L2, the pruned equivalence
// classes, and the item tid-sets every class derives its member
// tid-lists from (ooc.go). The seeds and classes live in the run's
// scratch; run copies the seeds the result holds into it.
type vertical struct {
	res *mining.Result
	// seeds are L1 then L2, all of them whatever the targeted items, and
	// sups their supports; the classes' members are views of the L2 part.
	seeds   []itemset.Itemset
	sups    []int
	classes []eqclass.Class
	sets    itemSets
	// rows, when non-nil, are the rows the vertical L2 count was fed,
	// which counted classes read instead of transposing their members;
	// nil for horizontal input, an L2 memo hit, scattered TIDs and
	// budgeted mines.
	rows *txRows
}

// prefix returns the support of class ci's prefix item, and the item's
// tid-set when the run keeps rows to feed its counts (nil otherwise).
func (v *vertical) prefix(ci int) (sup int, tids tidlist.Set) {
	s := v.sets.items[v.classes[ci].Prefix[0]]
	if v.rows != nil {
		tids = s
	}
	return s.Support(), tids
}

// seedClasses seeds the run with L1 (the items whose itemSup reaches
// minsup) and the frequent pairs, and returns the seeds, their supports
// and the classes to mine: L2 partitioned by prefix, singletons (which
// generate no candidates) and classes that cannot contain must pruned.
// The seeded itemsets are carved from one array the result owns; the
// seeds and the classes, whose members are views of them, live in rs.
// st.Classes is the classes' number.
func (rs *runScratch) seedClasses(minsup int, itemSup []int, pairs []paircount.FrequentPair, must []itemset.Item, st *Stats) ([]itemset.Itemset, []int, []eqclass.Class) {
	n1 := 0
	for _, c := range itemSup {
		if c >= minsup {
			n1++
		}
	}
	items := make(itemset.Itemset, n1+2*len(pairs))
	carve := func(k int) itemset.Itemset {
		set := items[:k:k]
		items = items[k:]
		return set
	}
	seeds := slices.Grow(rs.seeds[:0], n1+len(pairs))
	sups := slices.Grow(rs.sups[:0], n1+len(pairs))
	for it, c := range itemSup {
		if c >= minsup {
			set := carve(1)
			set[0] = itemset.Item(it)
			seeds, sups = append(seeds, set), append(sups, c)
		}
	}
	for _, fp := range pairs {
		set := carve(2)
		set[0], set[1] = fp.Pair.A, fp.Pair.B
		seeds, sups = append(seeds, set), append(sups, fp.Count)
	}
	classes := filterClasses(eqclass.PruneSingletons(eqclass.AppendPartition(rs.classes[:0], seeds[n1:])), must)
	rs.seeds, rs.sups, rs.classes = seeds, sups, classes
	st.Classes = len(classes)
	return seeds, sups, classes
}

// buildVertical runs the one-scan initialization (global 1- and 2-itemset
// counts) and the vertical transformation (a second scan building the
// tid-lists of the items the classes read), recording the two phases on
// the ctx trace and charging st.Scans/st.Classes. A targeted query
// (opts.MustContain) filters the seeded L1/L2 itemsets and drops the
// equivalence classes whose prefix cannot contain the items. Every
// buffer but the result's comes from rs.
func (rs *runScratch) buildVertical(ctx context.Context, d *db.Database, minsup int, st *Stats, opts Options) *vertical {
	res := &mining.Result{MinSup: minsup, NumTransactions: d.Len()}
	tr := obsv.TraceFrom(ctx)

	// Initialization: count 1-itemsets and all 2-itemsets via the
	// triangular array.
	sp := tr.Start("initialization")
	st.Scans++
	rs.itemSup = zeroed(rs.itemSup, d.NumItems)
	itemCounts := rs.itemSup
	rs.pc.Reset(d.NumItems)
	for _, tx := range d.Transactions {
		for _, it := range tx.Items {
			itemCounts[it]++
		}
		rs.pc.AddTransaction(tx.Items)
	}
	rs.pairs = rs.pc.AppendFrequent(rs.pairs[:0], minsup)
	seeds, sups, classes := rs.seedClasses(minsup, itemCounts, rs.pairs, canonMust(opts.MustContain), st)
	sp.End()

	// Transformation: tid-lists for the items of every class with at least
	// two members, presized from their L1 counts.
	sp = tr.Start("transformation")
	rs.need = zeroed(rs.need, d.NumItems)
	need := rs.need
	for ci := range classes {
		for _, m := range classes[ci].Members {
			need[m[0]], need[m[1]] = itemCounts[m[0]], itemCounts[m[1]]
		}
	}
	st.Scans++
	rs.lists, rs.tids = tidlist.ItemLists(rs.lists, rs.tids, d, need)
	rs.items = zeroed(rs.items, d.NumItems)
	for it, l := range rs.lists {
		if l != nil {
			rs.items[it] = l
		}
	}
	sp.End()

	return &vertical{res: res, seeds: seeds, sups: sups, classes: classes, sets: itemSets{items: rs.items}}
}
