// Package eclat implements the paper's contribution: the Eclat
// (Equivalence CLass Transformation) algorithm for frequent-itemset
// mining, in a sequential form and in the four-phase parallel form of
// section 5 (initialization, transformation, asynchronous, final
// reduction), plus the hybrid host-level parallelization sketched as
// future work in section 8.1.
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
	mnDiffsetsUsed   = "eclat_diffset_classes_total"
	mnCountedClasses = "eclat_counted_classes_total"
	mnCountOps       = "eclat_count_ops_total"
)

var (
	mIntersections  = obsv.Default.Counter(mnIntersections, "tid-list intersections attempted")
	mShortCircuit   = obsv.Default.Counter(mnShortCircuit, "intersections aborted early by the minimum-support bound")
	mIntersectOps   = obsv.Default.Counter(mnIntersectOps, "tid-set kernel operations performed (element comparisons or words)")
	mTidlistBytes   = obsv.Default.Counter(mnTidlistBytes, "tid-set bytes touched by intersections")
	mClasses        = obsv.Default.Counter(mnClasses, "top-level equivalence classes mined")
	mDiffsetsUsed   = obsv.Default.Counter(mnDiffsetsUsed, "sub-classes switched to the dEclat diffset representation")
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
	mDiffsetsUsed.Add(cur.DiffsetClasses - prev.DiffsetClasses)
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
	// RoundRobinSchedule replaces the greedy weighted class scheduling
	// (section 5.2.1) with naive round-robin dealing.
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
	// DiffsetBreakEven overrides the density threshold at which a
	// sub-class switches to diffsets (see DefaultDiffsetBreakEven).
	// Zero means the measured default; values > 1 never switch (the
	// tid-list-only ablation).
	DiffsetBreakEven float64
	// Policy selects the search and its output (see Policy). The zero
	// value is the paper's all-frequent search.
	Policy Policy
	// Workers is the number of real goroutines the local entry points
	// mine with: 1 runs the sequential driver, N > 1 the work-stealing
	// driver, and ≤ 0 means runtime.GOMAXPROCS(0). The simulated-cluster
	// entry points ignore it.
	Workers int
	// TopK, when > 0, mines the k highest-support itemsets instead of a
	// fixed-threshold collection: the engine's support heap adaptively
	// raises the effective minimum support as itemsets are found, and
	// the result is truncated to k by support (ties broken
	// lexicographically). Output is byte-identical to a full mine at the
	// same floor followed by Result.TruncateTopK. Honored by the local
	// entry points under PolicyAll; every other policy and the cluster
	// forms clear it (adaptive pruning is unsound against their output
	// contracts).
	TopK int
	// MustContain, when non-empty, restricts mining to itemsets
	// containing every listed item (a targeted query): equivalence
	// classes whose prefix cannot contain the items are skipped
	// entirely, and emissions are filtered. Output equals post-filtering
	// a full mine. Honored and cleared exactly like TopK.
	MustContain []itemset.Item
}

// Policy selects the search the engine runs over every equivalence
// class, and with it the output the final reduction shapes.
type Policy int

const (
	// PolicyAll is Compute_Frequent (figure 3): every frequent itemset,
	// each sub-class switching to dEclat diffsets once its density
	// crosses the break-even.
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
	// PolicyCharm finds the closed itemsets with the CHARM search (Zaki &
	// Hsiao), which prunes the search space instead of filtering
	// afterwards: equal-support extensions fold into their generators
	// through the four tid-set containment properties, and a candidate is
	// kept only if no equal-support superset is already closed. CHARM
	// merges across prefixes, so it is one task over the frequent
	// singletons rather than one per L2 class; its output equals
	// PolicyClosed's.
	PolicyCharm
	// PolicyDiffsets is pure dEclat: every sub-class takes the diffset
	// form at once instead of at the density break-even. For class
	// prefix P the recursion carries d(PXY) = t(PX) \ t(PY) at the first
	// level and d(PXY) = d(PY) \ d(PX) below it, with
	// sup(PXY) = sup(PX) - |d(PXY)|; the output equals PolicyAll's.
	PolicyDiffsets
)

// Stats counts the work of a local (sequential or shared-memory-parallel)
// run; the simulated parallel forms report through cluster.Report
// instead. The policy counters stay zero under the policies that do not
// produce them.
type Stats struct {
	Scans int
	// Intersections counts tid-set kernel calls: intersections, the
	// differences of the diffset recursion, and the folds of the maximal
	// lookahead. A counted class adds only the joins that seed its
	// sub-classes.
	Intersections  int64
	ShortCircuited int64 // intersections aborted by the support bound
	// IntersectOps counts kernel operations: element comparisons for the
	// sparse merge kernel, 64-bit words touched for the dense kernel (the
	// per-kind split is in Kernel).
	IntersectOps int64
	Classes      int // top-level equivalence classes mined
	// Workers is the number of mining goroutines the run used.
	Workers int
	// Steals counts the work-stealing events of the run (always 0 with
	// one worker).
	Steals int64
	// DiffsetClasses counts the sub-classes PolicyAll's recursion
	// switched to the dEclat diffset representation.
	DiffsetClasses int64
	// CountedClasses counts the classes, at any recursion depth, that
	// the local engine expanded by a class-local triangular count of
	// their member pairs instead of C(s,2) joins (see planClass);
	// CountOps counts the pair increments those counts performed.
	CountedClasses int64
	CountOps       int64
	// ListBytes is the total bytes of the diffsets the recursion kept, in
	// their chosen encoding — the volume the diffset trade-off prices.
	ListBytes int64
	// Lookaheads and LookaheadHits count PolicyMaximal's class-collapse
	// attempts and the classes whose full union was frequent.
	Lookaheads    int64
	LookaheadHits int64
	// Merges counts PolicyCharm's itemset extensions via the tid-set
	// containment properties; Subsumptions its candidates discarded by
	// the closed-set check.
	Merges       int64
	Subsumptions int64
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
// Workers, Steals, Candidates and EffectiveMinSup are run-level figures
// owned by the coordinator and are deliberately not summed.
func (s *Stats) merge(w *Stats) {
	s.Intersections += w.Intersections
	s.ShortCircuited += w.ShortCircuited
	s.IntersectOps += w.IntersectOps
	s.DiffsetClasses += w.DiffsetClasses
	s.CountedClasses += w.CountedClasses
	s.CountOps += w.CountOps
	s.ListBytes += w.ListBytes
	s.Lookaheads += w.Lookaheads
	s.LookaheadHits += w.LookaheadHits
	s.Merges += w.Merges
	s.Subsumptions += w.Subsumptions
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
// unknown). emit is called for every frequent itemset found (sets of
// size len(members[0].set)+1 and deeper).
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
// nothing per itemset (it may be nil: heap allocation, same results).
//
// w.th is the pruning bound, re-read once per sub-class so a top-k run
// picks up threshold raises promptly; with a fixed threshold the reads
// are constant and the kernel call sequence is identical to mining
// against a plain minsup.
func (w *worker) computeFrequent(ctx context.Context, members []member, prefixSup int, emit Emitter) {
	plan := planClass(members, prefixSup)
	if plan.counted && w.cs != nil {
		w.countExpand(ctx, members, plan, emit)
		return
	}
	// Pairing member i with each j > i yields the class prefixed by
	// members[i].set, so the recursion needs no separate partitioning
	// pass: the i-loop enumerates the next level's classes directly.
	//
	// scratch is whatever set the last kernel call returned; the dispatch
	// functions recover its storage when the representation matches, so
	// the buffer-reuse discipline of the sparse-only loop survives the
	// abstraction.
	st, ar := w.st, w.ar
	gate := newDiffsetGate(plan, w.opts)
	var scratch tidlist.Set
	for i := 0; i < len(members)-1; i++ {
		if ctx.Err() != nil {
			return
		}
		minsup := w.th.current()
		if gate.wins(members, i) {
			st.DiffsetClasses++
			diffTransition(ctx, members, i, w.th, st, ar, emit)
			continue
		}
		mark := ar.mark()
		next := ar.nextMembers(len(members) - 1 - i)
		for j := i + 1; j < len(members); j++ {
			st.Intersections++
			var tids tidlist.Set
			var ops int
			var ok bool
			if w.opts.NoShortCircuit {
				tids, ops = tidlist.IntersectSets(scratch, members[i].tids, members[j].tids, &st.Kernel)
				ok = tids.Support() >= minsup
			} else {
				tids, ops, ok = tidlist.IntersectSetsSC(scratch, members[i].tids, members[j].tids, minsup, &st.Kernel)
			}
			st.IntersectOps += int64(ops)
			scratch = tids
			if !ok {
				st.ShortCircuited++
				continue
			}
			next = append(next, member{
				set:  members[i].set.Join(members[j].set),
				tids: ar.cloneSet(tids),
			})
		}
		for _, m := range next {
			emit(m.set, m.tids.Support())
		}
		if len(next) > 1 {
			w.computeFrequent(ctx, next, members[i].tids.Support(), emit)
		}
		ar.release(mark)
	}
}

// DefaultDiffsetBreakEven is the measured density break-even of the
// dEclat diffset transition: when the estimated support retention of a
// sub-class's children (partner density over the class span) reaches
// this fraction, d(PXY) = t(PX) \ t(PY) is smaller than t(PXY) and the
// difference kernels touch fewer bytes per level than the intersection
// kernels at the same support. The 0.5 crossover follows directly from
// |d(PXY)| = sup(PX) - sup(PXY): the diffset is the smaller encoding
// exactly when a child keeps more than half its parent's tids, and the
// kernel measurements in BENCH_kernels.json (see EXPERIMENTS.md) put
// the measured ns/op crossing at the same grid point — diff beats
// intersect from the 50% density row down to ~12.5% only on bytes
// touched in deeper levels, and on both bytes and first-transition cost
// at ≥ 50%.
const DefaultDiffsetBreakEven = 0.5

// diffsetBreakEven resolves the run's diffset-transition threshold.
func diffsetBreakEven(opts Options) float64 {
	if opts.DiffsetBreakEven > 0 {
		return opts.DiffsetBreakEven
	}
	return DefaultDiffsetBreakEven
}

// classSpan is the TID window covered by a class's members, its first
// TID and its length (0 for a class of empty members) — the density
// denominator shared by the representation policy and the diffset gate,
// and the window the count's row index covers.
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

// diffsetGate estimates, member by member, whether the children of a
// class member will retain enough of their parent's support for
// diffsets to be the smaller encoding: under independence a child PXY
// keeps a fraction of t(PX) close to the partner's density
// sup(PY)/span, so the partners' average density is the retention
// estimate compared against the break-even. rest is the support total
// of the current member's partners (the members after it): it starts at
// the class total and loses each member's support as the caller
// advances, so a class pays s Support calls, not C(s,2).
type diffsetGate struct {
	rest, span int
	breakEven  float64
}

// newDiffsetGate starts the gate for a planned class.
func newDiffsetGate(p classPlan, opts Options) diffsetGate {
	return diffsetGate{rest: p.sup, span: p.span, breakEven: diffsetBreakEven(opts)}
}

// wins reports the estimate for member i. The caller asks for every
// member in order, from 0.
func (g *diffsetGate) wins(members []member, i int) bool {
	g.rest -= members[i].tids.Support()
	if g.span <= 0 {
		return false
	}
	return float64(g.rest) >= g.breakEven*float64(g.span)*float64(len(members)-1-i)
}

// dmember is one itemset of the current level, represented by its diffset
// relative to its generating parent and its exact support.
type dmember struct {
	set   itemset.Itemset
	diffs tidlist.Set
	sup   int
}

// diffTransition opens the sub-class prefixed by members[i] in diffset
// form — the dEclat first transition: each child carries
// d(PXY) = t(PX) \ t(PY) with sup(PXY) = sup(PX) - |d(PXY)|, and the
// recursion below continues in computeFrequentDiffCtx. The emitted
// (itemset, support) pairs are identical to the tid-list path's (tested
// property); only the intermediate encoding differs. Every kept diffset
// is charged to st.ListBytes.
func diffTransition(ctx context.Context, members []member, i int, th *threshold, st *Stats, ar *arena, emit Emitter) {
	minsup := th.current()
	mark := ar.mark()
	defer ar.release(mark)
	var scratch tidlist.Set
	next := make([]dmember, 0, len(members)-1-i)
	supI := members[i].tids.Support()
	for j := i + 1; j < len(members); j++ {
		st.Intersections++
		diffs, ops := tidlist.DiffSets(scratch, members[i].tids, members[j].tids, &st.Kernel)
		st.IntersectOps += int64(ops)
		scratch = diffs
		sup := supI - diffs.Support()
		if sup < minsup {
			continue
		}
		kept := ar.cloneSet(diffs)
		st.ListBytes += kept.SizeBytes()
		next = append(next, dmember{
			set:   members[i].set.Join(members[j].set),
			diffs: kept,
			sup:   sup,
		})
	}
	for _, m := range next {
		emit(m.set, m.sup)
	}
	if len(next) > 1 {
		computeFrequentDiffCtx(ctx, next, th, st, ar, emit)
	}
}

// computeFrequentDiffCtx is computeFrequent in diffset form: members
// share a common prefix and carry diffsets relative to their shared
// parent, with d(PXY) = d(PY) \ d(PX) and
// sup(PXY) = sup(PX) - |d(PXY)|. There is no §5.3 short-circuit here —
// the support is known only after the full difference — but the sets
// shrink level over level instead of the supports, which is exactly the
// trade the break-even gate prices.
func computeFrequentDiffCtx(ctx context.Context, members []dmember, th *threshold, st *Stats, ar *arena, emit Emitter) {
	var scratch tidlist.Set
	for i := 0; i < len(members)-1; i++ {
		if ctx.Err() != nil {
			return
		}
		minsup := th.current()
		mark := ar.mark()
		next := make([]dmember, 0, len(members)-1-i)
		for j := i + 1; j < len(members); j++ {
			st.Intersections++
			diffs, ops := tidlist.DiffSets(scratch, members[j].diffs, members[i].diffs, &st.Kernel)
			st.IntersectOps += int64(ops)
			scratch = diffs
			sup := members[i].sup - diffs.Support()
			if sup < minsup {
				continue
			}
			kept := ar.cloneSet(diffs)
			st.ListBytes += kept.SizeBytes()
			next = append(next, dmember{
				set:   members[i].set.Join(members[j].set),
				diffs: kept,
				sup:   sup,
			})
		}
		for _, m := range next {
			emit(m.set, m.sup)
		}
		if len(next) > 1 {
			computeFrequentDiffCtx(ctx, next, th, st, ar, emit)
		}
		ar.release(mark)
	}
}

// classMembers assembles the sorted member list of one L2 equivalence
// class from the global pair tid-list map, then applies the per-class
// representation policy: with ReprAuto the class's C(s,2) joins are
// priced under the merge kernel and under a packed one (see
// tidlist.ChooseRepr), so classes whose joins are cheaper in words get
// the word kernel and the rest keep the merge loop — the decision is as
// localized as the class computation itself.
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
// result seeded with L1 and L2, the pruned equivalence classes, and the
// source of each class's member tid-lists — the global per-pair
// tid-lists of a horizontal run, the item sets of a vertical one, or the
// CHARM roots.
type vertical struct {
	res     *mining.Result
	classes []eqclass.Class
	lists   map[tidlist.Pair]tidlist.List
	// roots, when non-nil, holds pre-assembled member lists (one per
	// class) instead of pair tid-lists — the CHARM root level, whose
	// members are frequent singletons rather than L2 pairs.
	roots [][]member
	// sets, when non-nil, marks a vertical-input run: lists is nil and
	// member lists are derived per class from the item sets (see
	// ooc.go), inside the class's residency window when budgeted.
	sets *itemSets
	// itemSup holds each item's L1 support (index = item id), the
	// prefix support that prices a top-level class's counted expansion;
	// nil for the CHARM roots.
	itemSup []int
}

// prefixSupport returns the support of class ci's prefix item, or 0
// when the run does not know it.
func (v *vertical) prefixSupport(ci int) int {
	if v.itemSup == nil {
		return 0
	}
	return v.itemSup[v.classes[ci].Prefix[0]]
}

// members assembles the sorted, representation-resolved member list of
// class ci — the one entry every engine driver fetches class operands
// through. Work done to assemble them is charged to st; member sets
// derived from item sets are carved from ar, which the driver marks
// before and releases after the class.
func (v *vertical) members(ci int, repr tidlist.Repr, st *Stats, ar *arena) []member {
	if v.roots != nil {
		m := v.roots[ci]
		applyClassRepr(m, repr, &st.Kernel)
		return m
	}
	if v.sets != nil {
		return v.sets.classMembers(&v.classes[ci], repr, st, ar)
	}
	return classMembers(&v.classes[ci], v.lists, repr, &st.Kernel)
}

// buildVertical runs the one-scan initialization (global 1- and 2-itemset
// counts) and the vertical transformation (per-pair tid-lists), recording
// the two phases on the ctx trace and charging st.Scans/st.Classes. A
// targeted query (opts.MustContain) filters the seeded L1/L2 itemsets and
// drops the equivalence classes whose prefix cannot contain the items —
// their tid-lists are never built.
func buildVertical(ctx context.Context, d *db.Database, minsup int, st *Stats, opts Options) *vertical {
	must := canonMust(opts.MustContain)
	res := &mining.Result{MinSup: minsup, NumTransactions: d.Len()}
	tr := obsv.TraceFrom(ctx)

	// Initialization: count 1-itemsets (for the result; Eclat itself never
	// needs them) and all 2-itemsets via the triangular array.
	sp := tr.Start("initialization")
	st.Scans++
	itemCounts := make([]int, d.NumItems)
	pc := paircount.New(d.NumItems)
	for _, tx := range d.Transactions {
		for _, it := range tx.Items {
			itemCounts[it]++
		}
		pc.AddTransaction(tx.Items)
	}
	for it, c := range itemCounts {
		if c >= minsup && (must == nil || containsAll(itemset.Itemset{itemset.Item(it)}, must)) {
			res.Add(itemset.Itemset{itemset.Item(it)}, c)
		}
	}
	freqPairs := pc.Frequent(minsup)
	l2 := make([]itemset.Itemset, 0, len(freqPairs))
	for _, fp := range freqPairs {
		set := fp.Pair.Itemset()
		if must == nil || containsAll(set, must) {
			res.Add(set, fp.Count)
		}
		l2 = append(l2, set)
	}
	sp.End()

	// Transformation: build tid-lists for every 2-itemset in a class with
	// at least two members (singleton classes generate no candidates).
	sp = tr.Start("transformation")
	classes := filterClasses(eqclass.PruneSingletons(eqclass.Partition(l2)), must)
	st.Classes = len(classes)
	npairs := 0
	for _, c := range classes {
		npairs += len(c.Members)
	}
	want := make(map[tidlist.Pair]bool, npairs)
	for _, c := range classes {
		for _, m := range c.Members {
			want[tidlist.Pair{A: m[0], B: m[1]}] = true
		}
	}
	st.Scans++
	lists := tidlist.BuildPairs(d, want)
	sp.End()

	return &vertical{res: res, classes: classes, lists: lists, itemSup: itemCounts}
}
