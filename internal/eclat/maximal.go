package eclat

import (
	"context"

	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/tidlist"
)

// computeMaximal mines one class under PolicyMaximal, emitting
// locally-maximal frequent sets (a superset of the globally maximal
// ones; the final reduction filters). Work counters and lookahead
// tallies land in st. Cancellation is checked once per sub-class, as in
// computeFrequent.
func computeMaximal(ctx context.Context, members []member, th *threshold, st *Stats, ar *arena, emit Emitter) {
	if len(members) == 0 {
		return
	}
	if len(members) == 1 {
		emit(members[0].set, members[0].tids.Support())
		return
	}
	minsup := th.current()

	// Top-down lookahead: the class's top itemset is the union of all
	// members; its tid-list is the k-way intersection of all member
	// lists. The k-way kernel folds smallest-support-first and rotates
	// its two scratch buffers, so a long prefix costs at most two
	// intermediate allocations and the §5.3 bound aborts the fold as
	// early as the operand order allows. On abort the partial result is
	// discarded with the lookahead (the ok=false contract).
	st.Lookaheads++
	opSets := make([]tidlist.Set, len(members))
	for i, m := range members {
		opSets[i] = m.tids
	}
	top, ops, folds, feasible := tidlist.IntersectKSetsSC(opSets, minsup, &st.Kernel)
	st.Intersections += int64(folds)
	st.IntersectOps += int64(ops)
	if feasible {
		st.LookaheadHits++
		union := members[0].set
		for _, m := range members[1:] {
			union = union.Union(m.set)
		}
		emit(union, top.Support())
		return
	}
	st.ShortCircuited++

	// Bottom-up expansion, emitting members with no frequent extension.
	for i := 0; i < len(members); i++ {
		if ctx.Err() != nil {
			return
		}
		mark := ar.mark()
		next := ar.nextMembers(len(members) - 1 - i)
		for j := i + 1; j < len(members); j++ {
			st.Intersections++
			tids, ops, ok := tidlist.IntersectSetsSC(ar.scratch(members[i].tids, members[j].tids), members[i].tids, members[j].tids, minsup, &st.Kernel)
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
		if len(next) == 0 {
			emit(members[i].set, members[i].tids.Support())
		} else {
			computeMaximal(ctx, next, th, st, ar, emit)
		}
		ar.release(mark)
	}
}

// filterMaximal returns the candidates no other candidate subsumes —
// the true maximal sets, deduplicated — in the canonical order cands is
// in, where a duplicate sits next to its twin; it filters cands in
// place. It visits the distinct candidates largest first, in a counting
// sort over their sizes, and checks each against the larger keepers
// indexed under its least-shared item: a superset holds every item of
// the set it subsumes.
func filterMaximal(cands []mining.FrequentItemset) []mining.FrequentItemset {
	if len(cands) == 0 {
		return cands
	}
	maxK, maxItem := 0, itemset.Item(0)
	for _, c := range cands {
		maxK, maxItem = max(maxK, len(c.Set)), max(maxItem, c.Set[len(c.Set)-1])
	}
	// bySize[k] counts the distinct k-sets, then is the cursor of their
	// stretch of order, larger sizes first. start[it] counts the
	// distinct sets holding item it, then is where its keepers begin in
	// keepers, and end[it] where they end so far.
	bySize := make([]int, maxK+1)
	start := make([]int32, 2*int(maxItem)+2)
	end := start[maxItem+1:]
	dup := func(i int) bool { return i > 0 && cands[i].Set.Equal(cands[i-1].Set) }
	distinct := 0
	for i, c := range cands {
		if dup(i) {
			continue
		}
		distinct++
		bySize[len(c.Set)]++
		for _, it := range c.Set {
			start[it]++
		}
	}
	var pos int
	for k := maxK; k > 0; k-- {
		bySize[k], pos = pos, pos+bySize[k]
	}
	order := make([]int32, distinct)
	for i, c := range cands {
		if dup(i) {
			continue
		}
		order[bySize[len(c.Set)]] = int32(i)
		bySize[len(c.Set)]++
	}
	var total int32
	for it, n := range start[:maxItem+1] {
		start[it], end[it] = total, total
		total += n
	}

	keepers := make([]int32, total)
	kept := make([]bool, len(cands))
	for _, i := range order {
		set := cands[i].Set
		least := set[0]
		for _, it := range set[1:] {
			if end[it]-start[it] < end[least]-start[least] {
				least = it
			}
		}
		subsumed := false
		for _, ki := range keepers[start[least]:end[least]] {
			if sup := cands[ki].Set; len(set) < len(sup) && set.SubsetOf(sup) {
				subsumed = true
				break
			}
		}
		if subsumed {
			continue
		}
		kept[i] = true
		for _, it := range set {
			keepers[end[it]] = i
			end[it]++
		}
	}
	out := cands[:0]
	for i, c := range cands {
		if kept[i] {
			out = append(out, c)
		}
	}
	clear(cands[len(out):])
	return out
}
