package eclat

import (
	"context"
	"sort"

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

// filterMaximal removes every candidate subsumed by another candidate,
// returning the true maximal sets (deduplicated). The outcome is
// independent of the candidate order (it sorts cands in place first),
// which is what makes the maximal output byte-identical at every worker
// count.
func filterMaximal(cands []mining.FrequentItemset) []mining.FrequentItemset {
	// Sort by size descending so keepers accumulate largest-first, and
	// dedupe identical sets.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Set.K() != cands[j].Set.K() {
			return cands[i].Set.K() > cands[j].Set.K()
		}
		return cands[i].Set.Less(cands[j].Set)
	})
	var out []mining.FrequentItemset
	seen := map[string]bool{}
	// byItem indexes kept sets by their first item: a subsuming superset
	// of c must contain c[0], so only those keepers need a subset check.
	byItem := map[itemset.Item][]int{}
	for _, c := range cands {
		if seen[c.Set.Key()] {
			continue
		}
		seen[c.Set.Key()] = true
		subsumed := false
		for _, ki := range byItem[c.Set[0]] {
			kept := out[ki]
			if c.Set.K() < kept.Set.K() && c.Set.SubsetOf(kept.Set) {
				subsumed = true
				break
			}
		}
		if !subsumed {
			idx := len(out)
			out = append(out, c)
			for _, it := range c.Set {
				byItem[it] = append(byItem[it], idx)
			}
		}
	}
	return out
}
