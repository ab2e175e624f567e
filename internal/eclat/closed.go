package eclat

import (
	"cmp"

	"repro/internal/itemset"
	"repro/internal/mining"
)

// closedFilter returns the closed itemsets of a complete frequent
// collection in canonical order (each itemset paired with its exact
// support), keeping that order; it filters all in place. By the
// immediate-superset property an itemset is non-closed iff one of its
// single-item extensions has the same support, so each k-itemset finds
// its k immediate subsets and marks those of equal support.
//
// Canonical order is a preorder of the prefix tree, so when the scan
// reaches an itemset g, the last itemset of each shorter size it saw is
// a prefix of g: anc[d] is the index of g's (d+1)-prefix, and the
// subset dropping g's last item is its parent, anc[k-2]. The subset
// dropping item s < k-1 follows g's (s+1)-prefix in order, and over
// the itemsets under one such prefix those subsets ascend, so cur[s],
// reset when the scan passes a new (s+1)-prefix, only moves forward:
// each subset is a search galloping on from the last.
func closedFilter(all []mining.FrequentItemset) []mining.FrequentItemset {
	maxK := 0
	for _, f := range all {
		maxK = max(maxK, len(f.Set))
	}
	nonClosed := make([]bool, len(all))
	depth := make([]int, 2*maxK)
	anc, cur := depth[:maxK], depth[maxK:]
	mark := func(i, sup int) {
		if all[i].Support == sup {
			nonClosed[i] = true
		}
	}
	for i, g := range all {
		k := len(g.Set)
		for s := 0; s < k-1; s++ {
			cur[s] = seekWithout(all, cur[s]+1, g.Set, s)
			if cur[s] < len(all) && compareWithout(all[cur[s]].Set, g.Set, s) == 0 {
				mark(cur[s], g.Support)
			}
		}
		if k > 1 {
			mark(anc[k-2], g.Support)
		}
		anc[k-1], cur[k-1] = i, i
	}
	out := all[:0]
	for i, f := range all {
		if !nonClosed[i] {
			out = append(out, f)
		}
	}
	clear(all[len(out):])
	return out
}

// seekWithout returns the index of the first itemset at or after lo in
// the canonically ordered all that does not sort before set without its
// item at skip: that subset's index when all holds it. It gallops from
// lo, so a search costs the logarithm of the distance it moves.
func seekWithout(all []mining.FrequentItemset, lo int, set itemset.Itemset, skip int) int {
	hi := lo
	for step := 1; hi < len(all) && compareWithout(all[hi].Set, set, skip) < 0; step *= 2 {
		lo, hi = hi+1, hi+step
	}
	hi = min(hi, len(all))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if compareWithout(all[mid].Set, set, skip) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// compareWithout is itemset.Compare(s, t without its item at skip).
func compareWithout(s, t itemset.Itemset, skip int) int {
	n := len(t) - 1
	for i := 0; i < len(s) && i < n; i++ {
		x := t[i]
		if i >= skip {
			x = t[i+1]
		}
		if s[i] != x {
			return cmp.Compare(s[i], x)
		}
	}
	return cmp.Compare(len(s), n)
}

// SupportFromClosed reconstructs the support of an arbitrary itemset from
// a closed-itemset result: it is the maximum support among closed
// supersets, or 0 if no closed superset exists (the itemset is not
// frequent). This is the losslessness property the closed representation
// is used for.
func SupportFromClosed(closed *mining.Result, set itemset.Itemset) int {
	best := 0
	for _, c := range closed.Itemsets {
		if set.SubsetOf(c.Set) && c.Support > best {
			best = c.Support
		}
	}
	return best
}
