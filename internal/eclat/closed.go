package eclat

import (
	"repro/internal/itemset"
	"repro/internal/mining"
)

// closedFilter returns the closed subsets of a complete frequent
// collection (each itemset paired with its exact support), in input
// order. By the immediate-superset property an itemset is non-closed iff
// one of its single-item extensions has the same support, so marking
// each frequent set's (k-1)-subsets of equal support as non-closed
// visits each frequent set only k times.
func closedFilter(all []mining.FrequentItemset) []mining.FrequentItemset {
	sup := make(map[string]int, len(all))
	for _, f := range all {
		sup[f.Set.Key()] = f.Support
	}
	nonClosed := make(map[string]bool)
	for _, g := range all {
		if g.Set.K() < 2 {
			continue
		}
		for i := range g.Set {
			s := g.Set.Without(i)
			if sup[s.Key()] == g.Support {
				nonClosed[s.Key()] = true
			}
		}
	}
	var out []mining.FrequentItemset
	for _, f := range all {
		if !nonClosed[f.Set.Key()] {
			out = append(out, f)
		}
	}
	return out
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
