// Package mining defines the common output representation shared by every
// mining algorithm in this repository (Apriori, sequential/parallel Eclat,
// Count/Data/Candidate Distribution): the set of frequent itemsets with
// their absolute support counts. Having one canonical, sorted
// representation is what lets the integration tests assert that all
// algorithms produce byte-identical answers.
package mining

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/itemset"
)

// FrequentItemset pairs an itemset with its absolute support count.
type FrequentItemset struct {
	Set     itemset.Itemset
	Support int
}

// Result is the outcome of a frequent-itemset mining run.
type Result struct {
	// MinSup is the absolute minimum support count used.
	MinSup int
	// NumTransactions is |D|, needed to express supports as percentages.
	NumTransactions int
	// Itemsets, sorted lexicographically after Sort.
	Itemsets []FrequentItemset
}

// Add appends a frequent itemset.
func (r *Result) Add(set itemset.Itemset, support int) {
	r.Itemsets = append(r.Itemsets, FrequentItemset{Set: set, Support: support})
}

// Sort orders the itemsets lexicographically (shorter prefixes first),
// the canonical presentation order.
func (r *Result) Sort() {
	slices.SortFunc(r.Itemsets, func(a, b FrequentItemset) int {
		return itemset.Compare(a.Set, b.Set)
	})
}

// TruncateTopK keeps only the k highest-support itemsets, breaking
// support ties lexicographically (smaller itemsets win), then restores
// the canonical sort order. It is both the top-k miner's final
// truncation and the oracle the equivalence tests compare against: a
// full mine followed by TruncateTopK is byte-identical to the adaptive
// top-k mine. k ≤ 0 or k ≥ Len leaves the result unchanged — callers
// must not rely on it re-sorting an unsorted result in that case.
//
// A truncated result generally violates downward closure (a subset of a
// kept itemset may rank below the cut), so Verify must not be called on
// it.
func (r *Result) TruncateTopK(k int) {
	if k <= 0 || len(r.Itemsets) <= k {
		return
	}
	slices.SortFunc(r.Itemsets, func(a, b FrequentItemset) int {
		if c := cmp.Compare(b.Support, a.Support); c != 0 {
			return c
		}
		return itemset.Compare(a.Set, b.Set)
	})
	r.Itemsets = r.Itemsets[:k:k]
	r.Sort()
}

// Len returns the number of frequent itemsets.
func (r *Result) Len() int { return len(r.Itemsets) }

// MaxK returns the size of the largest frequent itemset (0 if none).
func (r *Result) MaxK() int {
	max := 0
	for _, f := range r.Itemsets {
		if f.Set.K() > max {
			max = f.Set.K()
		}
	}
	return max
}

// CountsByK returns, for each k, the number of frequent k-itemsets — the
// series plotted in the paper's figure 6.
func (r *Result) CountsByK() map[int]int {
	out := map[int]int{}
	for _, f := range r.Itemsets {
		out[f.Set.K()]++
	}
	return out
}

// SupportMap returns itemset-key -> support, the form used for equality
// checks and by rule generation.
func (r *Result) SupportMap() map[string]int {
	out := make(map[string]int, len(r.Itemsets))
	for _, f := range r.Itemsets {
		out[f.Set.Key()] = f.Support
	}
	return out
}

// SupportOf returns the support of set, or 0 if it is not frequent.
func (r *Result) SupportOf(set itemset.Itemset) int {
	// Results are modest in size; build-on-demand would complicate the
	// API, so do a linear probe via the map only when called repeatedly.
	for _, f := range r.Itemsets {
		if f.Set.Equal(set) {
			return f.Support
		}
	}
	return 0
}

// Equal reports whether two results contain exactly the same itemsets with
// the same supports (order-insensitive).
func Equal(a, b *Result) bool {
	if a.Len() != b.Len() {
		return false
	}
	am := a.SupportMap()
	for _, f := range b.Itemsets {
		if am[f.Set.Key()] != f.Support {
			return false
		}
	}
	return true
}

// Diff describes the first few discrepancies between two results, for test
// failure messages.
func Diff(a, b *Result) string {
	am, bm := a.SupportMap(), b.SupportMap()
	var sb strings.Builder
	n := 0
	report := func(key string, supA, supB int) {
		if n >= 10 {
			return
		}
		set, _ := itemset.ParseKey(key)
		fmt.Fprintf(&sb, "%v: a=%d b=%d\n", set, supA, supB)
		n++
	}
	for k, v := range am {
		if bm[k] != v {
			report(k, v, bm[k])
		}
	}
	for k, v := range bm {
		if _, ok := am[k]; !ok {
			report(k, 0, v)
		}
	}
	if sb.Len() == 0 {
		return "results identical"
	}
	return sb.String()
}

// Verify checks internal consistency: all supports >= MinSup, itemsets
// sorted and distinct, and downward closure (every sub-itemset of a
// frequent itemset is frequent with at least the superset's support).
func (r *Result) Verify() error {
	m := r.SupportMap()
	if len(m) != len(r.Itemsets) {
		return fmt.Errorf("mining: duplicate itemsets in result")
	}
	for _, f := range r.Itemsets {
		if f.Support < r.MinSup {
			return fmt.Errorf("mining: %v has support %d < minsup %d", f.Set, f.Support, r.MinSup)
		}
		if f.Set.K() == 0 {
			return fmt.Errorf("mining: empty itemset in result")
		}
		for i := range f.Set {
			sub := f.Set.Without(i)
			if sub.K() == 0 {
				continue
			}
			subSup, ok := m[sub.Key()]
			if !ok {
				return fmt.Errorf("mining: closure violated: %v frequent but subset %v missing", f.Set, sub)
			}
			if subSup < f.Support {
				return fmt.Errorf("mining: anti-monotonicity violated: sup(%v)=%d < sup(%v)=%d",
					sub, subSup, f.Set, f.Support)
			}
		}
	}
	return nil
}
