// Package tidlist implements the vertical (inverted) database layout of
// section 4.2 of the paper: each itemset is represented by the sorted list
// of transaction identifiers that contain it, and the support of a
// candidate k-itemset is the length of the intersection of the tid-lists
// of two of its (k-1)-subsets.
//
// The package provides plain and short-circuited intersections (section
// 5.3, "Short-Circuited Intersections"), construction of 2-itemset
// tid-lists from a horizontal partition, and ordered concatenation of
// partial per-partition lists into global lists — valid because block
// partitions carry disjoint, monotonically increasing TID ranges (section
// 6.3).
//
// The sorted slice is one of three pluggable representations behind the
// Set abstraction (see set.go): SparseList (this file's List) keeps the
// paper's scalar merge kernels, Bitset (bitset.go) packs 64 TIDs per word
// and intersects with AND + popcount, and Roaring (roaring.go) picks a
// container per 64K-TID chunk. ChooseRepr picks one per equivalence class
// by pricing the class's C(s,2) joins under the merge kernel and under a
// packed one, and the IntersectSets/DiffSets dispatchers let the mining
// recursion stay representation-agnostic.
package tidlist

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/db"
	"repro/internal/itemset"
)

// List is a tid-list: transaction identifiers in strictly increasing
// order. Support of the associated itemset is len(list).
type List []itemset.TID

// Clone returns an independent copy of l.
func (l List) Clone() List {
	c := make(List, len(l))
	copy(c, l)
	return c
}

// Support returns the number of transactions containing the itemset, i.e.
// the cardinality of the tid-list.
func (l List) Support() int { return len(l) }

// Validate checks the strictly-increasing invariant.
func (l List) Validate() error {
	for i := 1; i < len(l); i++ {
		if l[i-1] >= l[i] {
			return fmt.Errorf("tidlist: not strictly increasing at index %d (%d >= %d)", i, l[i-1], l[i])
		}
	}
	return nil
}

// Intersect returns the sorted intersection of a and b.
func Intersect(a, b List) List {
	return IntersectInto(make(List, 0, min(len(a), len(b))), a, b)
}

// IntersectInto appends the intersection of a and b to dst (which is
// truncated first) and returns it; it lets the Eclat inner loop reuse a
// scratch buffer across intersections.
func IntersectInto(dst, a, b List) List {
	dst = dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// IntersectShortCircuit intersects a and b but aborts as soon as the
// result can no longer reach minsup: after m mismatches the support of the
// result is bounded above by min(len(a), len(b)) - m (the paper's example:
// minsup 100, |AB| = 119, stop at 20 mismatches in AB). It returns the
// (possibly partial) intersection, the number of comparison operations
// performed, and ok=false if the bound was hit.
//
// When ok is false the returned list must not be used as a tid-list — it
// is an incomplete prefix retained only so callers can reuse its storage.
func IntersectShortCircuit(dst, a, b List, minsup int) (result List, ops int, ok bool) {
	dst = dst[:0]
	if min(len(a), len(b)) < minsup {
		return dst, 0, false
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ops++
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
		// The result can gain at most min(remaining_a, remaining_b) more
		// matches; abort once even that cannot reach minsup.
		if len(dst)+min(len(a)-i, len(b)-j) < minsup {
			return dst, ops, false
		}
	}
	if len(dst) < minsup {
		return dst, ops, false
	}
	return dst, ops, true
}

// Diff returns the sorted difference a \ b. Difference lists ("diffsets")
// are the representation of the dEclat refinement: deep in the lattice a
// candidate's diffset is far smaller than its tid-list, because supports
// shrink slowly within an equivalence class.
func Diff(a, b List) List {
	return DiffInto(make(List, 0, len(a)), a, b)
}

// DiffInto appends a \ b to dst (truncated first) and returns it.
func DiffInto(dst, a, b List) List {
	dst = dst[:0]
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		dst = append(dst, x)
	}
	return dst
}

// Pair keys a 2-itemset {A, B} with A < B, the granularity at which the
// vertical transformation operates (tid-lists exist per frequent
// 2-itemset; 1-itemset lists are never built, per section 5.1).
type Pair struct {
	A, B itemset.Item
}

// MakePair normalizes item order.
func MakePair(a, b itemset.Item) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{a, b}
}

// Itemset returns the pair as a 2-itemset.
func (p Pair) Itemset() itemset.Itemset { return itemset.Itemset{p.A, p.B} }

// BuildPairs scans a horizontal partition once and returns the partial
// tid-lists of every pair in want. This is Eclat's second local scan
// ("each processor scans its local database and constructs partial
// tid-lists for all the frequent 2-itemsets"). The result holds one entry
// per wanted pair that occurs in part; pairs with want[p] false or A >= B
// are never built. Lists come out sorted because transactions are visited
// in TID order.
//
// The scan probes no map. The wanted pairs, sorted by (A, B), are the
// slots of the output; first[a]..first[a+1] spans the partners of prefix
// a, a CSR over the items. Each transaction is first reduced to its items
// that occur in some wanted pair, then each kept item's partner run is
// merge-walked against the kept items after it. Extra memory is
// O(|want| + part.NumItems); items outside [0, part.NumItems) never occur
// in a valid partition, so pairs over them are never built.
func BuildPairs(part *db.Database, want map[Pair]bool) map[Pair]List {
	pairs := make([]Pair, 0, len(want))
	n := 0 // one past the largest item of any kept pair
	for p, ok := range want {
		if ok && 0 <= p.A && p.A < p.B && int(p.B) < part.NumItems {
			pairs = append(pairs, p)
			n = max(n, int(p.B)+1)
		}
	}
	out := make(map[Pair]List, len(pairs))
	if len(pairs) == 0 {
		return out
	}
	slices.SortFunc(pairs, func(x, y Pair) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
	})
	first := make([]int32, n+1)
	inPair := make([]bool, n)
	for _, p := range pairs {
		first[p.A+1]++
		inPair[p.A], inPair[p.B] = true, true
	}
	for a := 1; a <= n; a++ {
		first[a] += first[a-1]
	}

	lists := make([]List, len(pairs))
	var kept itemset.Itemset
	for _, tx := range part.Transactions {
		kept = kept[:0]
		for _, it := range tx.Items {
			if uint(it) < uint(n) && inPair[it] {
				kept = append(kept, it)
			}
		}
		for i, a := range kept {
			s, end := first[a], first[a+1]
			rest := kept[i+1:]
			for j := 0; s < end && j < len(rest); {
				switch b := pairs[s].B; {
				case b < rest[j]:
					s++
				case b > rest[j]:
					j++
				default:
					lists[s] = append(lists[s], tx.TID)
					s++
					j++
				}
			}
		}
	}
	for s, l := range lists {
		if l != nil {
			out[pairs[s]] = l
		}
	}
	return out
}

// ConcatPartitions concatenates per-partition partial lists in partition
// order. Because block partitions have disjoint increasing TID ranges, the
// concatenation is already sorted; Validate is run in tests to prove it.
// Nil partials are skipped (a partition may not contain the itemset).
func ConcatPartitions(partials []List) List {
	var total int
	for _, p := range partials {
		total += len(p)
	}
	out := make(List, 0, total)
	for _, p := range partials {
		out = append(out, p...)
	}
	return out
}

// SizeBytes returns the encoded size of the list (4 bytes per TID), used
// by the communication and disk cost models.
func (l List) SizeBytes() int64 { return 4 * int64(len(l)) }
