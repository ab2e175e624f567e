// Package paircount implements the upper-triangular 2-itemset counter used
// by Eclat's initialization phase (paper section 5.1: "For computing
// 2-itemsets we use an upper triangular array, local to each processor,
// indexed by the items in the database in both dimensions") and by the
// pass-2 optimization of the horizontal algorithms. With m items it holds
// C(m,2) counters in one contiguous slice, so a sum-reduction across
// processors is a single vector add — exactly the shared-region reduction
// the paper performs over the Memory Channel.
package paircount

import (
	"fmt"

	"repro/internal/db"
	"repro/internal/itemset"
	"repro/internal/tidlist"
)

// Counter counts occurrences of every unordered item pair over an
// m-item universe.
type Counter struct {
	m      int
	counts []int32
}

// New returns a zeroed counter for an m-item universe.
func New(m int) *Counter {
	if m < 0 {
		panic(fmt.Sprintf("paircount: negative universe %d", m))
	}
	return &Counter{m: m, counts: make([]int32, int64(m)*int64(m-1)/2)}
}

// NumItems returns the universe size m.
func (c *Counter) NumItems() int { return c.m }

// NumCells returns C(m,2), the reduction vector length (the paper's
// "array of size (m choose 2) on the shared Memory Channel region").
func (c *Counter) NumCells() int { return len(c.counts) }

// index maps a pair (a < b) to its triangular slot.
func (c *Counter) index(a, b itemset.Item) int {
	// Row a occupies (m-1) + (m-2) + ... slots; standard closed form.
	ia, ib := int64(a), int64(b)
	m := int64(c.m)
	return int(ia*(2*m-ia-1)/2 + (ib - ia - 1))
}

// AddTransaction counts all C(len,2) pairs of one transaction. items
// must be strictly ascending and every item < m. Each prefix a slices its
// row of the triangle once, so pair {a, b} is the row's cell b-a-1.
func (c *Counter) AddTransaction(items itemset.Itemset) {
	for i := 0; i+1 < len(items); i++ {
		a := items[i]
		base := c.index(a, a+1)
		row := c.counts[base : base+c.m-int(a)-1]
		for _, b := range items[i+1:] {
			row[b-a-1]++
		}
	}
}

// AddPartition counts every transaction of a partition and returns the
// number of pair increments performed (the (l choose 2) * |D| operation
// count of section 4.2).
func (c *Counter) AddPartition(part *db.Database) (ops int64) {
	for _, tx := range part.Transactions {
		l := int64(len(tx.Items))
		ops += l * (l - 1) / 2
		c.AddTransaction(tx.Items)
	}
	return ops
}

// Count returns the count of the pair {a,b}; order of arguments is
// irrelevant, equal items panic (no self-pairs exist).
func (c *Counter) Count(a, b itemset.Item) int {
	if a == b {
		panic(fmt.Sprintf("paircount: self pair %d", a))
	}
	if a > b {
		a, b = b, a
	}
	return int(c.counts[c.index(a, b)])
}

// Merge adds other's counts into c: the sum-reduction step. Universes must
// match.
func (c *Counter) Merge(other *Counter) {
	if other.m != c.m {
		panic(fmt.Sprintf("paircount: merging universes %d and %d", other.m, c.m))
	}
	for i, v := range other.counts {
		c.counts[i] += v
	}
}

// Frequent returns every pair with count >= minsup, in lexicographic
// order, along with its count.
func (c *Counter) Frequent(minsup int) []FrequentPair {
	var out []FrequentPair
	idx := 0
	for a := 0; a < c.m; a++ {
		for b := a + 1; b < c.m; b++ {
			if int(c.counts[idx]) >= minsup {
				out = append(out, FrequentPair{
					Pair:  tidlist.Pair{A: itemset.Item(a), B: itemset.Item(b)},
					Count: int(c.counts[idx]),
				})
			}
			idx++
		}
	}
	return out
}

// FrequentPair is a frequent 2-itemset with its global support.
type FrequentPair struct {
	Pair  tidlist.Pair
	Count int
}

// SizeBytes is the byte size of the reduction vector, charged to the
// network model when partial counts are exchanged.
func (c *Counter) SizeBytes() int64 { return 4 * int64(len(c.counts)) }

// Counts exposes the raw triangular vector (live, not a copy) so parallel
// algorithms can sum-reduce it as a flat int32 array, exactly as the paper
// lays it out in the shared Memory Channel region.
func (c *Counter) Counts() []int32 { return c.counts }

// FromCounts wraps a reduced global vector back into a Counter over an
// m-item universe. The vector length must be C(m,2).
func FromCounts(m int, counts []int32) *Counter {
	c := New(m)
	if len(counts) != len(c.counts) {
		panic(fmt.Sprintf("paircount: vector length %d does not match C(%d,2)=%d", len(counts), m, len(c.counts)))
	}
	c.counts = counts
	return c
}
