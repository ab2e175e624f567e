// Package paircount implements the upper-triangular 2-itemset counter used
// by Eclat's initialization phase (paper section 5.1: "For computing
// 2-itemsets we use an upper triangular array, local to each processor,
// indexed by the items in the database in both dimensions") and by the
// pass-2 optimization of the horizontal algorithms.
//
// With m items the counter holds C(m,2) uint16 cells in one contiguous
// slice, 2·C(m,2) bytes: the paper's N=1000 triangle takes 0.95 MiB, half
// of what int32 cells take. A cell gains at most one per transaction, so
// it cannot wrap within math.MaxUint16 transactions. Before the counter
// counts more than that many since its last fold, it folds: it adds the
// cells into an int32 vector of the same length, allocated at the first
// fold, and clears them. That vector is the reduction vector the paper
// sum-reduces over the Memory Channel, so Counts and Merge fold too. A
// folded counter holds 6·C(m,2) bytes.
package paircount

import (
	"fmt"
	"math"

	"repro/internal/db"
	"repro/internal/itemset"
	"repro/internal/tidlist"
)

// Counter counts occurrences of every unordered item pair over an
// m-item universe. A pair's count is its uint16 cell plus, once the
// counter has folded, its slot of the int32 vector.
type Counter struct {
	m     int
	cells []uint16
	// folded is nil until the first fold.
	folded []int32
	// pending counts the transactions with a pair added to cells since
	// the last fold; no cell exceeds it.
	pending int
}

// New returns a zeroed counter for an m-item universe.
func New(m int) *Counter {
	if m < 0 {
		panic(fmt.Sprintf("paircount: negative universe %d", m))
	}
	return &Counter{m: m, cells: make([]uint16, int64(m)*int64(m-1)/2)}
}

// NumItems returns the universe size m.
func (c *Counter) NumItems() int { return c.m }

// NumCells returns C(m,2), the reduction vector length (the paper's
// "array of size (m choose 2) on the shared Memory Channel region").
func (c *Counter) NumCells() int { return len(c.cells) }

// index maps a pair (a < b) to its triangular slot.
func (c *Counter) index(a, b itemset.Item) int {
	// Row a occupies (m-1) + (m-2) + ... slots; standard closed form.
	ia, ib := int64(a), int64(b)
	m := int64(c.m)
	return int(ia*(2*m-ia-1)/2 + (ib - ia - 1))
}

// fold adds the cells into the int32 vector, allocating it at the first
// fold, and clears them.
func (c *Counter) fold() {
	if c.folded == nil {
		c.folded = make([]int32, len(c.cells))
	}
	for i, n := range c.cells {
		c.folded[i] += int32(n)
	}
	clear(c.cells)
	c.pending = 0
}

// AddTransaction counts all C(len,2) pairs of one transaction. items
// must be strictly ascending and every item < m. Each prefix a slices its
// row of the triangle once, so pair {a, b} is the row's cell b-a-1.
func (c *Counter) AddTransaction(items itemset.Itemset) {
	if len(items) < 2 {
		return
	}
	if c.pending == math.MaxUint16 {
		c.fold()
	}
	c.pending++
	for i := 0; i+1 < len(items); i++ {
		a := items[i]
		base := c.index(a, a+1)
		row := c.cells[base : base+c.m-int(a)-1]
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
	i := c.index(a, b)
	n := int(c.cells[i])
	if c.folded != nil {
		n += int(c.folded[i])
	}
	return n
}

// Merge adds other's counts into c: the sum-reduction step. It folds c
// and adds other's cells and vector into c's vector, leaving other
// unchanged. Universes must match.
func (c *Counter) Merge(other *Counter) {
	if other.m != c.m {
		panic(fmt.Sprintf("paircount: merging universes %d and %d", other.m, c.m))
	}
	c.fold()
	v := c.folded
	for i, n := range other.cells {
		v[i] += int32(n)
	}
	for i, n := range other.folded {
		v[i] += n
	}
}

// Frequent returns every pair with count >= minsup, in lexicographic
// order, along with its count. It sweeps the triangle one row slice per
// prefix item.
func (c *Counter) Frequent(minsup int) []FrequentPair {
	var out []FrequentPair
	base := 0
	for a := 0; a+1 < c.m; a++ {
		n := c.m - a - 1
		row := c.cells[base : base+n : base+n]
		if c.folded == nil {
			for j, v := range row {
				if int(v) >= minsup {
					out = append(out, frequentPair(a, j, int(v)))
				}
			}
		} else {
			vec := c.folded[base : base+n : base+n]
			for j, v := range row {
				if cnt := int(v) + int(vec[j]); cnt >= minsup {
					out = append(out, frequentPair(a, j, cnt))
				}
			}
		}
		base += n
	}
	return out
}

// frequentPair is the j-th cell of prefix a's row: the pair {a, a+1+j}.
func frequentPair(a, j, count int) FrequentPair {
	return FrequentPair{
		Pair:  tidlist.Pair{A: itemset.Item(a), B: itemset.Item(a + 1 + j)},
		Count: count,
	}
}

// FrequentPair is a frequent 2-itemset with its global support.
type FrequentPair struct {
	Pair  tidlist.Pair
	Count int
}

// SizeBytes is the modeled wire size of the int32 reduction vector,
// 4·C(m,2), charged to the network model when partial counts are
// exchanged. It is not the counter's heap footprint (see the package
// doc).
func (c *Counter) SizeBytes() int64 { return 4 * int64(len(c.cells)) }

// Counts folds the cells into the int32 reduction vector and returns
// that vector (live, not a copy) so parallel algorithms can sum-reduce it
// as a flat int32 array, exactly as the paper lays it out in the shared
// Memory Channel region. Pairs counted after the call reach the vector at
// the next fold.
func (c *Counter) Counts() []int32 {
	c.fold()
	return c.folded
}

// FromCounts wraps a reduced global vector back into a Counter over an
// m-item universe. The vector length must be C(m,2).
func FromCounts(m int, counts []int32) *Counter {
	c := New(m)
	if len(counts) != len(c.cells) {
		panic(fmt.Sprintf("paircount: vector length %d does not match C(%d,2)=%d", len(counts), m, len(c.cells)))
	}
	c.folded = counts
	return c
}
