// Package hashtree implements the candidate hash tree of Apriori (paper
// section 2): an internal node at depth d holds a hash table over the
// d-th item of a candidate; all candidates live in leaves. Support
// counting enumerates, for each transaction, the descent paths induced by
// the transaction's items and checks candidates in reached leaves.
//
// Two details follow the CCPD implementation the paper benchmarks against:
//
//   - a per-candidate last-counted-TID marker prevents double counting when
//     hash collisions make several descent paths reach the same leaf for
//     one transaction;
//   - the descent is short-circuited when too few transaction items remain
//     to complete a k-subset ("short-circuited subset counting", [16]).
//
// Counts live outside the tree, in a CountState, so that many counters
// (the simulated processors) can share one read-only tree. Counting
// returns the number of node visits and subset checks performed, which
// feeds the virtual-time cost model in internal/cluster.
package hashtree

import (
	"fmt"

	"repro/internal/itemset"
)

// Candidate is a k-itemset stored in the tree.
type Candidate struct {
	Set itemset.Itemset

	index int // insertion position; indexes CountState vectors
}

// Index returns the candidate's insertion position, the index of its
// counter in a CountState.
func (c *Candidate) Index() int { return c.index }

type node struct {
	// Exactly one of children/leaf is non-nil. children is indexed by
	// hash(item); leaf holds candidates directly.
	children []*node
	leaf     []*Candidate
}

// Tree is a candidate hash tree for k-itemsets.
type Tree struct {
	k       int
	fanout  int
	leafCap int
	root    *node
	cands   []*Candidate
}

// Option configures tree geometry.
type Option func(*Tree)

// WithFanout sets the hash-table width of interior nodes (default 64).
func WithFanout(f int) Option {
	return func(t *Tree) {
		if f > 0 {
			t.fanout = f
		}
	}
}

// WithLeafCap sets the number of candidates a leaf holds before it is
// split (default 8); leaves at maximum depth never split.
func WithLeafCap(c int) Option {
	return func(t *Tree) {
		if c > 0 {
			t.leafCap = c
		}
	}
}

// New returns an empty hash tree for k-itemsets.
func New(k int, opts ...Option) *Tree {
	if k < 1 {
		panic(fmt.Sprintf("hashtree: invalid k %d", k))
	}
	t := &Tree{k: k, fanout: 64, leafCap: 8, root: &node{}}
	for _, o := range opts {
		o(t)
	}
	return t
}

// K returns the candidate size the tree stores.
func (t *Tree) K() int { return t.k }

// Len returns the number of candidates inserted.
func (t *Tree) Len() int { return len(t.cands) }

// Candidates returns all stored candidates (shared, not copied).
func (t *Tree) Candidates() []*Candidate { return t.cands }

func (t *Tree) hash(it itemset.Item) int { return int(it) % t.fanout }

// Insert adds a candidate k-itemset. It panics if the itemset has the
// wrong size, which would corrupt the descent logic.
func (t *Tree) Insert(set itemset.Itemset) *Candidate {
	if len(set) != t.k {
		panic(fmt.Sprintf("hashtree: inserting %d-itemset into tree of k=%d", len(set), t.k))
	}
	c := &Candidate{Set: set, index: len(t.cands)}
	t.cands = append(t.cands, c)
	t.insert(t.root, c, 0)
	return c
}

func (t *Tree) insert(n *node, c *Candidate, depth int) {
	for n.children != nil {
		h := t.hash(c.Set[depth])
		if n.children[h] == nil {
			n.children[h] = &node{}
		}
		n = n.children[h]
		depth++
	}
	n.leaf = append(n.leaf, c)
	if len(n.leaf) > t.leafCap && depth < t.k {
		t.split(n, depth)
	}
}

func (t *Tree) split(n *node, depth int) {
	cands := n.leaf
	n.leaf = nil
	n.children = make([]*node, t.fanout)
	for _, c := range cands {
		h := t.hash(c.Set[depth])
		if n.children[h] == nil {
			n.children[h] = &node{}
		}
		child := n.children[h]
		child.leaf = append(child.leaf, c)
		// Recursive split if everything hashed into one bucket.
		if len(child.leaf) > t.leafCap && depth+1 < t.k {
			t.split(child, depth+1)
		}
	}
}

// Search returns the candidate equal to set, or nil.
func (t *Tree) Search(set itemset.Itemset) *Candidate {
	if len(set) != t.k {
		return nil
	}
	n, depth := t.root, 0
	for n.children != nil {
		n = n.children[t.hash(set[depth])]
		if n == nil {
			return nil
		}
		depth++
	}
	for _, c := range n.leaf {
		if c.Set.Equal(set) {
			return c
		}
	}
	return nil
}

// SizeBytes estimates the resident memory of the tree: interior hash
// tables, leaf vectors and candidate itemsets. Count Distribution
// replicates this structure on every processor ("since the entire hash
// tree is replicated on each processor, it doesn't utilize the aggregate
// memory efficiently"), so this figure drives the paging model.
func (t *Tree) SizeBytes() int64 {
	var walk func(n *node) int64
	walk = func(n *node) int64 {
		if n == nil {
			return 0
		}
		if n.leaf != nil {
			return 48 + 8*int64(len(n.leaf))
		}
		total := int64(48 + 8*len(n.children))
		for _, ch := range n.children {
			total += walk(ch)
		}
		return total
	}
	size := walk(t.root)
	for _, c := range t.cands {
		size += 32 + 4*int64(len(c.Set))
	}
	return size
}

// CountState holds the support counters of a tree's candidates, indexed
// by insertion position, and each candidate's last-counted-TID marker.
// Many concurrent counters (the simulated processors) can share one
// read-only tree structure. On the real machine each processor holds a
// private replica — the cost model charges that replication through the
// paging model; sharing the structure here only conserves the
// simulator's own memory.
type CountState struct {
	Counts  []int32
	lastTID []itemset.TID
}

// NewCountState returns zeroed counters for the tree's candidates.
func (t *Tree) NewCountState() *CountState {
	st := &CountState{
		Counts:  make([]int32, len(t.cands)),
		lastTID: make([]itemset.TID, len(t.cands)),
	}
	for i := range st.lastTID {
		st.lastTID[i] = -1
	}
	return st
}

// CountTransactionInto increments, in st, the count of every candidate
// contained in the transaction's itemset. tid must be unique per
// transaction (it guards against double counting along colliding descent
// paths). It returns the number of tree-node visits plus candidate subset
// checks, the compute-intensive step the paper's cost discussion centres
// on. The tree itself is not written, so concurrent calls with distinct
// states are safe.
func (t *Tree) CountTransactionInto(st *CountState, tid itemset.TID, tx itemset.Itemset) (ops int) {
	if len(tx) < t.k {
		return 0
	}
	return t.countInto(st, t.root, tid, tx, 0, 0)
}

func (t *Tree) countInto(st *CountState, n *node, tid itemset.TID, tx itemset.Itemset, start, depth int) (ops int) {
	ops = 1
	if n.children == nil { // leaf (possibly empty, e.g. a tree with no candidates)
		for _, c := range n.leaf {
			ops++
			if st.lastTID[c.index] == tid {
				continue
			}
			// The first `depth` items of c were matched by the descent
			// path in some order; the candidate may still differ from the
			// path, so check full containment.
			if c.Set.SubsetOf(tx) {
				st.Counts[c.index]++
				st.lastTID[c.index] = tid
			}
		}
		return ops
	}
	// Short-circuit: item at position i can extend to a full k-subset only
	// if at least k-depth-1 items follow it.
	limit := len(tx) - (t.k - depth) + 1
	for i := start; i < limit; i++ {
		child := n.children[t.hash(tx[i])]
		if child != nil {
			ops += t.countInto(st, child, tid, tx, i+1, depth+1)
		}
	}
	return ops
}

// Frequent returns the candidates whose count in st meets minsup, in
// input (insertion) order.
func (t *Tree) Frequent(st *CountState, minsup int) []*Candidate {
	var out []*Candidate
	for _, c := range t.cands {
		if int(st.Counts[c.index]) >= minsup {
			out = append(out, c)
		}
	}
	return out
}
