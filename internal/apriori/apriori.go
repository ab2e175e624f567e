// Package apriori implements the sequential Apriori algorithm (paper
// figure 1, after Agrawal & Srikant), which "forms the core of almost all
// of the current [1997] parallel algorithms" and of the Count/Data/
// Candidate Distribution baselines in this repository.
//
// Pass 1 counts single items; pass 2 counts all item pairs through the
// upper-triangular array (the same structure Eclat's initialization phase
// uses, so the horizontal baselines are not handicapped on the pass where
// the paper itself recommends the array over tid-lists); passes k >= 3
// generate candidates by the prefix join with subset pruning and count
// them against each transaction through the candidate hash tree.
package apriori

import (
	"context"
	"fmt"

	"repro/internal/db"
	"repro/internal/hashtree"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/obsv"
	"repro/internal/paircount"
)

// Global candidate-level counters (see /metricsz); flushed once per
// candidate level, never inside the counting loop.
const (
	mnLevels     = "apriori_levels_total"
	mnCandidates = "apriori_candidates_total"
	mnCountOps   = "apriori_count_ops_total"
	mnScans      = "apriori_scans_total"
)

var (
	mLevels     = obsv.Default.Counter(mnLevels, "candidate-generation levels (k >= 3) run")
	mCandidates = obsv.Default.Counter(mnCandidates, "candidates generated for k >= 3")
	mCountOps   = obsv.Default.Counter(mnCountOps, "hash-tree node visits and subset checks")
	mScans      = obsv.Default.Counter(mnScans, "full database passes")
)

// Stats reports the work a mining run performed; the parallel baselines
// aggregate the same counters per processor.
type Stats struct {
	Scans      int   // full passes over the database
	Iterations int   // number of candidate-generation iterations (k levels)
	Candidates int   // total candidates generated for k >= 3
	CountOps   int64 // hash-tree node visits + subset checks
}

// GenerateCandidates builds the candidate hash tree C(k) from the sorted
// frequent (k-1)-itemsets, joining itemsets that share a (k-2)-prefix and
// pruning any candidate with an infrequent (k-1)-subset (figure 1's join
// and prune steps). prev must be lexicographically sorted and all of one
// size >= 2.
func GenerateCandidates(prev []itemset.Itemset, opts ...hashtree.Option) *hashtree.Tree {
	inPrev := make(map[string]bool, len(prev))
	for _, s := range prev {
		inPrev[s.Key()] = true
	}
	return generate(prev, inPrev, opts)
}

// GenerateCandidatesNoPrune is GenerateCandidates without the
// subset-pruning step. Candidate Distribution's asynchronous passes use
// it: a candidate's (k-1)-subsets may belong to equivalence classes owned
// by other processors, whose frequent sets arrive asynchronously — when
// that information has not arrived, pruning must be skipped ("This
// pruning information is used if it arrives in time, otherwise it is
// used in the next iteration"). Unpruned candidates are merely counted
// and discarded, so correctness is unaffected.
func GenerateCandidatesNoPrune(prev []itemset.Itemset, opts ...hashtree.Option) *hashtree.Tree {
	return generate(prev, nil, opts)
}

func generate(prev []itemset.Itemset, inPrev map[string]bool, opts []hashtree.Option) *hashtree.Tree {
	if len(prev) == 0 {
		return hashtree.New(1, opts...) // empty tree; Len()==0
	}
	k := prev[0].K() + 1
	tree := hashtree.New(k, opts...)

	// prev is sorted, so itemsets sharing a (k-2)-prefix are contiguous:
	// walk the runs (these runs are exactly the equivalence classes of
	// section 4.1).
	for lo := 0; lo < len(prev); {
		hi := lo + 1
		for hi < len(prev) && prev[hi].SharesPrefix(prev[lo]) {
			hi++
		}
		for i := lo; i < hi; i++ {
			for j := i + 1; j < hi; j++ {
				cand := prev[i].Join(prev[j])
				if inPrev != nil && prunable(cand, inPrev) {
					continue
				}
				tree.Insert(cand)
			}
		}
		lo = hi
	}
	return tree
}

// prunable reports whether any (k-1)-subset of cand is missing from the
// previous frequent level. The two subsets formed by dropping one of the
// joined items are frequent by construction; only the others need checks.
func prunable(cand itemset.Itemset, inPrev map[string]bool) bool {
	for i := 0; i < cand.K()-2; i++ {
		if !inPrev[cand.Without(i).Key()] {
			return true
		}
	}
	return false
}

// CountPartitionInto runs one counting pass of tree over a database
// partition into st and returns the operation count. The tree is only
// read, so concurrent simulated processors can share it.
func CountPartitionInto(tree *hashtree.Tree, st *hashtree.CountState, part *db.Database) (ops int64) {
	for _, tx := range part.Transactions {
		ops += int64(tree.CountTransactionInto(st, tx.TID, tx.Items))
	}
	return ops
}

// CountItems counts 1-itemset supports in one pass (pass 1 of Apriori).
func CountItems(part *db.Database) []int {
	counts := make([]int, part.NumItems)
	for _, tx := range part.Transactions {
		for _, it := range tx.Items {
			counts[it]++
		}
	}
	return counts
}

// Mine runs sequential Apriori at the given absolute minimum support and
// returns all frequent itemsets (including 1-itemsets) with exact
// supports. It is context-first: ctx is consulted between candidate
// levels (once per database pass), so a cancel or deadline stops the
// mine at the next level boundary without per-transaction overhead. On
// cancellation it returns (nil, partial stats, ctx.Err()).
func Mine(ctx context.Context, d *db.Database, minsup int) (*mining.Result, Stats, error) {
	if minsup < 1 {
		minsup = 1
	}
	res := &mining.Result{MinSup: minsup, NumTransactions: d.Len()}
	var st Stats
	tr := obsv.TraceFrom(ctx)

	// Passes 1 and 2 are Apriori's analogue of Eclat's initialization:
	// item counts, then the triangular pair array.
	sp := tr.Start("initialization")
	st.Scans++
	itemCounts := CountItems(d)
	for it, c := range itemCounts {
		if c >= minsup {
			res.Add(itemset.Itemset{itemset.Item(it)}, c)
		}
	}

	st.Scans++
	pc := paircount.New(d.NumItems)
	st.CountOps += pc.AddPartition(d)
	var prev []itemset.Itemset
	for _, fp := range pc.Frequent(minsup) {
		set := fp.Pair.Itemset()
		res.Add(set, fp.Count)
		prev = append(prev, set)
	}
	sp.End()
	mScans.Add(2)

	// Passes k >= 3: one span and one counter flush per candidate level.
	for k := 3; len(prev) > 1; k++ {
		if err := ctx.Err(); err != nil {
			return nil, st, err
		}
		sp = tr.Start(fmt.Sprintf("level_%d", k))
		tree := GenerateCandidates(prev)
		st.Iterations++
		st.Candidates += tree.Len()
		mLevels.Inc()
		mCandidates.Add(int64(tree.Len()))
		if tree.Len() == 0 {
			sp.End()
			break
		}
		st.Scans++
		mScans.Inc()
		cs := tree.NewCountState()
		ops := CountPartitionInto(tree, cs, d)
		st.CountOps += ops
		mCountOps.Add(ops)
		prev = prev[:0]
		for _, c := range tree.Frequent(cs, minsup) {
			res.Add(c.Set, int(cs.Counts[c.Index()]))
			prev = append(prev, c.Set)
		}
		sp.End()
	}
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}

	res.Sort()
	return res, st, nil
}
