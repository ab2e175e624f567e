// Package partition implements the Partition algorithm of Savasere,
// Omiecinski & Navathe (VLDB 1995), the related-work baseline the paper
// credits with minimizing I/O: "The Partition algorithm minimizes I/O by
// scanning the database only twice. It partitions the database into small
// chunks which can be handled in memory. In the first pass it generates
// the set of all potentially frequent itemsets (any itemset locally
// frequent in a partition), and in the second pass their global support
// is obtained."
//
// Local mining inside each chunk uses vertical tid-list intersection —
// Partition is itself an ancestor of the vertical representation Eclat
// builds on. An itemset that is globally frequent must be locally
// frequent in at least one chunk (pigeonhole on rates), so the union of
// local results is a superset of the answer; the second pass counts that
// union exactly.
package partition

import (
	"context"
	"fmt"

	"repro/internal/db"
	"repro/internal/eclat"
	"repro/internal/hashtree"
	"repro/internal/itemset"
	"repro/internal/mining"
)

// Stats reports the work of a Partition run.
type Stats struct {
	Scans           int // always 2: local mining pass + global counting pass
	Chunks          int
	Candidates      int // |union of locally frequent itemsets|
	FalseCandidates int // candidates that failed the global threshold
}

// Mine runs Partition with numChunks in-memory chunks. minsup is the
// absolute global support count. The result equals Apriori's and Eclat's.
func Mine(d *db.Database, minsup, numChunks int) (*mining.Result, Stats) {
	if minsup < 1 {
		minsup = 1
	}
	if numChunks < 1 {
		numChunks = 1
	}
	if numChunks > d.Len() && d.Len() > 0 {
		numChunks = d.Len()
	}
	st := Stats{Scans: 2, Chunks: numChunks}
	res := &mining.Result{MinSup: minsup, NumTransactions: d.Len()}
	if d.Len() == 0 {
		return res, st
	}

	// Pass 1: mine each chunk at the equivalent local rate. Local
	// frequency uses exact rational arithmetic: an itemset is locally
	// frequent in a chunk of p transactions iff count * |D| >= minsup * p,
	// which guarantees the superset property without float rounding.
	chunks := d.Partition(numChunks)
	candidates := map[string]bool{}
	for _, chunk := range chunks {
		if chunk.Len() == 0 {
			continue
		}
		localMin := localThreshold(minsup, chunk.Len(), d.Len())
		local, _, _ := eclat.MineParallelLocal(context.Background(), chunk, localMin, eclat.Options{Workers: 1})
		for _, f := range local.Itemsets {
			// The local miner thresholds at ceil; re-check the exact
			// rational condition (they coincide, but keep the invariant
			// explicit and safe against future threshold changes).
			if int64(f.Support)*int64(d.Len()) >= int64(minsup)*int64(chunk.Len()) {
				candidates[f.Set.Key()] = true
			}
		}
	}
	st.Candidates = len(candidates)

	// Pass 2: count every candidate exactly in one global pass. Group by
	// size into hash trees and count them all against each transaction.
	byK := map[int]*hashtree.Tree{}
	for key := range candidates {
		set, err := itemset.ParseKey(key)
		if err != nil {
			panic(fmt.Sprintf("partition: corrupt candidate key %q", key))
		}
		k := set.K()
		if byK[k] == nil {
			byK[k] = hashtree.New(k, hashtree.WithFanout(max(64, d.NumItems)))
		}
		byK[k].Insert(set)
	}
	states := make(map[int]*hashtree.CountState, len(byK))
	for k, tree := range byK {
		states[k] = tree.NewCountState()
	}
	for _, tx := range d.Transactions {
		for k, tree := range byK {
			tree.CountTransactionInto(states[k], tx.TID, tx.Items)
		}
	}
	for k, tree := range byK {
		for i, c := range tree.Candidates() {
			if n := int(states[k].Counts[i]); n >= minsup {
				res.Add(c.Set, n)
			} else {
				st.FalseCandidates++
			}
		}
	}
	res.Sort()
	return res, st
}

// localThreshold converts the global absolute threshold into a chunk's
// absolute threshold: the smallest integer c with c*total >= minsup*part.
func localThreshold(minsup, part, total int) int {
	c := (int64(minsup)*int64(part) + int64(total) - 1) / int64(total)
	if c < 1 {
		c = 1
	}
	return int(c)
}
