// Package dhp implements the DHP algorithm of Park, Chen & Yu (SIGMOD
// 1995) — "an effective hash based algorithm for mining association
// rules" — whose parallelization PDM [12] the paper discusses among the
// parallel baselines ("both PDM and DHP perform worse than Count
// Distribution and Apriori" on their workloads, a claim the benchmark
// suite lets you check).
//
// DHP's idea: while counting 1-itemsets in pass 1, also hash every item
// pair of every transaction into a small table of counting buckets. A
// pair can only be frequent if its bucket total reaches the threshold, so
// pass 2's candidate set shrinks from all pairs of frequent items to the
// pairs that survive the bucket filter — typically a large reduction,
// bought with one extra array in memory.
package dhp

import (
	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/hashtree"
	"repro/internal/itemset"
	"repro/internal/mining"
)

// Options tunes the hash filter.
type Options struct {
	// Buckets is the size of the pair-hash table (default 1 << 16).
	Buckets int
}

// Stats reports the filter's effectiveness.
type Stats struct {
	Scans         int
	Buckets       int
	C2Unfiltered  int // candidate pairs Apriori would count: C(|L1|, 2)
	C2AfterFilter int // pairs surviving the bucket filter
	SurvivorRatio float64
}

// Mine runs DHP. The result equals Apriori's.
func Mine(d *db.Database, minsup int, opts Options) (*mining.Result, Stats) {
	if minsup < 1 {
		minsup = 1
	}
	buckets := opts.Buckets
	if buckets <= 0 {
		buckets = 1 << 16
	}
	st := Stats{Buckets: buckets}
	res := &mining.Result{MinSup: minsup, NumTransactions: d.Len()}

	hash := func(a, b itemset.Item) int {
		return (int(a)*2654435761 + int(b)) % buckets
	}

	// Pass 1: item counts + pair-bucket counts.
	st.Scans++
	itemCounts := make([]int, d.NumItems)
	bucketCounts := make([]int32, buckets)
	for _, tx := range d.Transactions {
		items := tx.Items
		for _, it := range items {
			itemCounts[it]++
		}
		for i := 0; i < len(items); i++ {
			for j := i + 1; j < len(items); j++ {
				bucketCounts[hash(items[i], items[j])]++
			}
		}
	}
	var l1 []itemset.Item
	for it, c := range itemCounts {
		if c >= minsup {
			res.Add(itemset.Itemset{itemset.Item(it)}, c)
			l1 = append(l1, itemset.Item(it))
		}
	}

	// Pass 2: candidates are frequent-item pairs whose bucket count could
	// reach the threshold.
	fanout := d.NumItems
	if fanout < 64 {
		fanout = 64
	}
	tree := hashtree.New(2, hashtree.WithFanout(fanout))
	for i := 0; i < len(l1); i++ {
		for j := i + 1; j < len(l1); j++ {
			st.C2Unfiltered++
			if int(bucketCounts[hash(l1[i], l1[j])]) >= minsup {
				tree.Insert(itemset.Itemset{l1[i], l1[j]})
			}
		}
	}
	st.C2AfterFilter = tree.Len()
	if st.C2Unfiltered > 0 {
		st.SurvivorRatio = float64(st.C2AfterFilter) / float64(st.C2Unfiltered)
	}

	var prev []itemset.Itemset
	if tree.Len() > 0 {
		st.Scans++
		cs := tree.NewCountState()
		apriori.CountPartitionInto(tree, cs, d)
		for _, c := range tree.Frequent(cs, minsup) {
			res.Add(c.Set, int(cs.Counts[c.Index()]))
			prev = append(prev, c.Set)
		}
	}

	// Passes k >= 3: standard Apriori level-wise counting.
	for k := 3; len(prev) > 1; k++ {
		tk := apriori.GenerateCandidates(prev, hashtree.WithFanout(fanout))
		if tk.Len() == 0 {
			break
		}
		st.Scans++
		cs := tk.NewCountState()
		apriori.CountPartitionInto(tk, cs, d)
		prev = prev[:0]
		for _, c := range tk.Frequent(cs, minsup) {
			res.Add(c.Set, int(cs.Counts[c.Index()]))
			prev = append(prev, c.Set)
		}
	}

	res.Sort()
	return res, st
}
