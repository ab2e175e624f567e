// Package sampling implements Toivonen's sampling algorithm (VLDB 1996),
// the related-work approach the paper cites for cutting I/O below even
// Partition's two scans: "Another way to minimize the I/O overhead is to
// work with only a small random sample of the database. An analysis of
// the effectiveness of sampling for association mining was presented in
// [17], and [15] presents an exact algorithm that finds all rules using
// sampling."
//
// The algorithm mines a random sample at a lowered support threshold,
// then makes one full pass that counts the sample-frequent itemsets plus
// their negative border (the minimal itemsets not found frequent in the
// sample). If nothing on the border turns out globally frequent the
// answer is provably complete in a single full scan; otherwise the border
// is extended and re-counted until a fixpoint — rare in practice, which
// is the algorithm's point.
package sampling

import (
	"context"
	"math/rand"
	"sort"

	"repro/internal/db"
	"repro/internal/eclat"
	"repro/internal/hashtree"
	"repro/internal/itemset"
	"repro/internal/mining"
)

// Options tunes the sampler.
type Options struct {
	// SampleSize is the number of transactions drawn (without
	// replacement). Default: 10% of the database, at least 1.
	SampleSize int
	// LowerBy scales the support rate used on the sample below the true
	// rate, reducing the probability of misses (Toivonen's safety
	// margin). Default 0.8; must be in (0, 1].
	LowerBy float64
	// Seed drives the sample draw.
	Seed int64
}

// Stats reports how the run went.
type Stats struct {
	SampleSize     int
	FullScans      int // full-database counting passes (1 when the border holds)
	BorderSize     int // negative-border itemsets counted in the first pass
	Misses         int // border itemsets that turned out globally frequent
	SampleItemsets int // itemsets frequent in the sample at the lowered threshold
}

// Mine runs the sampling algorithm. The result is exact — equal to
// Apriori's — regardless of sample luck; luck only affects how many full
// scans were needed.
func Mine(d *db.Database, minsup int, opts Options) (*mining.Result, Stats) {
	if minsup < 1 {
		minsup = 1
	}
	var st Stats
	res := &mining.Result{MinSup: minsup, NumTransactions: d.Len()}
	if d.Len() == 0 {
		return res, st
	}
	if opts.SampleSize <= 0 {
		opts.SampleSize = (d.Len() + 9) / 10
	}
	if opts.SampleSize > d.Len() {
		opts.SampleSize = d.Len()
	}
	if opts.LowerBy <= 0 || opts.LowerBy > 1 {
		opts.LowerBy = 0.8
	}
	st.SampleSize = opts.SampleSize

	// Draw the sample without replacement, preserving TID order.
	rng := rand.New(rand.NewSource(opts.Seed))
	idx := rng.Perm(d.Len())[:opts.SampleSize]
	sort.Ints(idx)
	sample := &db.Database{NumItems: d.NumItems}
	for _, i := range idx {
		sample.Transactions = append(sample.Transactions, d.Transactions[i])
	}

	// Mine the sample at the lowered rate.
	rate := float64(minsup) / float64(d.Len()) * opts.LowerBy
	sampleMin := int(rate * float64(sample.Len()))
	if sampleMin < 1 {
		sampleMin = 1
	}
	sampleRes, _, _ := eclat.MineParallelLocal(context.Background(), sample, sampleMin, eclat.Options{Workers: 1})
	st.SampleItemsets = sampleRes.Len()

	// Candidate set: sample-frequent itemsets plus their negative border.
	inF := map[string]itemset.Itemset{}
	for _, f := range sampleRes.Itemsets {
		inF[f.Set.Key()] = f.Set
	}
	counted := map[string]int{} // exact global counts discovered so far

	for {
		border := negativeBorder(inF, d.NumItems)
		if st.FullScans == 0 {
			st.BorderSize = len(border)
		}

		// Count everything not yet counted in one full pass.
		var toCount []itemset.Itemset
		for _, s := range inF {
			if _, done := counted[s.Key()]; !done {
				toCount = append(toCount, s)
			}
		}
		for _, s := range border {
			if _, done := counted[s.Key()]; !done {
				toCount = append(toCount, s)
			}
		}
		if len(toCount) > 0 {
			st.FullScans++
			countExact(d, toCount, counted)
		}

		// Did any border itemset come out globally frequent? If so the
		// sample missed part of the lattice: promote them into F and
		// iterate with the extended border.
		missed := false
		for _, s := range border {
			if counted[s.Key()] >= minsup {
				if _, ok := inF[s.Key()]; !ok {
					inF[s.Key()] = s
					st.Misses++
					missed = true
				}
			}
		}
		if !missed {
			break
		}
	}

	for key, s := range inF {
		if c := counted[key]; c >= minsup {
			res.Add(s, c)
		}
	}
	res.Sort()
	return res, st
}

// negativeBorder returns the minimal itemsets not in F: the 1-itemsets
// outside F, and for each deeper level the Apriori joins of F's previous
// level whose subsets are all in F but which are not themselves in F.
func negativeBorder(inF map[string]itemset.Itemset, numItems int) []itemset.Itemset {
	byK := map[int][]itemset.Itemset{}
	maxK := 0
	for _, s := range inF {
		byK[s.K()] = append(byK[s.K()], s)
		if s.K() > maxK {
			maxK = s.K()
		}
	}
	var border []itemset.Itemset
	for it := 0; it < numItems; it++ {
		s := itemset.Itemset{itemset.Item(it)}
		if _, ok := inF[s.Key()]; !ok {
			border = append(border, s)
		}
	}
	for k := 2; k <= maxK+1; k++ {
		prev := byK[k-1]
		if len(prev) < 2 {
			continue
		}
		itemset.Sort(prev)
		for lo := 0; lo < len(prev); {
			hi := lo + 1
			for hi < len(prev) && prev[hi].SharesPrefix(prev[lo]) {
				hi++
			}
			for i := lo; i < hi; i++ {
				for j := i + 1; j < hi; j++ {
					cand := prev[i].Join(prev[j])
					if _, ok := inF[cand.Key()]; ok {
						continue
					}
					if allSubsetsInF(cand, inF) {
						border = append(border, cand)
					}
				}
			}
			lo = hi
		}
	}
	return border
}

func allSubsetsInF(cand itemset.Itemset, inF map[string]itemset.Itemset) bool {
	for i := range cand {
		if _, ok := inF[cand.Without(i).Key()]; !ok {
			return false
		}
	}
	return true
}

// countExact counts the given itemsets exactly in one pass, adding the
// results to counts.
func countExact(d *db.Database, sets []itemset.Itemset, counts map[string]int) {
	itemCounts := make([]int, d.NumItems)
	byK := map[int]*hashtree.Tree{}
	needItems := false
	for _, s := range sets {
		if s.K() == 1 {
			needItems = true
			continue
		}
		if byK[s.K()] == nil {
			fanout := d.NumItems
			if fanout < 64 {
				fanout = 64
			}
			byK[s.K()] = hashtree.New(s.K(), hashtree.WithFanout(fanout))
		}
		byK[s.K()].Insert(s)
	}
	states := make(map[int]*hashtree.CountState, len(byK))
	for k, tree := range byK {
		states[k] = tree.NewCountState()
	}
	for _, tx := range d.Transactions {
		if needItems {
			for _, it := range tx.Items {
				itemCounts[it]++
			}
		}
		for k, tree := range byK {
			tree.CountTransactionInto(states[k], tx.TID, tx.Items)
		}
	}
	for _, s := range sets {
		if s.K() == 1 {
			counts[s.Key()] = itemCounts[s[0]]
		}
	}
	for k, tree := range byK {
		for i, c := range tree.Candidates() {
			counts[c.Set.Key()] = int(states[k].Counts[i])
		}
	}
}
