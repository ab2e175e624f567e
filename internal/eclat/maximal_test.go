package eclat

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/testutil"
)

// oracleMaximal derives the maximal sets from a full mining result: those
// with no frequent strict superset.
func oracleMaximal(full *mining.Result) *mining.Result {
	out := &mining.Result{MinSup: full.MinSup, NumTransactions: full.NumTransactions}
	for _, f := range full.Itemsets {
		maximal := true
		for _, g := range full.Itemsets {
			if g.Set.K() > f.Set.K() && f.Set.SubsetOf(g.Set) {
				maximal = false
				break
			}
		}
		if maximal {
			out.Add(f.Set, f.Support)
		}
	}
	out.Sort()
	return out
}

func TestMaximalMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for trial := 0; trial < 15; trial++ {
		d := testutil.RandomDB(rng, 120+trial*20, 12, 6)
		for _, minsup := range []int{3, 6, 12} {
			full, _ := mineSeq(t, d, minsup)
			want := oracleMaximal(full)
			got, _, _ := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1, Policy: PolicyMaximal})
			if !mining.Equal(got, want) {
				t.Fatalf("trial %d minsup %d:\n%s", trial, minsup, mining.Diff(got, want))
			}
		}
	}
}

func TestMaximalOnGeneratedData(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(2000))
	minsup := d.MinSupCount(1.0)
	full, fullStats := mineSeq(t, d, minsup)
	want := oracleMaximal(full)
	got, st, _ := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1, Policy: PolicyMaximal})
	if !mining.Equal(got, want) {
		t.Fatal(mining.Diff(got, want))
	}
	if got.Len() >= full.Len() {
		t.Fatalf("maximal sets (%d) should be far fewer than all frequent sets (%d)", got.Len(), full.Len())
	}
	if st.Lookaheads == 0 {
		t.Fatal("lookahead should be attempted")
	}
	// The hybrid search should not do more intersection work than full
	// enumeration on pattern-structured data.
	if st.IntersectOps > 2*fullStats.IntersectOps {
		t.Fatalf("maximal search did %dx the intersection work of full mining",
			st.IntersectOps/max64(fullStats.IntersectOps, 1))
	}
}

func TestMaximalLookaheadCollapsesCliqueData(t *testing.T) {
	// A database where one 6-item pattern appears in most transactions:
	// the class of its smallest item should collapse in one lookahead.
	d := &db.Database{NumItems: 10}
	pattern := itemset.New(1, 2, 3, 4, 5, 6)
	for i := 0; i < 50; i++ {
		d.Transactions = append(d.Transactions, db.Transaction{
			TID: itemset.TID(i), Items: pattern,
		})
	}
	got, st, _ := MineParallelLocal(context.Background(), d, 40, Options{Workers: 1, Policy: PolicyMaximal})
	if got.Len() != 1 || !got.Itemsets[0].Set.Equal(pattern) {
		t.Fatalf("maximal = %v, want just %v", got.Itemsets, pattern)
	}
	if got.Itemsets[0].Support != 50 {
		t.Fatalf("support = %d", got.Itemsets[0].Support)
	}
	if st.LookaheadHits == 0 {
		t.Fatal("the pattern class should collapse via lookahead")
	}
}

func TestMaximalSubsetsCoverFullResult(t *testing.T) {
	// Downward closure: every frequent itemset is a subset of some
	// maximal set, and every subset of a maximal set is frequent.
	rng := rand.New(rand.NewSource(123))
	d := testutil.RandomDB(rng, 200, 12, 6)
	minsup := 5
	full, _ := mineSeq(t, d, minsup)
	maxres, _, _ := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1, Policy: PolicyMaximal})
	for _, f := range full.Itemsets {
		covered := false
		for _, m := range maxres.Itemsets {
			if f.Set.SubsetOf(m.Set) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("frequent %v not covered by any maximal set", f.Set)
		}
	}
	fullMap := full.SupportMap()
	for _, m := range maxres.Itemsets {
		if fullMap[m.Set.Key()] != m.Support {
			t.Fatalf("maximal %v support %d != full mining's %d",
				m.Set, m.Support, fullMap[m.Set.Key()])
		}
	}
}

func TestMaximalNoSubsumedPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	d := testutil.RandomDB(rng, 150, 10, 6)
	got, _, _ := MineParallelLocal(context.Background(), d, 4, Options{Workers: 1, Policy: PolicyMaximal})
	for i, a := range got.Itemsets {
		for j, b := range got.Itemsets {
			if i != j && a.Set.SubsetOf(b.Set) {
				t.Fatalf("maximal result contains subsumed pair %v ⊆ %v", a.Set, b.Set)
			}
		}
	}
}

func TestMaximalEmptyDatabase(t *testing.T) {
	res, _, _ := MineParallelLocal(context.Background(), &db.Database{NumItems: 4}, 1, Options{Workers: 1, Policy: PolicyMaximal})
	if res.Len() != 0 {
		t.Fatal("empty database has no maximal sets")
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
