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

func TestCharmMatchesClosedFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	for trial := 0; trial < 15; trial++ {
		d := testutil.RandomDB(rng, 100+trial*25, 11, 6)
		for _, minsup := range []int{2, 4, 8} {
			want, _, _ := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1, Policy: PolicyClosed})
			got, _, _ := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1, Policy: PolicyCharm})
			if !mining.Equal(got, want) {
				t.Fatalf("trial %d minsup %d:\n%s", trial, minsup, mining.Diff(got, want))
			}
		}
	}
}

func TestCharmOnGeneratedData(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(1500))
	minsup := d.MinSupCount(1.0)
	want, _, _ := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1, Policy: PolicyClosed})
	got, st, _ := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1, Policy: PolicyCharm})
	if !mining.Equal(got, want) {
		t.Fatal(mining.Diff(got, want))
	}
	if st.Scans != 1 {
		t.Fatalf("CHARM needs one scan to build item tid-lists, got %d", st.Scans)
	}
	// Exact tid-set containment is rare on noisy Quest data (the merges
	// fire on correlated data — see the dedicated test); the subsumption
	// check, however, must be doing work whenever non-closed candidates
	// exist.
	full, _ := mineSeq(t, d, minsup)
	if full.Len() > got.Len() && st.Subsumptions == 0 && st.Merges == 0 {
		t.Fatal("non-closed sets exist but CHARM never merged or subsumed")
	}
}

func TestCharmCollapsesPerfectCorrelation(t *testing.T) {
	// Items 1,2,3 always co-occur: CHARM should fold them into a single
	// node via property 1, never enumerating the 2-subsets separately.
	d := &db.Database{NumItems: 6}
	for i := 0; i < 30; i++ {
		items := itemset.New(1, 2, 3)
		if i%3 == 0 {
			items = items.Union(itemset.New(5))
		}
		d.Transactions = append(d.Transactions, db.Transaction{TID: itemset.TID(i), Items: items})
	}
	got, st, _ := MineParallelLocal(context.Background(), d, 5, Options{Workers: 1, Policy: PolicyCharm})
	// Closed sets: {1,2,3} (sup 30), {1,2,3,5} (sup 10).
	if got.Len() != 2 {
		t.Fatalf("closed sets = %v, want 2", got.Itemsets)
	}
	if got.SupportOf(itemset.New(1, 2, 3)) != 30 || got.SupportOf(itemset.New(1, 2, 3, 5)) != 10 {
		t.Fatalf("closed supports wrong: %v", got.Itemsets)
	}
	if st.Merges == 0 {
		t.Fatal("perfect correlation must be handled by merges")
	}
}

func TestCharmSubsumptionCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	d := testutil.RandomDB(rng, 200, 10, 6)
	_, st, _ := MineParallelLocal(context.Background(), d, 4, Options{Workers: 1, Policy: PolicyCharm})
	if st.Intersections == 0 {
		t.Fatal("no intersections recorded")
	}
}

func TestCharmEmptyDatabase(t *testing.T) {
	res, _, _ := MineParallelLocal(context.Background(), &db.Database{NumItems: 3}, 1, Options{Workers: 1, Policy: PolicyCharm})
	if res.Len() != 0 {
		t.Fatal("empty database has no closed sets")
	}
}
