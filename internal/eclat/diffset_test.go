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

func TestDiffsetsMatchStandardEclat(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for trial := 0; trial < 15; trial++ {
		d := testutil.RandomDB(rng, 120+trial*25, 12, 7)
		for _, minsup := range []int{2, 4, 8} {
			want, _ := mineSeq(t, d, minsup)
			got, _, _ := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1, Policy: PolicyDiffsets})
			if !mining.Equal(got, want) {
				t.Fatalf("trial %d minsup %d:\n%s", trial, minsup, mining.Diff(got, want))
			}
		}
	}
}

func TestDiffsetsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(143))
	d := testutil.RandomDB(rng, 150, 10, 6)
	got, _, _ := MineParallelLocal(context.Background(), d, 4, Options{Workers: 1, Policy: PolicyDiffsets})
	want := testutil.BruteForce(d, 4)
	if !mining.Equal(got, want) {
		t.Fatal(mining.Diff(got, want))
	}
}

func TestDiffsetsOnGeneratedData(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(3000))
	minsup := d.MinSupCount(0.5)
	want, _ := mineSeq(t, d, minsup)
	got, st, _ := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1, Policy: PolicyDiffsets})
	if !mining.Equal(got, want) {
		t.Fatal(mining.Diff(got, want))
	}
	if st.Scans != 2 || st.Intersections == 0 {
		t.Fatalf("stats look wrong: %+v", st)
	}
}

func TestDiffsetsShrinkDeepLists(t *testing.T) {
	// On a database with a strong embedded pattern, the diffsets
	// materialized below level 3 must be much smaller than the
	// corresponding tid-lists (the dEclat claim). Measure the bytes of
	// intermediate lists both algorithms materialize.
	d := &db.Database{NumItems: 12}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		// 90% of transactions contain the whole pattern {0..5}; noise on
		// top.
		var items []itemset.Item
		if rng.Float64() < 0.9 {
			items = append(items, 0, 1, 2, 3, 4, 5)
		}
		for n := rng.Intn(4); n > 0; n-- {
			items = append(items, itemset.Item(6+rng.Intn(6)))
		}
		if len(items) == 0 {
			items = append(items, 6)
		}
		d.Transactions = append(d.Transactions, db.Transaction{
			TID: itemset.TID(i), Items: itemset.New(items...),
		})
	}
	// Threshold above the pattern-noise cross pairs: the recursion then
	// runs inside the dense pattern, the regime where diffsets shine
	// (dEclat can lose at the first transition on sparse mixtures — a
	// trade-off Zaki's own follow-up reports).
	minsup := 200

	want, _ := mineSeq(t, d, minsup)
	got, st, _ := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1, Policy: PolicyDiffsets})
	if !mining.Equal(got, want) {
		t.Fatal(mining.Diff(got, want))
	}

	// Standard Eclat's intermediate lists carry nearly the full pattern
	// support at every level (tid-list bytes ~ support per k>=3 itemset);
	// diffsets carry only the shrinkage.
	var tidBytes int64
	for _, f := range want.Itemsets {
		if f.Set.K() >= 3 {
			tidBytes += 4 * int64(f.Support)
		}
	}
	if st.ListBytes >= tidBytes {
		t.Fatalf("diffset bytes (%d) should be far below tid-list bytes (%d) on dense pattern data",
			st.ListBytes, tidBytes)
	}
}

func TestDiffsetsEmptyDatabase(t *testing.T) {
	res, _, _ := MineParallelLocal(context.Background(), &db.Database{NumItems: 3}, 1, Options{Workers: 1, Policy: PolicyDiffsets})
	if res.Len() != 0 {
		t.Fatal("empty database should mine nothing")
	}
}
