package eclat

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/db"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/testutil"
	"repro/internal/tidlist"
)

// denseDB returns numTx random transactions over numItems items, each
// item present with probability keep. At keep 0.8 a pair holds ~64 % of
// the transactions and an extension keeps ~80 % of its parent's, so
// figure 3 runs deep in the lattice on long tid-sets that shrink slowly.
func denseDB(rng *rand.Rand, numTx, numItems int, keep float64) *db.Database {
	d := &db.Database{NumItems: numItems}
	for i := 0; i < numTx; i++ {
		var items []itemset.Item
		for it := 0; it < numItems; it++ {
			if rng.Float64() < keep {
				items = append(items, itemset.Item(it))
			}
		}
		if len(items) == 0 {
			items = append(items, 0)
		}
		d.Transactions = append(d.Transactions, db.Transaction{TID: itemset.TID(i), Items: itemset.New(items...)})
	}
	return d
}

// TestDiffsetsMatchStandardEclat checks figure 3 against brute force on
// dense random data, under every encoding at one and two workers. (The
// dense-data oracles keep the names they had when figure 3 switched such
// classes to dEclat diffsets.)
func TestDiffsetsMatchStandardEclat(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for trial := 0; trial < 6; trial++ {
		d := denseDB(rng, 80+trial*25, 8, 0.8)
		for _, minsup := range []int{2, d.Len() / 4, d.Len() / 2} {
			want := testutil.BruteForce(d, minsup)
			for _, r := range allReprs {
				for _, workers := range []int{1, 2} {
					got, _, err := MineParallelLocal(context.Background(), d, minsup, Options{Workers: workers, Representation: r})
					if err != nil {
						t.Fatal(err)
					}
					if !mining.Equal(got, want) {
						t.Fatalf("trial %d minsup %d repr %v workers %d:\n%s", trial, minsup, r, workers, mining.Diff(got, want))
					}
				}
			}
		}
	}
}

// TestDiffsetsMatchBruteForce is the vertical-input side: the item sets
// of dense data, in each encoding, mine what brute force finds.
func TestDiffsetsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(143))
	d := denseDB(rng, 150, 10, 0.8)
	want := testutil.BruteForce(d, 4)
	for _, inputRepr := range []tidlist.Repr{tidlist.ReprSparse, tidlist.ReprBitset, tidlist.ReprRoaring} {
		in := VerticalInput{NumTransactions: d.Len(), Items: verticalSets(d, inputRepr)}
		got, _, err := MineVerticalLocal(context.Background(), in, 4, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !mining.Equal(got, want) {
			t.Fatalf("input %v:\n%s", inputRepr, mining.Diff(got, want))
		}
	}
}

// TestDiffsetsOnGeneratedData mines the golden dense dataset, the
// densest generated data the golden file pins, against brute force.
func TestDiffsetsOnGeneratedData(t *testing.T) {
	d := goldenDB(t, goldenDense)
	minsup := d.MinSupCount(30)
	want := testutil.BruteForce(d, minsup)
	got, st, _ := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1})
	if !mining.Equal(got, want) {
		t.Fatal(mining.Diff(got, want))
	}
	if st.Scans != 2 || st.Intersections == 0 {
		t.Fatalf("stats look wrong: %+v", st)
	}
}

// TestDiffsetsShrinkDeepLists mines a database with a strong embedded
// pattern, where every level of the recursion keeps nearly the whole
// pattern support, against brute force.
func TestDiffsetsShrinkDeepLists(t *testing.T) {
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
	// runs inside the dense pattern.
	minsup := 200

	want := testutil.BruteForce(d, minsup)
	got, _, _ := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1})
	if !mining.Equal(got, want) {
		t.Fatal(mining.Diff(got, want))
	}
}

func TestDiffsetsEmptyDatabase(t *testing.T) {
	res, _, _ := MineParallelLocal(context.Background(), &db.Database{NumItems: 3}, 1, Options{Workers: 1})
	if res.Len() != 0 {
		t.Fatal("empty database should mine nothing")
	}
}
