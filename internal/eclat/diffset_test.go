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
// the transactions, above DefaultDiffsetBreakEven, so figure 3's gate
// switches sub-classes to diffsets.
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

// TestDiffsetsMatchStandardEclat checks figure 3 with its automatic
// diffset switch against brute force on dense random data, under every
// encoding at one and two workers, and that the switch fired.
func TestDiffsetsMatchStandardEclat(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for trial := 0; trial < 6; trial++ {
		d := denseDB(rng, 80+trial*25, 8, 0.8)
		for _, minsup := range []int{2, d.Len() / 4, d.Len() / 2} {
			want := testutil.BruteForce(d, minsup)
			for _, r := range allReprs {
				for _, workers := range []int{1, 2} {
					got, st, err := MineParallelLocal(context.Background(), d, minsup, Options{Workers: workers, Representation: r})
					if err != nil {
						t.Fatal(err)
					}
					if !mining.Equal(got, want) {
						t.Fatalf("trial %d minsup %d repr %v workers %d:\n%s", trial, minsup, r, workers, mining.Diff(got, want))
					}
					if minsup == 2 && st.DiffsetClasses == 0 {
						t.Fatalf("trial %d repr %v workers %d: dense data never switched to diffsets", trial, r, workers)
					}
				}
			}
		}
	}
}

// TestDiffsetsMatchBruteForce is the vertical-input side: the item sets
// of dense data, in each encoding, mine what brute force finds, with the
// switch firing.
func TestDiffsetsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(143))
	d := denseDB(rng, 150, 10, 0.8)
	want := testutil.BruteForce(d, 4)
	for _, inputRepr := range []tidlist.Repr{tidlist.ReprSparse, tidlist.ReprBitset, tidlist.ReprRoaring} {
		in := VerticalInput{NumTransactions: d.Len(), Items: verticalSets(d, inputRepr)}
		got, st, err := MineVerticalLocal(context.Background(), in, 4, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !mining.Equal(got, want) {
			t.Fatalf("input %v:\n%s", inputRepr, mining.Diff(got, want))
		}
		if st.DiffsetClasses == 0 {
			t.Fatalf("input %v: dense data never switched to diffsets", inputRepr)
		}
	}
}

// TestDiffsetsOnGeneratedData mines the golden dense dataset, where the
// switch fires on generated data, against brute force.
func TestDiffsetsOnGeneratedData(t *testing.T) {
	d := goldenDB(t, goldenDense)
	minsup := d.MinSupCount(30)
	want := testutil.BruteForce(d, minsup)
	got, st, _ := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1})
	if !mining.Equal(got, want) {
		t.Fatal(mining.Diff(got, want))
	}
	if st.Scans != 2 || st.Intersections == 0 || st.DiffsetClasses == 0 {
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
	// runs inside the dense pattern, where every class crosses the
	// break-even and the gate switches it to diffsets.
	minsup := 200

	want := testutil.BruteForce(d, minsup)
	got, st, _ := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1})
	if !mining.Equal(got, want) {
		t.Fatal(mining.Diff(got, want))
	}
	if st.DiffsetClasses == 0 {
		t.Fatal("the dense pattern never switched to diffsets")
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
	res, st, _ := MineParallelLocal(context.Background(), &db.Database{NumItems: 3}, 1, Options{Workers: 1})
	if res.Len() != 0 || st.DiffsetClasses != 0 {
		t.Fatal("empty database should mine nothing")
	}
}

// TestDiffsetGateRunningTotal checks the diffset gate's running form —
// the class plan's support total, less each member's support as the
// loop advances — against the predicate that re-sums every later
// member's support, on random classes of all three encodings with empty
// members.
func TestDiffsetGateRunningTotal(t *testing.T) {
	resum := func(members []member, i, span int) bool {
		if span <= 0 {
			return false
		}
		sum := 0
		for j := i + 1; j < len(members); j++ {
			sum += members[j].tids.Support()
		}
		return float64(sum) >= DefaultDiffsetBreakEven*float64(span)*float64(len(members)-1-i)
	}
	rng := rand.New(rand.NewSource(409))
	reprs := []tidlist.Repr{tidlist.ReprSparse, tidlist.ReprBitset, tidlist.ReprRoaring}
	var ks tidlist.KernelStats
	wins, losses := 0, 0
	for trial := 0; trial < 300; trial++ {
		s := 2 + rng.Intn(12)
		span := 1 + rng.Intn(400)
		members := make([]member, s)
		for i := range members {
			var l tidlist.List
			if rng.Intn(4) > 0 {
				density := rng.Float64()
				for t := 0; t < span; t++ {
					if rng.Float64() < density {
						l = append(l, itemset.TID(t))
					}
				}
			}
			members[i] = member{set: itemset.Itemset{0, itemset.Item(i + 1)}, tids: tidlist.Convert(l, reprs[rng.Intn(3)], &ks)}
		}
		plan := planClass(members, span)
		if want := supportSum(members); plan.sup != want {
			t.Fatalf("trial %d: plan.sup = %d, want %d", trial, plan.sup, want)
		}
		gate := newDiffsetGate(plan)
		for i := 0; i < s-1; i++ {
			got := gate.wins(members, i)
			if want := resum(members, i, plan.span); got != want {
				t.Fatalf("trial %d member %d/%d: running %v, re-summed %v", trial, i, s, got, want)
			}
			if got {
				wins++
			} else {
				losses++
			}
		}
	}
	if wins == 0 || losses == 0 {
		t.Fatalf("gate never varied: %d wins, %d losses", wins, losses)
	}
}

func supportSum(members []member) int {
	sum := 0
	for _, m := range members {
		sum += m.tids.Support()
	}
	return sum
}
