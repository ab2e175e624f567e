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
	"repro/internal/tidlist"
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

// TestDiffsetGateRunningTotal checks the diffset gate's running form —
// the class plan's support total, less each member's support as the
// loop advances — against the predicate that re-sums every later
// member's support, on random classes of all three encodings with empty
// members, at break-evens below and above 1.
func TestDiffsetGateRunningTotal(t *testing.T) {
	resum := func(members []member, i, span int, breakEven float64) bool {
		if span <= 0 {
			return false
		}
		sum := 0
		for j := i + 1; j < len(members); j++ {
			sum += members[j].tids.Support()
		}
		return float64(sum) >= breakEven*float64(span)*float64(len(members)-1-i)
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
		for _, breakEven := range []float64{0.1, DefaultDiffsetBreakEven, 0.9, 1.5} {
			gate := newDiffsetGate(plan, Options{DiffsetBreakEven: breakEven})
			for i := 0; i < s-1; i++ {
				got := gate.wins(members, i)
				if want := resum(members, i, plan.span, breakEven); got != want {
					t.Fatalf("trial %d member %d/%d break-even %v: running %v, re-summed %v", trial, i, s, breakEven, got, want)
				}
				if got {
					wins++
				} else {
					losses++
				}
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
