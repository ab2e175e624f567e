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

// oracleClosed derives closed sets by the definition: no strict superset
// with equal support.
func oracleClosed(full *mining.Result) *mining.Result {
	out := &mining.Result{MinSup: full.MinSup, NumTransactions: full.NumTransactions}
	for _, f := range full.Itemsets {
		closed := true
		for _, g := range full.Itemsets {
			if g.Set.K() > f.Set.K() && f.Set.SubsetOf(g.Set) && g.Support == f.Support {
				closed = false
				break
			}
		}
		if closed {
			out.Add(f.Set, f.Support)
		}
	}
	out.Sort()
	return out
}

func TestClosedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	for trial := 0; trial < 12; trial++ {
		d := testutil.RandomDB(rng, 120+trial*20, 11, 6)
		for _, minsup := range []int{3, 6} {
			full, _ := mineSeq(t, d, minsup)
			want := oracleClosed(full)
			got, _, _ := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1, Policy: PolicyClosed})
			if !mining.Equal(got, want) {
				t.Fatalf("trial %d minsup %d:\n%s", trial, minsup, mining.Diff(got, want))
			}
		}
	}
}

func TestClosedBetweenMaximalAndFull(t *testing.T) {
	// |maximal| <= |closed| <= |full|, and every maximal set is closed.
	d := gen.MustGenerate(gen.T10I6(1500))
	minsup := d.MinSupCount(1.0)
	full, _ := mineSeq(t, d, minsup)
	closed, _, _ := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1, Policy: PolicyClosed})
	maximal, _, _ := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1, Policy: PolicyMaximal})
	if !(maximal.Len() <= closed.Len() && closed.Len() <= full.Len()) {
		t.Fatalf("|maximal|=%d |closed|=%d |full|=%d out of order",
			maximal.Len(), closed.Len(), full.Len())
	}
	cm := closed.SupportMap()
	for _, m := range maximal.Itemsets {
		if cm[m.Set.Key()] != m.Support {
			t.Fatalf("maximal set %v missing from closed result", m.Set)
		}
	}
}

func TestSupportFromClosedLossless(t *testing.T) {
	// The closed representation determines every frequent itemset's
	// support exactly.
	rng := rand.New(rand.NewSource(157))
	d := testutil.RandomDB(rng, 180, 10, 6)
	minsup := 5
	full, _ := mineSeq(t, d, minsup)
	closed, _, _ := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1, Policy: PolicyClosed})
	for _, f := range full.Itemsets {
		if got := SupportFromClosed(closed, f.Set); got != f.Support {
			t.Fatalf("support of %v from closed = %d, want %d", f.Set, got, f.Support)
		}
	}
	// An itemset with no closed superset is not frequent and reconstructs
	// to support 0.
	notFrequent := full.Itemsets[0].Set.Union(itemset.New(9999))
	if got := SupportFromClosed(closed, notFrequent); got != 0 {
		t.Fatalf("non-frequent itemset should reconstruct to 0, got %d", got)
	}
}

func TestClosedOnGeneratedData(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(1500))
	minsup := d.MinSupCount(1.0)
	full, _ := mineSeq(t, d, minsup)
	got, _, _ := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1, Policy: PolicyClosed})
	if want := oracleClosed(full); !mining.Equal(got, want) {
		t.Fatal(mining.Diff(got, want))
	}
}

func TestClosedCollapsesPerfectCorrelation(t *testing.T) {
	// Items 1,2,3 always co-occur: only their union is closed, never a
	// 2-subset of it.
	d := &db.Database{NumItems: 6}
	for i := 0; i < 30; i++ {
		items := itemset.New(1, 2, 3)
		if i%3 == 0 {
			items = items.Union(itemset.New(5))
		}
		d.Transactions = append(d.Transactions, db.Transaction{TID: itemset.TID(i), Items: items})
	}
	got, _, _ := MineParallelLocal(context.Background(), d, 5, Options{Workers: 1, Policy: PolicyClosed})
	// Closed sets: {1,2,3} (sup 30), {1,2,3,5} (sup 10).
	if got.Len() != 2 {
		t.Fatalf("closed sets = %v, want 2", got.Itemsets)
	}
	if got.SupportOf(itemset.New(1, 2, 3)) != 30 || got.SupportOf(itemset.New(1, 2, 3, 5)) != 10 {
		t.Fatalf("closed supports wrong: %v", got.Itemsets)
	}
}

func TestClosedEmptyDatabase(t *testing.T) {
	res, _, _ := MineParallelLocal(context.Background(), &db.Database{NumItems: 3}, 1, Options{Workers: 1, Policy: PolicyClosed})
	if res.Len() != 0 {
		t.Fatal("empty database has no closed sets")
	}
}
