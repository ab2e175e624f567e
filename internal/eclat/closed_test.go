package eclat

import (
	"context"
	"math/rand"
	"testing"

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
