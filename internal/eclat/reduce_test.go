package eclat

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/testutil"
	"repro/internal/tidlist"
)

// reverseResidency is a no-op residency whose segments run against the
// item order, so a budgeted mine runs its classes in descending prefix
// order. It records nothing, so any number of workers may share it.
type reverseResidency struct{ items int }

func (r reverseResidency) ItemSegment(item int) int { return r.items - item }
func (reverseResidency) Plan([][]int)               {}
func (reverseResidency) Acquire(int)                {}
func (reverseResidency) Release(int)                {}
func (reverseResidency) Done()                      {}

// plantedDB is a random database of tx transactions over items items,
// with a clique of five more items planted in plant more transactions,
// so the class of the clique's first item emits, and under
// reverseResidency runs before the classes of the random items, which
// emit too.
func plantedDB(seed int64, tx, items, maxLen, plant int) *db.Database {
	d := testutil.RandomDB(rand.New(rand.NewSource(seed)), tx, items, maxLen)
	b := db.NewBuilder(items+5, tx+plant)
	for _, t := range d.Transactions {
		b.Append(t.TID, t.Items)
	}
	clique := make(itemset.Itemset, 5)
	for i := range clique {
		clique[i] = itemset.Item(items + i)
	}
	for i := 0; i < plant; i++ {
		b.Append(itemset.TID(tx+i), clique)
	}
	return b.Database()
}

// checkCanonical fails t unless got is strictly increasing under
// itemset.Compare and byte-identical to want.
func checkCanonical(t *testing.T, got, want *mining.Result) {
	t.Helper()
	for i := 1; i < got.Len(); i++ {
		if itemset.Compare(got.Itemsets[i-1].Set, got.Itemsets[i].Set) >= 0 {
			t.Fatalf("itemset %d, %v, does not sort after %v", i, got.Itemsets[i].Set, got.Itemsets[i-1].Set)
		}
	}
	if g, w := resultBytes(t, got), resultBytes(t, want); string(g) != string(w) {
		t.Fatalf("output differs from the sorted reference:\n%s", mining.Diff(got, want))
	}
}

// TestReductionIsCanonical pins the sort-free reduction: whatever order
// the classes ran in — dealt to 1, 2 or 4 workers, or in a budget's
// locality order that runs against the prefix order — the merged,
// filtered or truncated output of both entry points is strictly
// increasing and equals a reference sorted from the brute-force oracle.
func TestReductionIsCanonical(t *testing.T) {
	for di, shape := range []struct{ tx, items, maxLen, minsup int }{{200, 20, 9, 4}, {400, 40, 8, 6}} {
		d := plantedDB(int64(33+di), shape.tx, shape.items, shape.maxLen, 2*shape.minsup)
		full := testutil.BruteForce(d, shape.minsup)
		must := []itemset.Item{1}
		targeted := &mining.Result{MinSup: full.MinSup, NumTransactions: full.NumTransactions}
		for _, f := range full.Itemsets {
			if containsAll(f.Set, must) {
				targeted.Add(f.Set, f.Support)
			}
		}
		topK := &mining.Result{MinSup: full.MinSup, NumTransactions: full.NumTransactions, Itemsets: slices.Clone(full.Itemsets)}
		topK.TruncateTopK(25)
		queries := []struct {
			name string
			opts Options
			want *mining.Result
		}{
			{"all", Options{}, full},
			{"maximal", Options{Policy: PolicyMaximal}, oracleMaximal(full)},
			{"closed", Options{Policy: PolicyClosed}, oracleClosed(full)},
			{"must", Options{MustContain: must}, targeted},
			{"topk", Options{TopK: 25}, topK},
		}
		sets := verticalSets(d, tidlist.ReprSparse)
		budgeted := VerticalInput{NumTransactions: d.Len(), Items: sets, Residency: reverseResidency{d.NumItems}}
		// The budget must run a class that emits before one of a smaller
		// prefix that emits too, or the merge's prefix order goes untested.
		emits := map[itemset.Item]bool{}
		for _, f := range full.Itemsets {
			emits[f.Set[0]] = emits[f.Set[0]] || len(f.Set) > 2
		}
		var st Stats
		var order []itemset.Item
		for _, c := range buildVerticalFromSets(context.Background(), budgeted, shape.minsup, &st, Options{}).classes {
			if emits[c.Prefix[0]] {
				order = append(order, c.Prefix[0])
			}
		}
		if slices.IsSorted(order) {
			t.Fatalf("db%d: the budget runs the emitting classes %v in prefix order", di, order)
		}
		inputs := []struct {
			name string
			mine func(Options) (*mining.Result, Stats, error)
		}{
			{"heap", func(o Options) (*mining.Result, Stats, error) {
				return MineParallelLocal(context.Background(), d, shape.minsup, o)
			}},
			{"vertical", func(o Options) (*mining.Result, Stats, error) {
				in := VerticalInput{NumTransactions: d.Len(), Items: sets}
				return MineVerticalLocal(context.Background(), in, shape.minsup, o)
			}},
			{"budgeted", func(o Options) (*mining.Result, Stats, error) {
				return MineVerticalLocal(context.Background(), budgeted, shape.minsup, o)
			}},
		}
		for _, in := range inputs {
			for _, q := range queries {
				for _, workers := range []int{1, 2, 4} {
					t.Run(fmt.Sprintf("db%d/%s/%s/workers=%d", di, in.name, q.name, workers), func(t *testing.T) {
						opts := q.opts
						opts.Workers = workers
						got, st, err := in.mine(opts)
						if err != nil {
							t.Fatal(err)
						}
						if st.Classes < 2 {
							t.Fatalf("%d classes: the schedule cannot reorder them", st.Classes)
						}
						checkCanonical(t, got, q.want)
					})
				}
			}
		}
	}
}

// naiveClosed is the closure filter's O(n²) oracle: the itemsets of all
// with no immediate superset of equal support, in all's order.
func naiveClosed(all []mining.FrequentItemset) []mining.FrequentItemset {
	var out []mining.FrequentItemset
	for _, f := range all {
		closed := true
		for _, g := range all {
			if len(g.Set) == len(f.Set)+1 && g.Support == f.Support && f.Set.SubsetOf(g.Set) {
				closed = false
				break
			}
		}
		if closed {
			out = append(out, f)
		}
	}
	return out
}

// naiveMaximal is the subsumption filter's O(n²) oracle: the distinct
// candidates with no proper superset among the candidates, in cands'
// order.
func naiveMaximal(cands []mining.FrequentItemset) []mining.FrequentItemset {
	var out []mining.FrequentItemset
	for i, f := range cands {
		if i > 0 && f.Set.Equal(cands[i-1].Set) {
			continue
		}
		maximal := true
		for _, g := range cands {
			if len(g.Set) > len(f.Set) && f.Set.SubsetOf(g.Set) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, f)
		}
	}
	return out
}

// sameItemsets reports whether a and b hold the same itemsets with the
// same supports in the same order.
func sameItemsets(a, b []mining.FrequentItemset) bool {
	return slices.EqualFunc(a, b, func(x, y mining.FrequentItemset) bool {
		return x.Support == y.Support && x.Set.Equal(y.Set)
	})
}

// FuzzReduceFilters runs both filters on canonical collections of
// random small databases against their O(n²) oracles. The closure
// filter gets the complete frequent collection. The subsumption filter
// gets candidates picked from it by the fuzz bytes, each left out,
// taken once or taken twice side by side, as the merge places an L2
// seed a maximal class re-emits — so a subsumer often sits two or more
// levels above a candidate with none in between.
func FuzzReduceFilters(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(8), uint8(5), uint8(3), []byte{1})
	f.Add(int64(2), uint8(120), uint8(12), uint8(8), uint8(4), []byte{3, 1, 0, 2, 1})
	f.Add(int64(3), uint8(40), uint8(6), uint8(6), uint8(2), []byte{2, 0, 0, 1})
	f.Fuzz(func(t *testing.T, seed int64, numTx, numItems, maxLen, minsup uint8, pick []byte) {
		d := testutil.RandomDB(rand.New(rand.NewSource(seed)), 1+int(numTx)%150, 1+int(numItems)%14, 1+int(maxLen)%8)
		all := testutil.BruteForce(d, 1+int(minsup)%8).Itemsets

		if got, want := closedFilter(slices.Clone(all)), naiveClosed(all); !sameItemsets(got, want) {
			t.Fatalf("closedFilter kept %v, want %v", got, want)
		}

		var cands []mining.FrequentItemset
		for i, c := range all {
			p := byte(1)
			if len(pick) > 0 {
				p = pick[i%len(pick)]
			}
			for n := int(p % 3); n > 0; n-- {
				cands = append(cands, c)
			}
		}
		if got, want := filterMaximal(slices.Clone(cands)), naiveMaximal(cands); !sameItemsets(got, want) {
			t.Fatalf("filterMaximal kept %v of %v, want %v", got, cands, want)
		}
	})
}

// TestFilterMaximalSkipsLevels: a candidate subsumed by one two levels
// up, with no candidate between them, is dropped; a duplicate pair
// keeps one copy; order and supports are kept.
func TestFilterMaximalSkipsLevels(t *testing.T) {
	fi := func(sup int, items ...itemset.Item) mining.FrequentItemset {
		return mining.FrequentItemset{Set: itemset.New(items...), Support: sup}
	}
	cands := []mining.FrequentItemset{fi(9, 1), fi(4, 1, 2, 3), fi(6, 2, 4), fi(6, 2, 4), fi(5, 2, 5), fi(7, 5)}
	want := []mining.FrequentItemset{fi(4, 1, 2, 3), fi(6, 2, 4), fi(5, 2, 5)}
	if got := filterMaximal(cands); !sameItemsets(got, want) {
		t.Fatalf("filterMaximal kept %v, want %v", got, want)
	}
}

// TestFiltersAllocateConstant pins the filters' allocations on the
// 7,951 frequent itemsets of T10.I6 D2000 at 0.5 %: the closure filter
// makes its marks and its cursors, the subsumption filter a fixed
// handful of indexes — none per itemset, as both filter in place.
func TestFiltersAllocateConstant(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(2000))
	full, _ := mineSeq(t, d, d.MinSupCount(0.5))
	if full.Len() != 7951 {
		t.Fatalf("%d frequent itemsets, want 7,951", full.Len())
	}
	buf := make([]mining.FrequentItemset, full.Len())
	for _, c := range []struct {
		name   string
		filter func([]mining.FrequentItemset) []mining.FrequentItemset
		max    float64
	}{
		{"closed", closedFilter, 2},
		{"maximal", filterMaximal, 5},
	} {
		allocs := testing.AllocsPerRun(3, func() {
			copy(buf, full.Itemsets)
			c.filter(buf)
		})
		t.Logf("%s: %v allocations", c.name, allocs)
		if allocs > c.max {
			t.Errorf("%s filter made %v allocations over %d itemsets, want at most %v", c.name, allocs, full.Len(), c.max)
		}
	}
}
