package paircount

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/db"
	"repro/internal/itemset"
	"repro/internal/tidlist"
)

func TestIndexBijective(t *testing.T) {
	c := New(20)
	seen := map[int]bool{}
	for a := itemset.Item(0); a < 20; a++ {
		for b := a + 1; b < 20; b++ {
			i := c.index(a, b)
			if i < 0 || i >= c.NumCells() {
				t.Fatalf("index(%d,%d) = %d out of range [0,%d)", a, b, i, c.NumCells())
			}
			if seen[i] {
				t.Fatalf("index collision at (%d,%d)", a, b)
			}
			seen[i] = true
		}
	}
	if len(seen) != c.NumCells() {
		t.Fatalf("covered %d cells of %d", len(seen), c.NumCells())
	}
}

func TestCountBasics(t *testing.T) {
	c := New(5)
	c.AddTransaction(itemset.New(0, 1, 2))
	c.AddTransaction(itemset.New(1, 2, 4))
	if c.Count(1, 2) != 2 || c.Count(2, 1) != 2 {
		t.Fatalf("Count(1,2) = %d", c.Count(1, 2))
	}
	if c.Count(0, 4) != 0 {
		t.Fatal("Count(0,4) should be 0")
	}
	if c.Count(0, 1) != 1 {
		t.Fatal("Count(0,1) should be 1")
	}
}

func TestSelfPairPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(3).Count(1, 1)
}

func TestMergeEqualsWholeScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := &db.Database{NumItems: 15}
	for i := 0; i < 300; i++ {
		items := make([]itemset.Item, 1+rng.Intn(6))
		for j := range items {
			items[j] = itemset.Item(rng.Intn(15))
		}
		d.Transactions = append(d.Transactions, db.Transaction{TID: itemset.TID(i), Items: itemset.New(items...)})
	}
	whole := New(15)
	whole.AddPartition(d)
	for _, np := range []int{2, 3, 7} {
		merged := New(15)
		for _, p := range d.Partition(np) {
			local := New(15)
			local.AddPartition(p)
			merged.Merge(local)
		}
		for a := itemset.Item(0); a < 15; a++ {
			for b := a + 1; b < 15; b++ {
				if merged.Count(a, b) != whole.Count(a, b) {
					t.Fatalf("np=%d: merged(%d,%d)=%d whole=%d", np, a, b, merged.Count(a, b), whole.Count(a, b))
				}
			}
		}
	}
}

func TestMergeUniverseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(3).Merge(New(4))
}

func TestFrequentSortedAndThresholded(t *testing.T) {
	c := New(4)
	c.AddTransaction(itemset.New(0, 1))
	c.AddTransaction(itemset.New(0, 1))
	c.AddTransaction(itemset.New(0, 2))
	freq := c.Frequent(2)
	if len(freq) != 1 || freq[0].Pair.A != 0 || freq[0].Pair.B != 1 || freq[0].Count != 2 {
		t.Fatalf("Frequent = %v", freq)
	}
	all := c.Frequent(1)
	for i := 1; i < len(all); i++ {
		prev, cur := all[i-1].Pair, all[i].Pair
		if prev.A > cur.A || (prev.A == cur.A && prev.B >= cur.B) {
			t.Fatalf("Frequent not lexicographically sorted: %v", all)
		}
	}
	if len(c.Frequent(0)) != c.NumCells() {
		t.Fatal("minsup 0 should return every pair")
	}
}

func TestOpsAccounting(t *testing.T) {
	d := &db.Database{NumItems: 10, Transactions: []db.Transaction{
		{TID: 0, Items: itemset.New(1, 2, 3, 4)}, // C(4,2)=6
		{TID: 1, Items: itemset.New(5)},          // 0
	}}
	c := New(10)
	if ops := c.AddPartition(d); ops != 6 {
		t.Fatalf("ops = %d, want 6", ops)
	}
}

// Property: counts and the AddPartition op count match a map-based
// oracle for random transactions, over universes from the smallest with
// a pair (m=2) up to the paper's N=1000. Every fifth transaction holds
// the universe's first and last items, and others are forced empty or
// single-item.
func TestCounterQuick(t *testing.T) {
	for _, m := range []int{2, 3, 64, 1000} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			d := &db.Database{NumItems: m}
			for i := 0; i < 50; i++ {
				items := make([]itemset.Item, rng.Intn(7))
				for j := range items {
					items[j] = itemset.Item(rng.Intn(m))
				}
				switch i % 5 {
				case 0:
					items = append(items, 0, itemset.Item(m-1))
				case 1:
					items = items[:0]
				case 2:
					items = items[:min(len(items), 1)]
				}
				d.Transactions = append(d.Transactions, db.Transaction{TID: itemset.TID(i), Items: itemset.New(items...)})
			}
			c := New(m)
			ops := c.AddPartition(d)
			oracle := map[[2]itemset.Item]int{}
			var wantOps int64
			for _, tx := range d.Transactions {
				l := int64(len(tx.Items))
				wantOps += l * (l - 1) / 2
				for x := 0; x < len(tx.Items); x++ {
					for y := x + 1; y < len(tx.Items); y++ {
						oracle[[2]itemset.Item{tx.Items[x], tx.Items[y]}]++
					}
				}
			}
			if ops != wantOps {
				return false
			}
			// Every oracle pair matches, and the cells sum to the oracle's
			// total, so no other cell was incremented.
			var total int64
			for p, n := range oracle {
				if c.Count(p[0], p[1]) != n {
					return false
				}
				total += int64(n)
			}
			for _, v := range c.Counts() {
				total -= int64(v)
			}
			return total == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
	}
}

func TestAccessorsAndFromCounts(t *testing.T) {
	c := New(4)
	if c.NumItems() != 4 {
		t.Fatalf("NumItems = %d", c.NumItems())
	}
	if c.SizeBytes() != 4*int64(c.NumCells()) {
		t.Fatalf("SizeBytes = %d", c.SizeBytes())
	}
	c.AddTransaction(itemset.New(0, 1))
	back := FromCounts(4, c.Counts())
	if back.Count(0, 1) != 1 {
		t.Fatal("FromCounts lost data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromCounts with wrong length should panic")
		}
	}()
	FromCounts(4, []int32{1, 2})
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1)
}

func TestZeroAndOneItemUniverse(t *testing.T) {
	if New(0).NumCells() != 0 {
		t.Fatal("0-item universe should have no cells")
	}
	if New(1).NumCells() != 0 {
		t.Fatal("1-item universe should have no cells")
	}
	if New(1000).NumCells() != 499500 {
		t.Fatal("paper's N=1000 should give C(1000,2)=499500 cells")
	}
}

// pairOracle counts every pair of every transaction, each transaction
// weighted by its repeat count (1 when repeats is nil).
func pairOracle(txs []itemset.Itemset, repeats []int) map[[2]itemset.Item]int {
	oracle := map[[2]itemset.Item]int{}
	for i, items := range txs {
		w := 1
		if repeats != nil {
			w = repeats[i]
		}
		for x := 0; x < len(items); x++ {
			for y := x + 1; y < len(items); y++ {
				oracle[[2]itemset.Item{items[x], items[y]}] += w
			}
		}
	}
	return oracle
}

// checkCounts fails unless every pair of c's universe counts what the
// oracle does (zero when absent).
func checkCounts(t *testing.T, what string, c *Counter, oracle map[[2]itemset.Item]int) {
	t.Helper()
	for a := itemset.Item(0); int(a) < c.NumItems(); a++ {
		for b := a + 1; int(b) < c.NumItems(); b++ {
			if got, want := c.Count(a, b), oracle[[2]itemset.Item{a, b}]; got != want {
				t.Fatalf("%s: Count(%d,%d) = %d, oracle %d", what, a, b, got, want)
			}
		}
	}
}

// checkFrequent fails unless Frequent(minsup) is exactly the oracle's
// pairs with count >= minsup, in lexicographic order.
func checkFrequent(t *testing.T, what string, c *Counter, oracle map[[2]itemset.Item]int, minsup int) {
	t.Helper()
	var want []FrequentPair
	for a := itemset.Item(0); int(a) < c.NumItems(); a++ {
		for b := a + 1; int(b) < c.NumItems(); b++ {
			if n := oracle[[2]itemset.Item{a, b}]; n >= minsup {
				want = append(want, FrequentPair{Pair: tidlist.Pair{A: a, B: b}, Count: n})
			}
		}
	}
	if got := c.Frequent(minsup); !slices.Equal(got, want) {
		t.Fatalf("%s: Frequent(%d) = %v, want %v", what, minsup, got, want)
	}
}

// oracleTotal sums the oracle's counts.
func oracleTotal(oracle map[[2]itemset.Item]int) int64 {
	var total int64
	for _, n := range oracle {
		total += int64(n)
	}
	return total
}

// sumCounts sums the reduction vector Counts returns.
func sumCounts(c *Counter) int64 {
	var total int64
	for _, v := range c.Counts() {
		total += int64(v)
	}
	return total
}

// TestFoldBoundary feeds 70,000 transactions that all hold the pair
// {1,4}, so counting crosses the uint16 cells' fold at math.MaxUint16
// transactions, and checks every read of the counter against a map
// oracle, counts above 65,535 included.
func TestFoldBoundary(t *testing.T) {
	const m, n, extra = 6, 70000, 1000
	txAt := func(i int) itemset.Itemset {
		items := []itemset.Item{1, 4}
		if i%2 == 0 {
			items = append(items, 0)
		}
		if i%3 == 0 {
			items = append(items, 2)
		}
		if i%7 == 0 {
			items = append(items, 5)
		}
		return itemset.New(items...)
	}
	var txs []itemset.Itemset
	d := &db.Database{NumItems: m}
	for i := 0; i < n+extra; i++ {
		txs = append(txs, txAt(i))
		d.Transactions = append(d.Transactions, db.Transaction{TID: itemset.TID(i), Items: txs[i]})
	}
	head := &db.Database{NumItems: m, Transactions: d.Transactions[:n]}
	tail := &db.Database{NumItems: m, Transactions: d.Transactions[n:]}
	oracle := pairOracle(txs[:n], nil)

	c := New(m)
	c.AddPartition(head)
	if c.folded == nil {
		t.Fatalf("%d transactions did not fold", n)
	}
	checkCounts(t, "folded", c, oracle)
	if got := c.Count(4, 1); got != n {
		t.Fatalf("Count(4,1) = %d, want %d", got, n)
	}
	for _, minsup := range []int{0, 1, n / 2, math.MaxUint16, math.MaxUint16 + 1, n, n + 1} {
		checkFrequent(t, "folded", c, oracle, minsup)
	}
	if got, want := sumCounts(c), oracleTotal(oracle); got != want {
		t.Fatalf("Counts sums to %d, oracle %d", got, want)
	}
	checkCounts(t, "after Counts", c, oracle)
	back := FromCounts(m, c.Counts())
	checkCounts(t, "FromCounts(Counts())", back, oracle)
	checkFrequent(t, "FromCounts(Counts())", back, oracle, 1)

	// A folded and an unfolded counter merge, in either direction, to
	// what one counter fed every transaction holds.
	whole := New(m)
	whole.AddPartition(d)
	all := pairOracle(txs, nil)
	checkCounts(t, "whole", whole, all)
	folded := New(m)
	folded.AddPartition(head)
	unfolded := New(m)
	unfolded.AddPartition(tail)
	if unfolded.folded != nil {
		t.Fatalf("%d transactions folded", extra)
	}
	folded.Merge(unfolded)
	checkCounts(t, "folded.Merge(unfolded)", folded, all)
	checkCounts(t, "merged-in unfolded", unfolded, pairOracle(txs[n:], nil))
	into := New(m)
	into.AddPartition(tail)
	other := New(m)
	other.AddPartition(head)
	into.Merge(other)
	checkCounts(t, "unfolded.Merge(folded)", into, all)
	checkCounts(t, "merged-in folded", other, oracle)
	checkFrequent(t, "unfolded.Merge(folded)", into, all, math.MaxUint16+1)
}
