package hashtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/itemset"
)

func TestInsertSearch(t *testing.T) {
	tr := New(2)
	a := tr.Insert(itemset.New(1, 2))
	tr.Insert(itemset.New(1, 3))
	tr.Insert(itemset.New(2, 3))
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if got := tr.Search(itemset.New(1, 2)); got != a {
		t.Fatal("Search did not find inserted candidate")
	}
	if tr.Search(itemset.New(1, 4)) != nil {
		t.Fatal("Search found ghost candidate")
	}
	if tr.Search(itemset.New(1, 2, 3)) != nil {
		t.Fatal("Search with wrong k should be nil")
	}
}

func TestInsertWrongSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(3).Insert(itemset.New(1, 2))
}

func TestNewInvalidK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

func TestCountTransactionBasic(t *testing.T) {
	tr := New(2)
	ab := tr.Insert(itemset.New(1, 2))
	ac := tr.Insert(itemset.New(1, 3))
	bc := tr.Insert(itemset.New(2, 3))
	xy := tr.Insert(itemset.New(8, 9))

	st := tr.NewCountState()
	tr.CountTransactionInto(st, 0, itemset.New(1, 2, 3))
	tr.CountTransactionInto(st, 1, itemset.New(1, 2))
	tr.CountTransactionInto(st, 2, itemset.New(3))
	tr.CountTransactionInto(st, 3, itemset.New(1, 2, 3, 8, 9))

	count := func(c *Candidate) int32 { return st.Counts[c.Index()] }
	if count(ab) != 3 || count(ac) != 2 || count(bc) != 2 || count(xy) != 1 {
		t.Fatalf("counts ab=%d ac=%d bc=%d xy=%d", count(ab), count(ac), count(bc), count(xy))
	}
}

func TestFrequent(t *testing.T) {
	tr := New(1)
	a := tr.Insert(itemset.New(1))
	b := tr.Insert(itemset.New(2))
	st := tr.NewCountState()
	st.Counts[a.Index()] = 5
	st.Counts[b.Index()] = 2
	freq := tr.Frequent(st, 3)
	if len(freq) != 1 || !freq[0].Set.Equal(itemset.New(1)) {
		t.Fatalf("Frequent = %v", freq)
	}
	if len(tr.Frequent(st, 100)) != 0 {
		t.Fatal("nothing should be frequent at minsup 100")
	}
}

func TestShortTransactionIsFree(t *testing.T) {
	tr := New(3)
	tr.Insert(itemset.New(1, 2, 3))
	if ops := tr.CountTransactionInto(tr.NewCountState(), 0, itemset.New(1, 2)); ops != 0 {
		t.Fatalf("transaction shorter than k should cost 0 ops, got %d", ops)
	}
}

func TestSplitPreservesSearch(t *testing.T) {
	tr := New(3, WithLeafCap(2), WithFanout(4))
	var sets []itemset.Itemset
	for a := itemset.Item(0); a < 6; a++ {
		for b := a + 1; b < 7; b++ {
			for c := b + 1; c < 8; c++ {
				s := itemset.New(a, b, c)
				sets = append(sets, s)
				tr.Insert(s)
			}
		}
	}
	for _, s := range sets {
		if tr.Search(s) == nil {
			t.Fatalf("lost candidate %v after splits", s)
		}
	}
}

// Oracle-based property: counting via the tree equals brute-force subset
// counting for random candidate sets and transactions, across geometries.
func TestCountMatchesOracleQuick(t *testing.T) {
	type geometry struct{ fanout, leafCap int }
	geoms := []geometry{{64, 8}, {1, 1}, {2, 3}, {7, 2}}
	f := func(seed int64, kk uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + int(kk%3)
		for _, g := range geoms {
			tr := New(k, WithFanout(g.fanout), WithLeafCap(g.leafCap))
			seen := map[string]*Candidate{}
			for i := 0; i < 30; i++ {
				items := make([]itemset.Item, k)
				for j := range items {
					items[j] = itemset.Item(rng.Intn(15))
				}
				s := itemset.New(items...)
				if len(s) != k || seen[s.Key()] != nil {
					continue
				}
				seen[s.Key()] = tr.Insert(s)
			}
			oracle := map[string]int{}
			st := tr.NewCountState()
			for tid := 0; tid < 40; tid++ {
				n := rng.Intn(10)
				items := make([]itemset.Item, n)
				for j := range items {
					items[j] = itemset.Item(rng.Intn(15))
				}
				tx := itemset.New(items...)
				tr.CountTransactionInto(st, itemset.TID(tid), tx)
				for key, c := range seen {
					if c.Set.SubsetOf(tx) {
						oracle[key]++
					}
				}
			}
			for key, c := range seen {
				if int(st.Counts[c.Index()]) != oracle[key] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessors(t *testing.T) {
	tr := New(2)
	c := tr.Insert(itemset.New(1, 2))
	tr.Insert(itemset.New(3, 4))
	if tr.K() != 2 {
		t.Fatalf("K = %d", tr.K())
	}
	if c.Index() != 0 || tr.Candidates()[1].Index() != 1 {
		t.Fatal("insertion indices wrong")
	}
	if len(tr.Candidates()) != 2 {
		t.Fatal("Candidates wrong")
	}
	if tr.SizeBytes() <= 0 {
		t.Fatal("SizeBytes should be positive")
	}
	// A split tree is strictly larger than a leaf-only tree with the same
	// candidates.
	small := New(2, WithLeafCap(100))
	big := New(2, WithLeafCap(1), WithFanout(8))
	for a := itemset.Item(0); a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			small.Insert(itemset.New(a, b))
			big.Insert(itemset.New(a, b))
		}
	}
	if big.SizeBytes() <= small.SizeBytes() {
		t.Fatalf("split tree (%d) should be larger than flat tree (%d)",
			big.SizeBytes(), small.SizeBytes())
	}
}

func TestCountStateSharedTree(t *testing.T) {
	// Two counters over one read-only tree must not interfere: state A's
	// counts are {1,2}: 2 and {2,3}: 1 whether or not state B counts
	// between its transactions, and B sees only its own.
	tr := New(2)
	tr.Insert(itemset.New(1, 2))
	tr.Insert(itemset.New(2, 3))

	sA := tr.NewCountState()
	sB := tr.NewCountState()
	txsA := []itemset.Itemset{itemset.New(1, 2, 3), itemset.New(1, 2)}
	txsB := []itemset.Itemset{itemset.New(2, 3)}
	for i, tx := range txsA {
		tr.CountTransactionInto(sA, itemset.TID(i), tx)
		if i < len(txsB) {
			tr.CountTransactionInto(sB, itemset.TID(i), txsB[i])
		}
	}
	if sA.Counts[0] != 2 || sA.Counts[1] != 1 {
		t.Fatalf("state A counts = %v, want [2 1]", sA.Counts)
	}
	if sB.Counts[0] != 0 || sB.Counts[1] != 1 {
		t.Fatalf("state B counts = %v", sB.Counts)
	}
	// Short transactions cost nothing.
	if ops := tr.CountTransactionInto(sA, 99, itemset.New(5)); ops != 0 {
		t.Fatalf("short transaction ops = %d", ops)
	}
}

func TestCountStateCollisionGuard(t *testing.T) {
	// fanout 1 forces every item into the same bucket; every descent path
	// reaches the same leaves, stressing the lastTID guard.
	tr := New(2, WithFanout(1), WithLeafCap(1))
	tr.Insert(itemset.New(1, 2))
	tr.Insert(itemset.New(3, 4))
	st := tr.NewCountState()
	tr.CountTransactionInto(st, 7, itemset.New(1, 2, 3, 4, 5))
	if st.Counts[0] != 1 || st.Counts[1] != 1 {
		t.Fatalf("collision double count: %v", st.Counts)
	}
}

func TestOpsAccounting(t *testing.T) {
	tr := New(2)
	tr.Insert(itemset.New(1, 2))
	if ops := tr.CountTransactionInto(tr.NewCountState(), 0, itemset.New(1, 2, 3)); ops <= 0 {
		t.Fatalf("ops should be positive, got %d", ops)
	}
}
