package itemset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewSortsAndDedups(t *testing.T) {
	s := New(5, 1, 3, 5, 1)
	want := Itemset{1, 3, 5}
	if !s.Equal(want) {
		t.Fatalf("New(5,1,3,5,1) = %v, want %v", s, want)
	}
	if New().K() != 0 {
		t.Fatalf("New() should be empty")
	}
}

func TestEqualAndLess(t *testing.T) {
	cases := []struct {
		a, b       Itemset
		eq, aLessB bool
	}{
		{New(1, 2), New(1, 2), true, false},
		{New(1, 2), New(1, 3), false, true},
		{New(1, 2), New(1, 2, 3), false, true},
		{New(2), New(1, 9), false, false},
		{nil, nil, true, false},
		{nil, New(1), false, true},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.eq {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.eq)
		}
		if got := c.a.Less(c.b); got != c.aLessB {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.aLessB)
		}
	}
}

func TestContains(t *testing.T) {
	s := New(2, 4, 6, 8, 10)
	for _, x := range []Item{2, 4, 6, 8, 10} {
		if !s.Contains(x) {
			t.Errorf("%v should contain %d", s, x)
		}
	}
	for _, x := range []Item{1, 3, 5, 7, 9, 11, 0, -1} {
		if s.Contains(x) {
			t.Errorf("%v should not contain %d", s, x)
		}
	}
	if Itemset(nil).Contains(1) {
		t.Error("empty itemset contains nothing")
	}
}

func TestSubsetOf(t *testing.T) {
	tr := New(1, 3, 5, 7, 9, 11)
	if !New(3, 9).SubsetOf(tr) {
		t.Error("{3 9} should be subset")
	}
	if !New().SubsetOf(tr) {
		t.Error("empty set is subset of everything")
	}
	if New(3, 4).SubsetOf(tr) {
		t.Error("{3 4} is not a subset")
	}
	if New(1, 3, 5, 7, 9, 11, 13).SubsetOf(tr) {
		t.Error("longer set cannot be subset")
	}
	if !tr.SubsetOf(tr) {
		t.Error("set is subset of itself")
	}
}

func TestPrefixOps(t *testing.T) {
	s := New(1, 2, 3, 4)
	if !s.HasPrefix(New(1, 2)) || s.HasPrefix(New(2)) {
		t.Error("HasPrefix wrong")
	}
	if !s.Prefix(2).Equal(New(1, 2)) {
		t.Error("Prefix wrong")
	}
	a, b := New(1, 2, 5), New(1, 2, 9)
	if !a.SharesPrefix(b) {
		t.Error("SharesPrefix should hold for {1 2 5},{1 2 9}")
	}
	if a.SharesPrefix(New(1, 3, 9)) {
		t.Error("SharesPrefix should not hold across different prefixes")
	}
	if Itemset(nil).SharesPrefix(nil) {
		t.Error("empty itemsets share no prefix (join undefined)")
	}
}

func TestJoin(t *testing.T) {
	got := New(1, 2, 5).Join(New(1, 2, 9))
	if !got.Equal(New(1, 2, 5, 9)) {
		t.Fatalf("Join = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Join with unordered last items should panic")
		}
	}()
	New(1, 2, 9).Join(New(1, 2, 5))
}

func TestWithoutMinusUnion(t *testing.T) {
	s := New(1, 2, 3)
	if !s.Without(1).Equal(New(1, 3)) {
		t.Error("Without wrong")
	}
	if !s.Minus(New(2)).Equal(New(1, 3)) {
		t.Error("Minus wrong")
	}
	if !New(1, 5).Union(New(2, 5, 9)).Equal(New(1, 2, 5, 9)) {
		t.Error("Union wrong")
	}
	// Without must not alias the receiver's backing array.
	w := s.Without(2)
	w = append(w, 99)
	if !s.Equal(New(1, 2, 3)) {
		t.Error("Without aliased its receiver")
	}
}

func TestStringAndKey(t *testing.T) {
	s := New(1, 40, 100)
	if s.String() != "{1 40 100}" {
		t.Errorf("String = %q", s.String())
	}
	back, err := ParseKey(s.Key())
	if err != nil || !back.Equal(s) {
		t.Errorf("ParseKey(Key) = %v, %v", back, err)
	}
	if empty, err := ParseKey(""); err != nil || len(empty) != 0 {
		t.Errorf("ParseKey(\"\") = %v, %v", empty, err)
	}
	if _, err := ParseKey("zz,!!"); err == nil {
		t.Error("ParseKey should reject garbage")
	}
}

func TestKeyInjective(t *testing.T) {
	// Keys of distinct itemsets must differ (quick-check style over a
	// bounded random domain).
	rng := rand.New(rand.NewSource(42))
	seen := map[string]Itemset{}
	for i := 0; i < 2000; i++ {
		n := rng.Intn(6)
		items := make([]Item, n)
		for j := range items {
			items[j] = Item(rng.Intn(50))
		}
		s := New(items...)
		k := s.Key()
		if prev, ok := seen[k]; ok && !prev.Equal(s) {
			t.Fatalf("key collision: %v and %v -> %q", prev, s, k)
		}
		seen[k] = s
	}
}

func TestSortLexicographic(t *testing.T) {
	sets := []Itemset{New(2, 3), New(1, 9), New(1, 2, 3), New(1, 2)}
	Sort(sets)
	want := []Itemset{New(1, 2), New(1, 2, 3), New(1, 9), New(2, 3)}
	for i := range want {
		if !sets[i].Equal(want[i]) {
			t.Fatalf("Sort order wrong at %d: %v", i, sets)
		}
	}
}

func TestKSubsetsEnumeration(t *testing.T) {
	s := New(1, 2, 3, 4)
	var got []string
	KSubsets(s, 2, func(sub Itemset) bool {
		got = append(got, sub.String())
		return true
	})
	want := []string{"{1 2}", "{1 3}", "{1 4}", "{2 3}", "{2 4}", "{3 4}"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("KSubsets = %v, want %v", got, want)
	}
}

func TestKSubsetsCountAndOrder(t *testing.T) {
	s := New(1, 2, 3, 4, 5, 6, 7)
	for k := 0; k <= 8; k++ {
		var n int64
		var prev Itemset
		KSubsets(s, k, func(sub Itemset) bool {
			if prev != nil && !prev.Less(sub) {
				t.Fatalf("k=%d not in lexicographic order: %v then %v", k, prev, sub)
			}
			prev = sub.Clone()
			n++
			return true
		})
		if want := Binomial(len(s), k); n != want {
			t.Fatalf("k=%d produced %d subsets, want %d", k, n, want)
		}
	}
}

func TestKSubsetsEarlyAbort(t *testing.T) {
	n := 0
	KSubsets(New(1, 2, 3, 4), 2, func(Itemset) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("abort after 3, got %d calls", n)
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {5, 3, 10},
		{10, 4, 210}, {1000, 2, 499500}, {4, 5, 0}, {4, -1, 0},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

// Property: Compare is antisymmetric, is 0 exactly on equal itemsets,
// and orders like Less and like the paper's rule spelled out here (the
// first differing item decides; a proper prefix comes first). Items are
// drawn from a small universe so equal and prefix pairs are common.
func TestCompareQuick(t *testing.T) {
	ref := func(s, t Itemset) int {
		for i := 0; i < len(s) && i < len(t); i++ {
			if s[i] != t[i] {
				if s[i] < t[i] {
					return -1
				}
				return 1
			}
		}
		switch {
		case len(s) < len(t):
			return -1
		case len(s) > len(t):
			return 1
		}
		return 0
	}
	f := func(a, b []uint8) bool {
		var ai, bi []Item
		for _, x := range a {
			ai = append(ai, Item(x%5))
		}
		for _, x := range b {
			bi = append(bi, Item(x%5))
		}
		s, u := New(ai...), New(bi...)
		c := Compare(s, u)
		return c == ref(s, u) && c == -Compare(u, s) &&
			(c == 0) == s.Equal(u) && (c < 0) == s.Less(u) && (c > 0) == u.Less(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: SubsetOf agrees with a map-based oracle.
func TestSubsetOfQuick(t *testing.T) {
	f := func(a, b []uint8) bool {
		var ai, bi []Item
		for _, x := range a {
			ai = append(ai, Item(x%32))
		}
		for _, x := range b {
			bi = append(bi, Item(x%32))
		}
		s, tr := New(ai...), New(bi...)
		inT := map[Item]bool{}
		for _, x := range tr {
			inT[x] = true
		}
		want := true
		for _, x := range s {
			if !inT[x] {
				want = false
				break
			}
		}
		return s.SubsetOf(tr) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Union is sorted, contains exactly the set union, and Minus
// then Union round-trips.
func TestUnionMinusQuick(t *testing.T) {
	f := func(a, b []uint8) bool {
		var ai, bi []Item
		for _, x := range a {
			ai = append(ai, Item(x%64))
		}
		for _, x := range b {
			bi = append(bi, Item(x%64))
		}
		s, u := New(ai...), New(bi...)
		un := s.Union(u)
		if !sort.SliceIsSorted(un, func(i, j int) bool { return un[i] < un[j] }) {
			return false
		}
		want := map[Item]bool{}
		for _, x := range s {
			want[x] = true
		}
		for _, x := range u {
			want[x] = true
		}
		if len(un) != len(want) {
			return false
		}
		for _, x := range un {
			if !want[x] {
				return false
			}
		}
		// (s ∪ u) \ u ⊆ s and re-union restores.
		diff := un.Minus(u)
		return diff.SubsetOf(s) && diff.Union(u).Equal(un)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: every k-subset emitted is sorted, a subset of s, and distinct.
func TestKSubsetsQuick(t *testing.T) {
	f := func(raw []uint8, kk uint8) bool {
		var items []Item
		for _, x := range raw {
			items = append(items, Item(x%40))
		}
		s := New(items...)
		if len(s) > 12 {
			s = s[:12]
		}
		k := int(kk % 6)
		seen := map[string]bool{}
		ok := true
		KSubsets(s, k, func(sub Itemset) bool {
			if len(sub) != k || !sub.SubsetOf(s) || seen[sub.Key()] {
				ok = false
				return false
			}
			seen[sub.Key()] = true
			return true
		})
		return ok && int64(len(seen)) == Binomial(len(s), k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
