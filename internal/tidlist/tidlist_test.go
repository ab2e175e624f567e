package tidlist

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/db"
	"repro/internal/itemset"
)

func mk(tids ...itemset.TID) List { return List(tids) }

func TestIntersectBasic(t *testing.T) {
	// The paper's own example: T(AB) = {1,5,7,10,50}, T(AC) = {1,4,7,10,11}
	// => T(ABC) = {1,7,10}.
	ab := mk(1, 5, 7, 10, 50)
	ac := mk(1, 4, 7, 10, 11)
	got := Intersect(ab, ac)
	want := mk(1, 7, 10)
	if len(got) != len(want) {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Intersect = %v, want %v", got, want)
		}
	}
}

func TestIntersectEdges(t *testing.T) {
	if got := Intersect(nil, mk(1, 2)); len(got) != 0 {
		t.Fatalf("nil ∩ x = %v", got)
	}
	if got := Intersect(mk(1, 2), nil); len(got) != 0 {
		t.Fatalf("x ∩ nil = %v", got)
	}
	if got := Intersect(mk(1, 3, 5), mk(2, 4, 6)); len(got) != 0 {
		t.Fatalf("disjoint ∩ = %v", got)
	}
	same := mk(2, 4, 9)
	got := Intersect(same, same)
	if len(got) != 3 {
		t.Fatalf("self ∩ = %v", got)
	}
}

func TestIntersectIntoReusesBuffer(t *testing.T) {
	buf := make(List, 0, 16)
	a, b := mk(1, 2, 3, 4), mk(2, 4, 6)
	out := IntersectInto(buf, a, b)
	if &out[:1][0] != &buf[:1][0] {
		t.Fatal("IntersectInto did not reuse the provided buffer")
	}
	if out.Support() != 2 {
		t.Fatalf("support = %d", out.Support())
	}
}

func TestShortCircuitMatchesPlainWhenFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		a := randomList(rng, 40, 200)
		b := randomList(rng, 40, 200)
		full := Intersect(a, b)
		for _, minsup := range []int{0, 1, len(full), len(full) + 1, 10} {
			got, _, ok := IntersectShortCircuit(nil, a, b, minsup)
			if len(full) >= minsup {
				if !ok {
					t.Fatalf("short-circuit aborted although |∩|=%d >= minsup=%d", len(full), minsup)
				}
				if len(got) != len(full) {
					t.Fatalf("short-circuit returned %d tids, want %d", len(got), len(full))
				}
				for i := range full {
					if got[i] != full[i] {
						t.Fatalf("short-circuit content mismatch")
					}
				}
			} else if ok {
				t.Fatalf("short-circuit claimed ok although |∩|=%d < minsup=%d", len(full), minsup)
			}
		}
	}
}

func TestShortCircuitAbortsEarly(t *testing.T) {
	// a and b share only their last element; with minsup == len(a) the very
	// first mismatch must abort the scan.
	a := mk(1, 2, 3, 4, 5, 100)
	b := mk(50, 60, 70, 80, 90, 100)
	_, ops, ok := IntersectShortCircuit(nil, a, b, 6)
	if ok {
		t.Fatal("should have aborted")
	}
	if ops > 2 {
		t.Fatalf("expected abort within 2 comparisons, took %d", ops)
	}
	// Infeasible before any work: shorter list below minsup.
	_, ops, ok = IntersectShortCircuit(nil, mk(1, 2), mk(1, 2, 3), 3)
	if ok || ops != 0 {
		t.Fatalf("infeasible case should cost 0 ops, got ops=%d ok=%v", ops, ok)
	}
}

func TestShortCircuitPaperExample(t *testing.T) {
	// minsup 100, |AB| = 119: the paper says we can stop after 20
	// mismatches in AB. Build AB with 119 tids of which the first 20 are
	// unique to AB, and AC disjoint apart from that.
	var ab, ac List
	for i := 0; i < 20; i++ {
		ab = append(ab, itemset.TID(i))
	}
	for i := 0; i < 99; i++ {
		ab = append(ab, itemset.TID(1000+2*i))
	}
	for i := 0; i < 200; i++ {
		ac = append(ac, itemset.TID(1000+2*i+1)) // interleaved, no matches
	}
	_, _, ok := IntersectShortCircuit(nil, ab, ac, 100)
	if ok {
		t.Fatal("intersection cannot reach support 100; must abort")
	}
}

func TestValidate(t *testing.T) {
	if err := mk(1, 2, 9).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := mk(1, 1).Validate(); err == nil {
		t.Fatal("duplicate should fail")
	}
	if err := mk(5, 3).Validate(); err == nil {
		t.Fatal("descending should fail")
	}
	if err := List(nil).Validate(); err != nil {
		t.Fatal("nil list is valid")
	}
}

func TestBuildPairs(t *testing.T) {
	d := &db.Database{
		NumItems: 6,
		Transactions: []db.Transaction{
			{TID: 0, Items: itemset.New(1, 2, 3)},
			{TID: 1, Items: itemset.New(1, 3)},
			{TID: 2, Items: itemset.New(2, 3)},
			{TID: 3, Items: itemset.New(1, 2, 3)},
		},
	}
	want := map[Pair]bool{{1, 2}: true, {1, 3}: true, {4, 5}: true}
	lists := BuildPairs(d, want)
	if got := lists[Pair{1, 2}]; got.Support() != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("T(1,2) = %v", got)
	}
	if got := lists[Pair{1, 3}]; got.Support() != 3 {
		t.Fatalf("T(1,3) = %v", got)
	}
	if _, present := lists[Pair{2, 3}]; present {
		t.Fatal("unwanted pair should not be built")
	}
	if _, present := lists[Pair{4, 5}]; present {
		t.Fatal("absent pair should have no entry")
	}
	for p, l := range lists {
		if err := l.Validate(); err != nil {
			t.Fatalf("list for %v not sorted: %v", p, err)
		}
	}
}

func TestConcatEqualsGlobalBuild(t *testing.T) {
	// Building pair lists per block partition and concatenating must equal
	// building them on the whole database — the key transformation-phase
	// invariant.
	rng := rand.New(rand.NewSource(3))
	d := randomDB(rng, 200, 12)
	want := map[Pair]bool{}
	for a := itemset.Item(0); a < 12; a++ {
		for b := a + 1; b < 12; b++ {
			want[Pair{a, b}] = true
		}
	}
	global := BuildPairs(d, want)
	for _, np := range []int{1, 2, 3, 5, 8} {
		parts := d.Partition(np)
		perPart := make([]map[Pair]List, np)
		for i, p := range parts {
			perPart[i] = BuildPairs(p, want)
		}
		for pr := range want {
			partials := make([]List, np)
			for i := range parts {
				partials[i] = perPart[i][pr]
			}
			cat := slices.Concat(partials...)
			if err := cat.Validate(); err != nil {
				t.Fatalf("np=%d pair %v: %v", np, pr, err)
			}
			g := global[pr]
			if len(cat) != len(g) {
				t.Fatalf("np=%d pair %v: concat %d tids, global %d", np, pr, len(cat), len(g))
			}
			for i := range g {
				if cat[i] != g[i] {
					t.Fatalf("np=%d pair %v: content mismatch", np, pr)
				}
			}
		}
	}
}

func TestSizeBytes(t *testing.T) {
	if mk(1, 2, 3).SizeBytes() != 12 {
		t.Fatal("SizeBytes should be 4*len")
	}
}

// Property: Intersect agrees with a set-model oracle and is sorted.
func TestIntersectQuick(t *testing.T) {
	f := func(ra, rb []uint16) bool {
		a := toList(ra)
		b := toList(rb)
		got := Intersect(a, b)
		if got.Validate() != nil {
			return false
		}
		inA := map[itemset.TID]bool{}
		for _, x := range a {
			inA[x] = true
		}
		var want int
		for _, x := range b {
			if inA[x] {
				want++
			}
		}
		if len(got) != want {
			return false
		}
		for _, x := range got {
			if !inA[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any minsup, short-circuit's ok is exactly |a∩b| >= minsup.
func TestShortCircuitQuick(t *testing.T) {
	f := func(ra, rb []uint16, ms uint8) bool {
		a, b := toList(ra), toList(rb)
		minsup := int(ms % 30)
		full := Intersect(a, b)
		got, _, ok := IntersectShortCircuit(nil, a, b, minsup)
		if ok != (len(full) >= minsup) {
			return false
		}
		if ok && len(got) != len(full) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func toList(raw []uint16) List {
	seen := map[itemset.TID]bool{}
	for _, x := range raw {
		seen[itemset.TID(x%512)] = true
	}
	out := make(List, 0, len(seen))
	for x := range seen {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func randomList(rng *rand.Rand, maxLen, universe int) List {
	n := rng.Intn(maxLen)
	seen := map[itemset.TID]bool{}
	for i := 0; i < n; i++ {
		seen[itemset.TID(rng.Intn(universe))] = true
	}
	out := make(List, 0, len(seen))
	for x := range seen {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func randomDB(rng *rand.Rand, numTx, numItems int) *db.Database {
	d := &db.Database{NumItems: numItems}
	for i := 0; i < numTx; i++ {
		n := 1 + rng.Intn(6)
		items := make([]itemset.Item, n)
		for j := range items {
			items[j] = itemset.Item(rng.Intn(numItems))
		}
		d.Transactions = append(d.Transactions, db.Transaction{
			TID: itemset.TID(i), Items: itemset.New(items...),
		})
	}
	return d
}
