package eclat

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/paircount"
	"repro/internal/tidlist"
)

// rowsInput returns a vertical input of items random tid-lists over n
// TIDs lo, lo+stride, …, item i holding each TID with probability
// density(i), encoded item by item in the encodings of reprs in turn.
func rowsInput(rng *rand.Rand, n, items int, lo, stride int, density func(int) float64, reprs []tidlist.Repr) VerticalInput {
	var ks tidlist.KernelStats
	sets := make([]tidlist.Set, items)
	for it := range sets {
		var l tidlist.List
		for k := 0; k < n; k++ {
			if rng.Float64() < density(it) {
				l = append(l, itemset.TID(lo+k*stride))
			}
		}
		if len(l) > 0 {
			sets[it] = tidlist.Convert(l, reprs[it%len(reprs)], &ks)
		}
	}
	return VerticalInput{NumTransactions: n, Items: sets}
}

// checkRowsCount counts members both ways — count over the members'
// transposition and countRows over prefix's rows — on the shared
// scratch cs, and fails unless both triangles hold the IntersectSets
// support of every pair, the increments agree, and countRows reset
// every rank → member entry it set. It then opens each member's
// sub-class by joins and checks it the same way, below it to depth
// levels, with the member's tid-set as the sub-class's prefix. It
// returns the classes checked.
func checkRowsCount(t *testing.T, cs *countScratch, rows *txRows, members []member, prefix tidlist.Set, minsup, depth int) int {
	t.Helper()
	var ks tidlist.KernelStats
	s := len(members)
	p := planClass(members, 0)
	base, incs := cs.count(members, p.lo, p.span)
	want := slices.Clone(cs.cells[base:])
	cs.cells = cs.cells[:base]
	base, rowIncs := cs.countRows(members, rows, prefix)
	got := cs.cells[base:]
	cs.cells = cs.cells[:base]
	if rowIncs != incs {
		t.Fatalf("class %s…: rows gave %d increments, the transposition %d", members[0].set.Key(), rowIncs, incs)
	}
	for i := 0; i < s-1; i++ {
		for j := i + 1; j < s; j++ {
			c := cellBase(i, s) + j
			sup, _ := tidlist.IntersectSets(nil, members[i].tids, members[j].tids, &ks)
			if int(got[c]) != sup.Support() || int(want[c]) != sup.Support() {
				t.Fatalf("class %s… pair (%d,%d): rows %d, transposition %d, IntersectSets %d",
					members[0].set.Key(), i, j, got[c], want[c], sup.Support())
			}
		}
	}
	for r, m := range cs.member {
		if m != -1 {
			t.Fatalf("rank %d still maps to member %d after the count", r, m)
		}
	}
	checked := 1
	if depth <= 1 {
		return checked
	}
	for i := 0; i < s-1; i++ {
		var next []member
		for j := i + 1; j < s; j++ {
			if tids, _ := tidlist.IntersectSets(nil, members[i].tids, members[j].tids, &ks); tids.Support() >= minsup {
				next = append(next, member{set: members[i].set.Join(members[j].set), tids: tids})
			}
		}
		if len(next) > 1 {
			checked += checkRowsCount(t, cs, rows, next, members[i].tids, minsup, depth-1)
		}
	}
	return checked
}

// TestCountRowsMatchesTransposition: on random vertical data — dense
// and sparse, TIDs offset from 0 and gapped, a span wider than one
// 64K-TID chunk, item sets in every encoding and in a mix — the count
// fed by the L2 count's rows over a class's prefix fills the same
// triangle as the members' transposition, with the same increments, for
// every top-level class under every member encoding and for their
// sub-classes two levels down.
func TestCountRowsMatchesTransposition(t *testing.T) {
	all := []tidlist.Repr{tidlist.ReprSparse, tidlist.ReprBitset, tidlist.ReprRoaring}
	cases := []struct {
		name              string
		n, items, lo, gap int
		density           func(int) float64
		pct               float64
	}{
		{"dense", 3000, 24, 0, 1, func(int) float64 { return 0.35 }, 3},
		{"sparse", 6000, 60, 0, 1, func(it int) float64 { return 0.02 + 0.06*float64(it%5)/4 }, 0.05},
		{"offset", 3000, 20, 200_000, 1, func(int) float64 { return 0.3 }, 3},
		{"gapped", 2500, 20, 7, 3, func(int) float64 { return 0.3 }, 3},
		{"wide", 70_000, 10, 30_000, 1, func(it int) float64 { return 0.15 + 0.02*float64(it) }, 2},
	}
	for ci, c := range cases {
		for ri, reprs := range [][]tidlist.Repr{{tidlist.ReprSparse}, {tidlist.ReprBitset}, {tidlist.ReprRoaring}, all} {
			rng := rand.New(rand.NewSource(int64(100*ci + ri)))
			in := rowsInput(rng, c.n, c.items, c.lo, c.gap, c.density, reprs)
			minsup := max(2, int(c.pct*float64(c.n)/100))
			var st Stats
			v := buildVerticalFromSets(context.Background(), in, minsup, &st, Options{})
			if v.rows == nil {
				t.Fatalf("%s: the L2 count kept no rows", c.name)
			}
			if len(v.classes) == 0 {
				t.Fatalf("%s: no class at minsup %d", c.name, minsup)
			}
			cs := &countScratch{}
			checked := 0
			for k := range v.classes {
				_, prefix := v.prefix(k)
				if prefix == nil {
					t.Fatalf("%s: class %d has no prefix tid-set", c.name, k)
				}
				for _, r := range allReprs {
					depth := 1
					if r == tidlist.ReprAuto {
						depth = 3
					}
					checked += checkRowsCount(t, cs, v.rows, v.sets.classMembers(&v.classes[k], r, &st, &arena{}), prefix, minsup, depth)
				}
			}
			if checked <= 4*len(v.classes) {
				t.Fatalf("%s %v: checked %d classes, none below the top level", c.name, reprs, checked)
			}
		}
	}
}

// TestVerticalRowsKept: the vertical build keeps the L2 count's rows —
// each TID's row is exactly the ranks of the frequent items holding it,
// ascending — when the mine is unbudgeted and counted L2, including a
// memo miss, and keeps none after an L2 memo hit, under a residency
// budget, when the TIDs are too scattered for a row index, and on
// horizontal input.
func TestVerticalRowsKept(t *testing.T) {
	ctx := context.Background()
	cfg := gen.T10I6(2000)
	cfg.AvgTxLen, cfg.NumItems = 20, 200
	d := gen.MustGenerate(cfg)
	minsup := d.MinSupCount(1.25)
	in := VerticalInput{NumTransactions: d.Len(), Items: verticalSets(d, tidlist.ReprAuto)}
	build := func(in VerticalInput) *vertical {
		var st Stats
		return buildVerticalFromSets(ctx, in, minsup, &st, Options{})
	}

	v := build(in)
	if v.rows == nil {
		t.Fatal("unbudgeted mine kept no rows")
	}
	for r, it := range v.rows.items {
		if in.Items[it].Support() < minsup || (r > 0 && v.rows.items[r-1] >= it) {
			t.Fatalf("rank %d is item %d: not the frequent items ascending", r, it)
		}
	}
	for _, tx := range d.Transactions {
		var want itemset.Itemset
		for _, it := range tx.Items {
			if r, ok := slices.BinarySearch(v.rows.items, it); ok {
				want = append(want, itemset.Item(r))
			}
		}
		if got := v.rows.row(tx.TID); !slices.Equal(got, want) {
			t.Fatalf("TID %d: row %v, want the ranks %v", tx.TID, got, want)
		}
	}

	memo := &paircount.Memo{}
	if build(VerticalInput{NumTransactions: d.Len(), Items: in.Items, Pairs: memo}).rows == nil {
		t.Fatal("a memo miss counted L2 but kept no rows")
	}
	if build(VerticalInput{NumTransactions: d.Len(), Items: in.Items, Pairs: memo}).rows != nil {
		t.Fatal("a memo hit kept rows it never built")
	}
	if build(VerticalInput{NumTransactions: d.Len(), Items: in.Items, Residency: keepAllResidency{}}).rows != nil {
		t.Fatal("a budgeted mine kept a heap copy of the data")
	}
	sparse := offsetTIDs(d, 0, 1000)
	if build(VerticalInput{NumTransactions: d.Len(), Items: verticalSets(sparse, tidlist.ReprSparse)}).rows != nil {
		t.Fatal("scattered TIDs kept rows")
	}
	var st Stats
	if buildVertical(ctx, d, minsup, &st, Options{}).rows != nil {
		t.Fatal("horizontal input has rows")
	}
}

// keepAllResidency is a residency budget that evicts nothing: it puts a
// mine on the budgeted path, which drops the rows, and is safe for
// concurrent use.
type keepAllResidency struct{}

func (keepAllResidency) ItemSegment(int) int { return -1 }
func (keepAllResidency) Plan([][]int)        {}
func (keepAllResidency) Acquire(int)         {}
func (keepAllResidency) Release(int)         {}
func (keepAllResidency) Done()               {}

// TestRowsFedMineMatchesTransposition is the engine oracle of the
// rows-fed count: on dense vertical data whose classes count at the top
// level and below it, a mine that feeds its counts from the rows
// (unbudgeted) and mines that have none (a residency budget that evicts
// nothing, an L2 memo hit) serialize the same bytes and agree on every
// Stats counter, at 1, 2 and 4 workers.
func TestRowsFedMineMatchesTransposition(t *testing.T) {
	ctx := context.Background()
	cfg := gen.T10I6(2000)
	cfg.AvgTxLen, cfg.NumItems = 20, 200
	d := gen.MustGenerate(cfg)
	minsup := d.MinSupCount(0.75)
	// Each item set in its smallest encoding, as the store serves them,
	// so the prefixes are packed.
	var ks tidlist.KernelStats
	items := verticalSets(d, tidlist.ReprSparse)
	for it, s := range items {
		if l, ok := s.(tidlist.List); ok {
			_, enc := tidlist.EncodedSize(l, tidlist.ReprAuto)
			items[it] = tidlist.Convert(l, enc, &ks)
		}
	}

	var st Stats
	v := buildVerticalFromSets(ctx, VerticalInput{NumTransactions: d.Len(), Items: items}, minsup, &st, Options{})
	top := 0
	for ci := range v.classes {
		sup, _ := v.prefix(ci)
		if planClass(v.sets.classMembers(&v.classes[ci], tidlist.ReprAuto, &st, &arena{}), sup).counted {
			top++
		}
	}

	memo := &paircount.Memo{}
	if _, _, err := MineVerticalLocal(ctx, VerticalInput{NumTransactions: d.Len(), Items: items, Pairs: memo}, minsup, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		name string
		in   VerticalInput
	}{
		{"rows", VerticalInput{NumTransactions: d.Len(), Items: items}},
		{"budgeted", VerticalInput{NumTransactions: d.Len(), Items: items, Residency: keepAllResidency{}}},
		{"memo hit", VerticalInput{NumTransactions: d.Len(), Items: items, Pairs: memo}},
	}
	var want []byte
	var wantSt Stats
	for _, workers := range []int{1, 2, 4} {
		for _, c := range inputs {
			res, st, err := MineVerticalLocal(ctx, c.in, minsup, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			got := resultBytes(t, res)
			if want == nil {
				want, wantSt = got, st
				if top == 0 || st.CountedClasses <= int64(top) {
					t.Fatalf("counted %d classes, %d of them top-level: want counts at two depths", st.CountedClasses, top)
				}
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, workers=%d: output differs from the rows-fed one-worker mine", c.name, workers)
			}
			if schedulingFree(st) != schedulingFree(wantSt) {
				t.Fatalf("%s, workers=%d: %+v, rows-fed one worker: %+v", c.name, workers, st, wantSt)
			}
		}
	}
}

// fuzzRowsInput decodes a tiny vertical database from data: a header of
// item count (3–12), encoding mode and first TID (a multiple of 512 up
// to 130,560, so some databases straddle a 64K-TID chunk), then two
// bytes per transaction — a TID gap of 1–4 and a mask of the items it
// holds.
func fuzzRowsInput(data []byte) (VerticalInput, bool) {
	if len(data) < 5 {
		return VerticalInput{}, false
	}
	nItems, mode := 3+int(data[0])%10, int(data[1])%4
	t := itemset.TID(int(data[2]) << 9)
	lists := make([]tidlist.List, nItems)
	n := 0
	for rest := data[3:]; len(rest) >= 2; rest = rest[2:] {
		t += 1 + itemset.TID(rest[0]&3)
		mask := int(rest[0])>>2 | int(rest[1])<<6
		for it := range lists {
			if mask>>it&1 == 1 {
				lists[it] = append(lists[it], t)
			}
		}
		n++
	}
	var ks tidlist.KernelStats
	sets := make([]tidlist.Set, nItems)
	for it, l := range lists {
		if len(l) > 0 {
			r := []tidlist.Repr{tidlist.ReprSparse, tidlist.ReprBitset, tidlist.ReprRoaring}[(mode+it*(mode/3))%3]
			sets[it] = tidlist.Convert(l, r, &ks)
		}
	}
	return VerticalInput{NumTransactions: n, Items: sets}, true
}

// FuzzCountRows: on byte-derived vertical databases — gaps, a chunk
// boundary, every encoding and a mix, minsup 1 to 4 — the count fed by
// the rows over each class's prefix fills the triangle the members'
// transposition fills, at the top level and in every sub-class below it,
// and the counted expansion emits the same (itemset, support) multiset
// and performs the same increments fed either way, as figure 3's joins
// emit.
func FuzzCountRows(f *testing.F) {
	f.Add([]byte{9, 0, 0, 0xff, 0x3f, 0xf3, 0x2a, 0x5d, 0x11, 0xfe, 0x0f, 0xa7, 0x33, 0xdb, 0x3c}, byte(0))
	f.Add([]byte{5, 1, 127, 0xfc, 0x07, 0xf0, 0x03, 0x3c, 0x05, 0xcc, 0x06, 0xfc, 0x07, 0x30, 0x01}, byte(1))
	f.Add([]byte{2, 3, 255, 0xfd, 0x3f, 0x7d, 0x1d, 0xbd, 0x2e, 0xfd, 0x3f, 0x5d, 0x37}, byte(2))
	f.Fuzz(func(t *testing.T, data []byte, thr byte) {
		in, ok := fuzzRowsInput(data)
		if !ok {
			return
		}
		minsup := 1 + int(thr)%4
		var st Stats
		v := buildVerticalFromSets(context.Background(), in, minsup, &st, Options{})
		if v.rows == nil {
			return
		}
		cs := &countScratch{}
		classes := make([]expandClass, len(v.classes))
		for ci := range v.classes {
			sup, prefix := v.prefix(ci)
			classes[ci] = expandClass{members: v.sets.classMembers(&v.classes[ci], tidlist.ReprAuto, &st, &arena{}), prefixSup: sup, prefix: prefix}
			checkRowsCount(t, cs, v.rows, classes[ci].members, prefix, minsup, 4)
		}

		var joined, counted, fed []string
		collect := func(out *[]string) Emitter {
			return func(set itemset.Itemset, sup int) { *out = append(*out, fmt.Sprintf("%s:%d", set.Key(), sup)) }
		}
		expandRun(t, classes, nil, minsup, false, collect(&joined))
		cst := expandRun(t, classes, nil, minsup, true, collect(&counted))
		fst := expandRun(t, classes, v.rows, minsup, true, collect(&fed))
		if cst != fst {
			t.Fatalf("rows-fed counters %+v, transposed %+v", fst, cst)
		}
		eq := slices.Equal(counted, fed)
		slices.Sort(joined)
		slices.Sort(fed)
		if !eq || !slices.Equal(joined, fed) {
			t.Fatalf("minsup %d: rows-fed emissions %v, transposed %v, joined %v", minsup, fed, counted, joined)
		}
	})
}
