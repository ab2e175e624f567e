package eclat

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/store"
	"repro/internal/tidlist"
)

// expandClass is one class as the engine hands it to computeFrequent:
// sorted members in their resolved encoding, the prefix support and the
// prefix's tid-set (nil when unknown).
type expandClass struct {
	members   []member
	prefixSup int
	prefix    tidlist.Set
}

// expandRun mines classes at minsup on a fresh worker, emitting into
// emit, and returns the run's counters. counted forces the counted
// expansion at each class's top level (below it the price decides),
// fed by rows over each class's prefix when rows is non-nil and by the
// members' transposition otherwise; without counted the worker has no
// counting scratch and joins at every level, as figure 3 does. Every
// counted class must pop its triangle.
func expandRun(tb testing.TB, classes []expandClass, rows *txRows, minsup int, counted bool, emit Emitter) Stats {
	var st Stats
	w := &worker{st: &st, th: fixedThreshold(minsup), ar: &arena{}, rows: rows}
	if counted {
		w.cs = &countScratch{}
	}
	for _, c := range classes {
		if counted {
			w.countExpand(context.Background(), c.members, c.prefix, planClass(c.members, c.prefixSup), emit)
			if n := len(w.cs.cells); n != 0 {
				tb.Fatalf("a counted class left %d triangle cells on the scratch stack", n)
			}
		} else {
			w.computeFrequent(context.Background(), c.members, c.prefixSup, c.prefix, emit)
		}
	}
	return st
}

// fuzzClass decodes a class of 2–40 members under prefix item 0 from
// data. Each member takes a length byte (0 gives an empty member) and
// that many gap bytes: the low nibble advances the TID (a zero gap
// repeats it and is skipped) and a high nibble of 0xf adds a 70,000-TID
// jump across 64K-TID chunks while the TID is below 200,000, which keeps
// bitset members small. The encoding byte selects sparse, bitset,
// roaring, or a per-member mix.
func fuzzClass(data []byte) []member {
	if len(data) < 2 {
		return nil
	}
	s := 2 + int(data[0])%39
	mode := data[1] % 4
	data = data[2:]
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var ks tidlist.KernelStats
	members := make([]member, s)
	for i := range members {
		var l tidlist.List
		t := itemset.TID(next() % 8)
		for n := int(next() % 24); n > 0; n-- {
			b := next()
			if b>>4 == 0xf && t < 200_000 {
				t += 70_000
			}
			if gap := itemset.TID(b & 0x0f); gap > 0 || len(l) == 0 {
				t += gap
				l = append(l, t)
			}
		}
		repr := []tidlist.Repr{tidlist.ReprSparse, tidlist.ReprBitset, tidlist.ReprRoaring}[(int(mode)+i*int(mode/3))%3]
		members[i] = member{set: itemset.Itemset{0, itemset.Item(i + 1)}, tids: tidlist.Convert(l, repr, &ks)}
	}
	return members
}

// FuzzClassExpand: on byte-derived classes — TID gaps and chunk jumps,
// empty members, every encoding and a mix, thresholds from 1 to above
// every support — the counted expansion emits the same (itemset,
// support) multiset as figure 3's joins, every cell of its triangle is
// the IntersectSets support of its pair, and its pair increments are the
// triangle's total.
func FuzzClassExpand(f *testing.F) {
	f.Add([]byte{3, 0, 0, 4, 1, 1, 1, 1, 0, 3, 2, 2, 2, 1, 5, 1, 1, 1, 1, 1}, byte(2))
	f.Add([]byte{10, 1, 0, 8, 1, 2, 3, 1, 2, 3, 1, 2, 1, 6, 2, 2, 2, 2, 2, 2}, byte(1))
	f.Add([]byte{38, 2, 0, 20, 0xf1, 1, 1, 0xf2, 1, 1, 1, 0, 0, 7, 1, 1, 1, 1, 1, 1, 1}, byte(0))
	f.Add([]byte{7, 3, 5, 0, 1, 9, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 12, 1, 1}, byte(200))
	f.Fuzz(func(t *testing.T, data []byte, thr byte) {
		members := fuzzClass(data)
		if members == nil {
			return
		}
		s := len(members)
		maxSup := 0
		var ks tidlist.KernelStats
		rowLen := map[itemset.TID]int{}
		for _, m := range members {
			maxSup = max(maxSup, m.tids.Support())
			for _, t := range tidlist.TIDsOf(m.tids) {
				rowLen[t]++
			}
		}
		// A TID held by k members makes its 2^k member subsets frequent at
		// minsup 1; skip classes whose search could not finish quickly.
		bound := 0
		for _, k := range rowLen {
			bound += 1 << min(k, 20)
		}
		if bound > 1<<16 {
			return
		}
		minsup := 1 + int(thr)%(maxSup+2)

		p := planClass(members, 0)
		cs := &countScratch{}
		base, incs := cs.count(members, p.lo, p.span)
		var total int64
		for i := 0; i < s-1; i++ {
			for j := i + 1; j < s; j++ {
				want, _ := tidlist.IntersectSets(nil, members[i].tids, members[j].tids, &ks)
				got := cs.cells[base+cellBase(i, s)+j]
				if int(got) != want.Support() {
					t.Fatalf("cell (%d,%d) = %d, IntersectSets support %d", i, j, got, want.Support())
				}
				total += int64(got)
			}
		}
		if incs != total {
			t.Fatalf("count reported %d increments, triangle holds %d", incs, total)
		}

		classes := []expandClass{{members: members}}
		var joined, counted []string
		collect := func(out *[]string) Emitter {
			return func(set itemset.Itemset, sup int) { *out = append(*out, fmt.Sprintf("%s:%d", set.Key(), sup)) }
		}
		expandRun(t, classes, nil, minsup, false, collect(&joined))
		st := expandRun(t, classes, nil, minsup, true, collect(&counted))
		if st.CountedClasses == 0 {
			t.Fatal("the forced counted expansion counted no class")
		}
		slices.Sort(joined)
		slices.Sort(counted)
		if !slices.Equal(joined, counted) {
			t.Fatalf("minsup %d: counted emissions %v, joined %v", minsup, counted, joined)
		}
	})
}

// classExpandData is one BenchmarkClassExpand dataset: mine_dense's
// family (|T|=20, N=200) and the paper's T10.I6, at their supports.
var classExpandData = []struct {
	name string
	cfg  func() gen.Config
	pct  float64
}{
	{"dense.D5K/pct=1.25", func() gen.Config {
		c := gen.T10I6(5000)
		c.AvgTxLen, c.NumItems = 20, 200
		return c
	}, 1.25},
	{"T10.I6.D20K/pct=0.25", func() gen.Config { return gen.T10I6(20000) }, 0.25},
	{"T10.I6.D20K/pct=0.75", func() gen.Config { return gen.T10I6(20000) }, 0.75},
}

// expandClasses returns d's top-level classes at minsup as the
// store-backed path mines them — item sets each in its smallest
// encoding, pair sets derived per class, and auto resolving each class's
// encoding — with the rows the run's L2 count kept for them.
func expandClasses(d *db.Database, minsup int) ([]expandClass, *txRows) {
	var ks tidlist.KernelStats
	items := verticalSets(d, tidlist.ReprSparse)
	for it, s := range items {
		if l, ok := s.(tidlist.List); ok {
			_, enc := tidlist.EncodedSize(l, tidlist.ReprAuto)
			items[it] = tidlist.Convert(l, enc, &ks)
		}
	}
	var st Stats
	v := buildVerticalFromSets(context.Background(), VerticalInput{NumTransactions: d.Len(), Items: items}, minsup, &st, Options{})
	out := make([]expandClass, len(v.classes))
	for ci := range v.classes {
		sup, prefix := v.prefix(ci)
		out[ci] = expandClass{members: v.sets.classMembers(&v.classes[ci], tidlist.ReprAuto, &st, &arena{}), prefixSup: sup, prefix: prefix}
	}
	return out, v.rows
}

// BenchmarkClassExpand times the expansions of the same top-level
// classes, sub-classes included: expand=joined is figure 3 (C(s,2)
// short-circuited joins at every level), expand=counted counts each
// class's member pairs in its triangle from the members' transposition
// and lets the price decide below, and expand=rows does the same with
// every count fed by the run's rows, as the engine's vertical mines do.
// Each row reports the classes and the joins run; a counted row also
// reports the classes counted and their pair increments.
// scripts/bench_kernels.go writes the rows into BENCH_kernels.json.
func BenchmarkClassExpand(b *testing.B) {
	noop := func(itemset.Itemset, int) {}
	for _, c := range classExpandData {
		d := gen.MustGenerate(c.cfg())
		minsup := d.MinSupCount(c.pct)
		classes, rows := expandClasses(d, minsup)
		for _, expand := range []string{"joined", "counted", "rows"} {
			b.Run(fmt.Sprintf("data=%s/expand=%s", c.name, expand), func(b *testing.B) {
				b.ReportAllocs()
				feed := rows
				if expand != "rows" {
					feed = nil
				}
				var st Stats
				for i := 0; i < b.N; i++ {
					st = expandRun(b, classes, feed, minsup, expand != "joined", noop)
				}
				b.ReportMetric(float64(len(classes)), "classes")
				b.ReportMetric(float64(st.Intersections), "joins/op")
				if expand != "joined" {
					b.ReportMetric(float64(st.CountedClasses), "counted/op")
					b.ReportMetric(float64(st.CountOps), "incs/op")
				}
			})
		}
	}
}

// countShape is the class of one BenchmarkClassCount unit row: its
// members' TID lists, built so that one of the units the count's price
// weighs dominates the count's work, and the encoding they are counted
// in.
type countShape struct {
	name  string
	enc   tidlist.Repr
	lists []tidlist.List
}

// countShapes are BenchmarkClassCount's classes, one per priced unit,
// with members drawn at random like the TIDs of real classes:
//   - span: two members sharing the two ends of a one-chunk span;
//   - tids: 64 sparse members over 8,192 TIDs, each holding a TID with
//     probability 1/64, so few pairs share one;
//   - words: the tids class in bitsets, about one member TID per word;
//   - cells: 512 members of one distinct TID each;
//   - incs: 256 members over 1,024 TIDs, each holding a TID with
//     probability 1/8.
func countShapes() []countShape {
	rng := rand.New(rand.NewSource(73))
	random := func(members, tids, oneIn int) []tidlist.List {
		lists := make([]tidlist.List, members)
		for t := range tids {
			for i := range lists {
				if rng.Intn(oneIn) == 0 {
					lists[i] = append(lists[i], itemset.TID(t))
				}
			}
		}
		return lists
	}
	sparse := random(64, 8192, 64)
	singles := make([]tidlist.List, 512)
	for i := range singles {
		singles[i] = tidlist.List{itemset.TID(i)}
	}
	const span = 1 << tidlist.ChunkBits
	return []countShape{
		{"span", tidlist.ReprSparse, []tidlist.List{{0, span - 1}, {0, span - 1}}},
		{"tids", tidlist.ReprSparse, sparse},
		{"words", tidlist.ReprBitset, sparse},
		{"cells", tidlist.ReprSparse, singles},
		{"incs", tidlist.ReprSparse, random(256, 1024, 8)},
	}
}

// countClasses returns a sample of at most about 500 of the classes a
// counted expansion meets in d at minsup, each with its prefix support
// and tid-set — expandClasses' top-level classes followed by the
// first-level sub-classes their joins open (two or more frequent
// members), every k-th one kept — and the rows that feed their counts.
func countClasses(d *db.Database, minsup int) ([]expandClass, *txRows) {
	var ks tidlist.KernelStats
	all, rows := expandClasses(d, minsup)
	for _, c := range all[:len(all):len(all)] {
		m := c.members
		for i := 0; i < len(m)-1; i++ {
			var next []member
			for j := i + 1; j < len(m); j++ {
				if tids, _ := tidlist.IntersectSets(nil, m[i].tids, m[j].tids, &ks); tids.Support() >= minsup {
					next = append(next, member{set: m[i].set.Join(m[j].set), tids: tids})
				}
			}
			if len(next) > 1 {
				all = append(all, expandClass{members: next, prefixSup: m[i].tids.Support(), prefix: m[i].tids})
			}
		}
	}
	stride := (len(all) + 499) / 500
	var out []expandClass
	for k := 0; k < len(all); k += stride {
		out = append(out, all[k])
	}
	return out, rows
}

// countBins are BenchmarkClassCount's class-size bins, in members.
var countBins = [][2]int{{2, 3}, {4, 7}, {8, 15}, {16, 31}, {32, 63}, {64, 1023}}

// BenchmarkClassCount times the counted expansion's own work, the rows
// that re-check the count's per-unit costs (costTransposeNS …
// costIncNS). Per op it counts each class of a row and scans its
// triangle for the pairs reaching the threshold, as countExpand does.
// Three kinds of rows:
//   - unit=…: one countShapes class, built so one priced unit dominates
//     its work, which makes every cost identifiable;
//   - data=…/enc=…/members=…: the countClasses sample of a
//     BenchmarkClassExpand dataset in one size bin, with the members
//     sparse or packed (bitset), the classes the price is applied to;
//   - data=…/enc=…/members=…/feed=rows: the same classes counted from
//     the dataset's rows over their prefixes (countRows), each prefix in
//     the members' encoding, as the engine's vertical mines count them.
//
// Each row reports the units planClass reads off its classes — tids/op,
// words/op, span/op, cells/op — and the increments the counts performed
// (incs/op); a feed=rows row also reports the prefix TIDs it walked
// (ptids/op) and the row entries it filtered (ranks/op).
// scripts/bench_kernels.go writes the rows into BENCH_kernels.json and
// fits the costs to the rows without feed=rows by least squares: the
// price weighs the members' transposition.
func BenchmarkClassCount(b *testing.B) {
	var ks tidlist.KernelStats
	row := func(name string, classes []expandClass, rows *txRows, minsup int) {
		var units countUnits
		var ptids, ranks float64
		plans := make([]classPlan, len(classes))
		for k, c := range classes {
			p := planClass(c.members, c.prefixSup)
			plans[k] = p
			units.tids += p.units.tids
			units.words += p.units.words
			units.span += p.units.span
			units.cells += p.units.cells
			if rows != nil {
				for _, t := range tidlist.TIDsOf(c.prefix) {
					ptids++
					ranks += float64(len(rows.row(t)))
				}
			}
		}
		b.Run(name, func(b *testing.B) {
			cs := &countScratch{}
			var incs int64
			survivors := 0
			for i := 0; i < b.N; i++ {
				incs = 0
				for k, c := range classes {
					var base int
					var n int64
					if rows != nil {
						base, n = cs.countRows(c.members, rows, c.prefix)
					} else {
						base, n = cs.count(c.members, plans[k].lo, plans[k].span)
					}
					for _, c := range cs.cells[base:] {
						if int(c) >= minsup {
							survivors++
						}
					}
					cs.cells = cs.cells[:base]
					incs += n
				}
			}
			if survivors < 0 {
				b.Fatal("unreachable: keeps the triangle scan")
			}
			b.ReportMetric(units.tids, "tids/op")
			b.ReportMetric(units.words, "words/op")
			b.ReportMetric(units.span, "span/op")
			b.ReportMetric(units.cells, "cells/op")
			b.ReportMetric(float64(incs), "incs/op")
			if rows != nil {
				b.ReportMetric(ptids, "ptids/op")
				b.ReportMetric(ranks, "ranks/op")
			}
		})
	}
	encode := func(c expandClass, enc tidlist.Repr) expandClass {
		out := expandClass{members: make([]member, len(c.members)), prefixSup: c.prefixSup}
		for i, m := range c.members {
			out.members[i] = member{set: m.set, tids: tidlist.Convert(m.tids, enc, &ks)}
		}
		if c.prefix != nil {
			out.prefix = tidlist.Convert(c.prefix, enc, &ks)
		}
		return out
	}

	for _, c := range countShapes() {
		members := make([]member, len(c.lists))
		for i, l := range c.lists {
			members[i] = member{set: itemset.Itemset{0, itemset.Item(i + 1)}, tids: l}
		}
		row("unit="+c.name, []expandClass{encode(expandClass{members: members}, c.enc)}, nil, 2)
	}
	for _, c := range classExpandData {
		d := gen.MustGenerate(c.cfg())
		minsup := d.MinSupCount(c.pct)
		classes, rows := countClasses(d, minsup)
		for _, enc := range []tidlist.Repr{tidlist.ReprSparse, tidlist.ReprBitset} {
			for _, bin := range countBins {
				var bc []expandClass
				for _, cl := range classes {
					if s := len(cl.members); s >= bin[0] && s <= bin[1] {
						bc = append(bc, encode(cl, enc))
					}
				}
				if len(bc) > 0 {
					name := fmt.Sprintf("data=%s/enc=%v/members=%d..%d", c.name, enc, bin[0], bin[1])
					row(name, bc, nil, minsup)
					row(name+"/feed=rows", bc, rows, minsup)
				}
			}
		}
	}
}

// schedulingFree is st without the figures that depend on how a run
// scheduled its classes (its worker count and steals): the part two runs
// of the same mine must agree on.
func schedulingFree(st Stats) Stats {
	st.Workers, st.Steals = 0, 0
	return st
}

// TestCountedChoiceIndependentOfScheduling: the counted expansion's
// choice and every work counter come out the same at every worker count,
// and under a residency budget as in-core, on dense data where classes
// are counted.
func TestCountedChoiceIndependentOfScheduling(t *testing.T) {
	cfg := gen.T10I6(1000)
	cfg.AvgTxLen, cfg.NumItems = 20, 200
	d := gen.MustGenerate(cfg)
	minsup := d.MinSupCount(1.25)
	ctx := context.Background()

	_, want, err := MineParallelLocal(ctx, d, minsup, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want.CountedClasses == 0 {
		t.Fatal("no class counted on dense data")
	}
	for _, workers := range []int{2, 4} {
		_, st, err := MineParallelLocal(ctx, d, minsup, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if schedulingFree(st) != schedulingFree(want) {
			t.Fatalf("workers=%d: %+v, one worker: %+v", workers, st, want)
		}
	}

	path := filepath.Join(t.TempDir(), "dense.ds")
	if err := store.CreateDatasetSeg(path, store.DatasetMeta("dense", "test", d), d, store.VerticalLists(d), 512); err != nil {
		t.Fatal(err)
	}
	ds, err := store.OpenDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	in := VerticalInput{NumTransactions: d.Len(), Items: ds.Sets(tidlist.ReprAuto)}
	_, inCore, err := MineVerticalLocal(ctx, in, minsup, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if inCore.CountedClasses == 0 {
		t.Fatal("no class counted on the dense store mapping")
	}
	for _, workers := range []int{1, 2} {
		bin := in
		if bin.Residency = ds.NewResidency(ds.BytesMapped() / 4); bin.Residency == nil {
			t.Fatal("NewResidency = nil")
		}
		_, st, err := MineVerticalLocal(ctx, bin, minsup, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if schedulingFree(st) != schedulingFree(inCore) {
			t.Fatalf("budgeted, workers=%d: %+v, in-core: %+v", workers, st, inCore)
		}
	}
}

// TestCountLargeSpan: a class spread over 5M TIDs (77 chunks) is counted
// one 64K-TID chunk at a time. Under every encoding each cell of its
// triangle is the IntersectSets support of its pair, the counted
// expansion emits what figure 3's joins do, and the row index and the
// transposed TIDs never outgrow one chunk.
func TestCountLargeSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const span, s, minsup = 5_000_000, 16, 100
	pool := make([]itemset.TID, 2000)
	for i := range pool {
		pool[i] = itemset.TID(i * (span / len(pool)))
	}
	lists := make([]tidlist.List, s)
	perChunk := map[int]int{}
	for i := range lists {
		for _, tid := range pool {
			if rng.Intn(10) < 3 {
				lists[i] = append(lists[i], tid)
				perChunk[int(tid)>>tidlist.ChunkBits]++
			}
		}
	}
	maxChunk := 0
	for _, n := range perChunk {
		maxChunk = max(maxChunk, n)
	}
	for _, r := range []tidlist.Repr{tidlist.ReprSparse, tidlist.ReprBitset, tidlist.ReprRoaring} {
		var ks tidlist.KernelStats
		members := make([]member, s)
		for i, l := range lists {
			members[i] = member{set: itemset.Itemset{0, itemset.Item(i + 1)}, tids: tidlist.Convert(l, r, &ks)}
		}
		p := planClass(members, 0)
		if p.span < span-span/len(pool) {
			t.Fatalf("%v: class span %d, want about %d", r, p.span, span)
		}
		cs := &countScratch{}
		base, _ := cs.count(members, p.lo, p.span)
		for i := 0; i < s-1; i++ {
			for j := i + 1; j < s; j++ {
				want, _ := tidlist.IntersectSets(nil, members[i].tids, members[j].tids, &ks)
				if got := cs.cells[base+cellBase(i, s)+j]; int(got) != want.Support() {
					t.Fatalf("%v: cell (%d,%d) = %d, IntersectSets support %d", r, i, j, got, want.Support())
				}
			}
		}
		if n := cap(cs.index); n > 1<<tidlist.ChunkBits {
			t.Fatalf("%v: row index holds %d cells, more than one chunk", r, n)
		}
		if n := cap(cs.tids); n > 2*maxChunk {
			t.Fatalf("%v: transposition holds %d TIDs, the fullest chunk %d", r, n, maxChunk)
		}

		classes := []expandClass{{members: members}}
		var joined, counted []string
		collect := func(out *[]string) Emitter {
			return func(set itemset.Itemset, sup int) { *out = append(*out, fmt.Sprintf("%s:%d", set.Key(), sup)) }
		}
		expandRun(t, classes, nil, minsup, false, collect(&joined))
		expandRun(t, classes, nil, minsup, true, collect(&counted))
		slices.Sort(joined)
		slices.Sort(counted)
		if len(joined) == 0 || !slices.Equal(joined, counted) {
			t.Fatalf("%v: counted emissions %v, joined %v", r, counted, joined)
		}
	}
}

// TestT10ClassesStayJoined: on the repository benchmark's T10 data —
// mine_t10's D20K at 0.75 % and serve_cold's D10K at its lowest
// supportCount, 80 — every class prices its joins below its count,
// under every encoding and on both layouts, so those workloads still run
// figure 3's joins throughout.
func TestT10ClassesStayJoined(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		n, minsup int
		pct       float64
	}{{20000, 0, 0.75}, {10000, 80, 0}} {
		for seed := int64(1); seed <= 2; seed++ {
			cfg := gen.T10I6(c.n)
			cfg.Seed = seed * 1000
			d := gen.MustGenerate(cfg)
			minsup := c.minsup
			if minsup == 0 {
				minsup = d.MinSupCount(c.pct)
			}
			for _, r := range allReprs {
				_, hst, err := MineParallelLocal(ctx, d, minsup, Options{Workers: 1, Representation: r})
				if err != nil {
					t.Fatal(err)
				}
				_, vst, err := MineVerticalLocal(ctx, VerticalInput{NumTransactions: d.Len(), Items: verticalSets(d, r)}, minsup,
					Options{Workers: 1, Representation: r})
				if err != nil {
					t.Fatal(err)
				}
				if hst.CountedClasses != 0 || vst.CountedClasses != 0 {
					t.Errorf("D%d seed %d minsup %d repr %v: counted %d horizontal and %d vertical classes, want 0",
						c.n, cfg.Seed, minsup, r, hst.CountedClasses, vst.CountedClasses)
				}
			}
		}
	}
}
