package tidlist

import (
	"encoding/binary"
	"slices"
	"sort"
	"testing"

	"repro/internal/db"
	"repro/internal/itemset"
)

// fuzzList decodes raw fuzz bytes into a sorted duplicate-free tid-list.
// Every pair of bytes becomes one candidate tid, reduced modulo a
// universe derived from the same input so the fuzzer explores both dense
// (small universe) and sparse (large universe) regimes — the two sides
// of the adaptive policy. Universes above 64K spread the tids across
// multiple roaring chunks (stretched so candidates land near chunk
// boundaries), exercising the key-merge and container-boundary paths.
func fuzzList(raw []byte, universe uint32) List {
	if universe == 0 {
		universe = 1
	}
	seen := map[itemset.TID]bool{}
	for i := 0; i+1 < len(raw); i += 2 {
		v := uint32(binary.LittleEndian.Uint16(raw[i:]))
		if universe > 1<<16 {
			// Scale 16-bit candidates up so they cover the wider universe;
			// keep the low bits so values straddle chunk boundaries.
			v = (v * (universe >> 16)) % universe
		} else {
			v %= universe
		}
		seen[itemset.TID(v)] = true
	}
	out := make(List, 0, len(seen))
	for tid := range seen {
		out = append(out, tid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// fuzzUniverse maps the selector byte onto 64..2^23 tids, covering
// densities from well above the 1/32 byte break-even to well below it and
// tid spans from a fraction of one roaring chunk up to 128 chunks.
func fuzzUniverse(sel uint8) uint32 { return 64 << (sel % 18) }

func fuzzSeed(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 3, 0}, []byte{2, 0, 3, 0, 4, 0}, uint8(0), uint8(2))
	f.Add([]byte{}, []byte{10, 0}, uint8(3), uint8(0))
	f.Add([]byte{255, 255, 0, 0}, []byte{255, 255}, uint8(10), uint8(1))
	f.Add([]byte{7, 1, 9, 1, 11, 1, 13, 1}, []byte{7, 1, 13, 1}, uint8(5), uint8(30))
}

// FuzzIntersectKernels proves the three dispatch targets (sparse merge,
// dense AND+popcount, mixed probe) agree with the reference sparse
// intersection for every operand pairing.
func FuzzIntersectKernels(f *testing.F) {
	fuzzSeed(f)
	f.Fuzz(func(t *testing.T, ra, rb []byte, sel, _ uint8) {
		u := fuzzUniverse(sel)
		a, b := fuzzList(ra, u), fuzzList(rb, u)
		want := Intersect(a, b)
		for _, combo := range reprCombos {
			var ks KernelStats
			got, ops := IntersectSets(nil, asRepr(a, combo[0]), asRepr(b, combo[1]), &ks)
			if !equalTIDs(TIDsOf(got), want) {
				t.Fatalf("combo %v/%v: got %v, want %v (a=%v b=%v)", combo[0], combo[1], TIDsOf(got), want, a, b)
			}
			if got.Support() != len(want) || ops < 0 {
				t.Fatalf("combo %v/%v: support %d ops %d, want support %d", combo[0], combo[1], got.Support(), ops, len(want))
			}
		}
	})
}

// FuzzDiffKernels proves the difference kernels (merge, AND NOT, probe)
// agree with the reference sparse difference for every operand pairing.
func FuzzDiffKernels(f *testing.F) {
	fuzzSeed(f)
	f.Fuzz(func(t *testing.T, ra, rb []byte, sel, _ uint8) {
		u := fuzzUniverse(sel)
		a, b := fuzzList(ra, u), fuzzList(rb, u)
		want := Diff(a, b)
		for _, combo := range reprCombos {
			var ks KernelStats
			got, ops := DiffSets(nil, asRepr(a, combo[0]), asRepr(b, combo[1]), &ks)
			if !equalTIDs(TIDsOf(got), want) {
				t.Fatalf("combo %v/%v: got %v, want %v (a=%v b=%v)", combo[0], combo[1], TIDsOf(got), want, a, b)
			}
			if got.Support() != len(want) || ops < 0 {
				t.Fatalf("combo %v/%v: support %d ops %d", combo[0], combo[1], got.Support(), ops)
			}
		}
	})
}

// FuzzShortCircuitKernels proves the short-circuit contract holds for
// every kernel: ok is exactly |a∩b| >= minsup, the content is the full
// intersection when ok, and an aborted result is still safe to reuse as
// scratch (the partial-prefix contract).
func FuzzShortCircuitKernels(f *testing.F) {
	fuzzSeed(f)
	f.Fuzz(func(t *testing.T, ra, rb []byte, sel, ms uint8) {
		u := fuzzUniverse(sel)
		a, b := fuzzList(ra, u), fuzzList(rb, u)
		minsup := int(ms)
		full := Intersect(a, b)
		for _, combo := range reprCombos {
			var ks KernelStats
			got, ops, ok := IntersectSetsSC(nil, asRepr(a, combo[0]), asRepr(b, combo[1]), minsup, &ks)
			if ok != (len(full) >= minsup) {
				t.Fatalf("combo %v/%v minsup %d: ok=%v but |∩|=%d", combo[0], combo[1], minsup, ok, len(full))
			}
			if ok && !equalTIDs(TIDsOf(got), full) {
				t.Fatalf("combo %v/%v minsup %d: content mismatch", combo[0], combo[1], minsup)
			}
			if ops < 0 {
				t.Fatalf("combo %v/%v: negative ops", combo[0], combo[1])
			}
			// The only valid use of an aborted result: scratch storage.
			again, _ := IntersectSets(got, asRepr(a, combo[0]), asRepr(b, combo[1]), &ks)
			if !equalTIDs(TIDsOf(again), full) {
				t.Fatalf("combo %v/%v: result unusable as scratch after SC", combo[0], combo[1])
			}
		}
	})
}

// FuzzRoundTrip proves sparse -> packed -> sparse conversion is lossless
// for both packed encodings and that all representations agree on
// Support, Bounds, HashTIDs, Contains, and the stable serialization.
func FuzzRoundTrip(f *testing.F) {
	fuzzSeed(f)
	f.Fuzz(func(t *testing.T, ra, _ []byte, sel, _ uint8) {
		l := fuzzList(ra, fuzzUniverse(sel))
		slo, shi, sok := Bounds(l)
		var ks KernelStats
		for _, r := range []Repr{ReprBitset, ReprRoaring} {
			packed := Convert(l, r, &ks)
			back := TIDsOf(Convert(packed, ReprSparse, &ks))
			if !equalTIDs(back, l) {
				t.Fatalf("%v round trip: %v -> %v", r, l, back)
			}
			if packed.Support() != len(l) {
				t.Fatalf("%v Support %d, want %d", r, packed.Support(), len(l))
			}
			if HashTIDs(packed) != HashTIDs(l) {
				t.Fatalf("%v HashTIDs disagrees with sparse", r)
			}
			plo, phi, pok := Bounds(packed)
			if sok != pok || slo != plo || shi != phi {
				t.Fatalf("Bounds disagree: sparse %d..%d/%v %v %d..%d/%v", slo, shi, sok, r, plo, phi, pok)
			}
			if n, _ := EncodedSize(l, r); len(l) > 0 && n != packed.SizeBytes() {
				t.Fatalf("%v EncodedSize %d != SizeBytes %d", r, n, packed.SizeBytes())
			}
		}
		// Roaring-specific: the stable serialization round trips and
		// Contains answers agree with membership near chunk boundaries.
		roaring := NewRoaring(l)
		dec, err := RoaringFromBytes(AppendRoaringBytes(nil, roaring))
		if err != nil {
			t.Fatalf("RoaringFromBytes: %v", err)
		}
		if !equalTIDs(dec.TIDs(), l) {
			t.Fatalf("roaring serialization round trip: %v -> %v", l, dec.TIDs())
		}
		member := map[itemset.TID]bool{}
		for _, tid := range l {
			member[tid] = true
		}
		for _, tid := range l {
			for _, probe := range []itemset.TID{tid, tid + 1, tid - 1} {
				if probe >= 0 && roaring.Contains(probe) != member[probe] {
					t.Fatalf("roaring Contains(%d) = %v, want %v", probe, roaring.Contains(probe), member[probe])
				}
			}
		}
	})
}

// buildPairsOracle is the map-probe transformation BuildPairs replaced:
// every pair of every transaction is looked up in want.
func buildPairsOracle(part *db.Database, want map[Pair]bool) map[Pair]List {
	out := make(map[Pair]List, len(want))
	for _, tx := range part.Transactions {
		items := tx.Items
		for i := 0; i < len(items); i++ {
			for j := i + 1; j < len(items); j++ {
				p := Pair{items[i], items[j]}
				if !want[p] {
					continue
				}
				out[p] = append(out[p], tx.TID)
			}
		}
	}
	return out
}

// fuzzPairsInput decodes a small database over an m-item universe (m from
// sel) and a want set from raw fuzz bytes. A data byte >= 0xF0 ends a
// transaction and advances the next TID by 1 + (b - 0xF0), so TIDs are
// ascending with gaps; any other byte is an item modulo m. Each want
// triple (a, b, v) names the pair {int8(a) mod (m+4), b mod (m+4)} with
// value v&3 != 0: the set holds false values, A >= B pairs, and pairs over
// negative items, items past the universe and items absent from the data.
func fuzzPairsInput(data, wantRaw []byte, sel uint8) (*db.Database, map[Pair]bool) {
	m := 1 + int(sel)%48
	d := &db.Database{NumItems: m}
	var items []itemset.Item
	tid := itemset.TID(0)
	for i, b := range data {
		if b < 0xF0 {
			items = append(items, itemset.Item(int(b)%m))
		}
		if b >= 0xF0 || i == len(data)-1 {
			d.Transactions = append(d.Transactions, db.Transaction{TID: tid, Items: itemset.New(items...)})
			items = items[:0]
			tid += 1 + itemset.TID(max(int(b)-0xF0, 0))
		}
	}
	want := map[Pair]bool{}
	for i := 0; i+2 < len(wantRaw); i += 3 {
		p := Pair{itemset.Item(int(int8(wantRaw[i])) % (m + 4)), itemset.Item(int(wantRaw[i+1]) % (m + 4))}
		want[p] = wantRaw[i+2]&3 != 0
	}
	return d, want
}

// FuzzBuildPairs proves the partner-run transformation builds exactly the
// oracle's lists, that every list is strictly increasing, and that
// block-partition builds concatenate to the whole-database build (the
// transformation-phase invariant of TestConcatEqualsGlobalBuild).
func FuzzBuildPairs(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0xF0, 1, 3, 0xF2, 2, 3, 0xF0, 1, 2, 3}, []byte{1, 2, 1, 1, 3, 1, 4, 5, 1, 2, 3, 0}, uint8(5), uint8(2))
	f.Add([]byte{0, 9, 0xF0, 9, 0, 5, 0xFF, 0xF0, 3}, []byte{0, 9, 1, 9, 0, 1, 0xFF, 3, 1, 3, 3, 1, 9, 12, 1}, uint8(9), uint8(4))
	f.Add([]byte{}, []byte{0, 1, 1}, uint8(1), uint8(0))
	f.Add([]byte{7, 1, 9, 11, 13, 0xF1, 7, 13, 0xF0, 1, 9, 13}, []byte{1, 7, 1, 1, 9, 2, 7, 13, 3, 9, 13, 4, 11, 13, 1}, uint8(47), uint8(5))
	f.Fuzz(func(t *testing.T, data, wantRaw []byte, sel, np uint8) {
		d, want := fuzzPairsInput(data, wantRaw, sel)
		got, oracle := BuildPairs(d, want), buildPairsOracle(d, want)
		if len(got) != len(oracle) {
			t.Fatalf("%d lists, oracle %d (got %v, oracle %v)", len(got), len(oracle), got, oracle)
		}
		for p, l := range oracle {
			g, ok := got[p]
			if !ok || !slices.Equal(g, l) {
				t.Fatalf("pair %v: got %v (present %v), oracle %v", p, g, ok, l)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("pair %v: %v", p, err)
			}
		}
		nparts := 1 + int(np)%6
		parts := d.Partition(nparts)
		perPart := make([]map[Pair]List, nparts)
		for i, part := range parts {
			perPart[i] = BuildPairs(part, want)
			for p := range perPart[i] {
				if _, ok := got[p]; !ok {
					t.Fatalf("np=%d part %d built %v, absent from the whole build", nparts, i, p)
				}
			}
		}
		for p, l := range got {
			partials := make([]List, nparts)
			for i := range parts {
				partials[i] = perPart[i][p]
			}
			if cat := ConcatPartitions(partials); !slices.Equal(cat, l) {
				t.Fatalf("np=%d pair %v: concat %v, whole %v", nparts, p, cat, l)
			}
		}
	})
}
