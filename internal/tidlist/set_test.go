package tidlist

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/itemset"
)

// asRepr encodes l under r (ReprAuto is treated as sparse here; the
// adaptive policy is exercised separately through ChooseRepr).
func asRepr(l List, r Repr) Set {
	switch r {
	case ReprBitset:
		return NewBitset(l)
	case ReprRoaring:
		return NewRoaring(l)
	default:
		return l
	}
}

// reprCombos enumerates the nine operand pairings every kernel dispatch
// must handle: each of sparse/bitset/roaring against each other.
var reprCombos = [][2]Repr{
	{ReprSparse, ReprSparse},
	{ReprSparse, ReprBitset},
	{ReprSparse, ReprRoaring},
	{ReprBitset, ReprSparse},
	{ReprBitset, ReprBitset},
	{ReprBitset, ReprRoaring},
	{ReprRoaring, ReprSparse},
	{ReprRoaring, ReprBitset},
	{ReprRoaring, ReprRoaring},
}

func TestParseRepr(t *testing.T) {
	cases := []struct {
		in   string
		want Repr
	}{
		{"", ReprAuto}, {"auto", ReprAuto},
		{"sparse", ReprSparse},
		{"bitset", ReprBitset}, {"dense", ReprBitset},
		{"roaring", ReprRoaring}, {"compressed", ReprRoaring},
	}
	for _, c := range cases {
		got, err := ParseRepr(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseRepr(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseRepr("hashtable"); err == nil {
		t.Fatal("ParseRepr should reject unknown names")
	} else if !errors.Is(err, ErrInvalidRepresentation) {
		t.Fatalf("ParseRepr error %v should wrap ErrInvalidRepresentation", err)
	}
	for _, r := range []Repr{ReprAuto, ReprSparse, ReprBitset, ReprRoaring} {
		back, err := ParseRepr(r.String())
		if err != nil || back != r {
			t.Fatalf("String/Parse round trip broken for %v", r)
		}
	}
}

func TestChooseRepr(t *testing.T) {
	// Explicit requests pass through whatever the class looks like.
	dense := ClassShape{Members: 40, Support: 1 << 14, Span: 1 << 15, Sparse: 40}
	if ChooseRepr(ReprSparse, dense) != ReprSparse {
		t.Fatal("explicit sparse overridden")
	}
	thin := ClassShape{Members: 2, Support: 1, Span: 1 << 20, Sparse: 2}
	if ChooseRepr(ReprBitset, thin) != ReprBitset {
		t.Fatal("explicit bitset overridden")
	}
	if ChooseRepr(ReprRoaring, thin) != ReprRoaring {
		t.Fatal("explicit roaring overridden")
	}
	// One join of two lists at the 1/32 byte break-even does not pay for
	// packing both lists.
	if got := ChooseRepr(ReprAuto, ClassShape{Members: 2, Support: chunkSize / 32, Span: chunkSize, Sparse: 2}); got != ReprSparse {
		t.Fatalf("2-member class of lists at density 1/32 chose %v, want sparse", got)
	}
	// 780 joins at 2.5% density amortize the conversions: within one
	// chunk the flat bitset, past RoaringSpanChunks chunks roaring.
	if got := ChooseRepr(ReprAuto, ClassShape{Members: 40, Support: chunkSize / 40, Span: chunkSize, Sparse: 40}); got != ReprBitset {
		t.Fatalf("40-member class at 2.5%% over one chunk chose %v, want bitset", got)
	}
	wide := (RoaringSpanChunks + 1) * chunkSize
	if got := ChooseRepr(ReprAuto, ClassShape{Members: 40, Support: wide / 40, Span: wide, Sparse: 40}); got != ReprRoaring {
		t.Fatalf("40-member class at 2.5%% over %d chunks chose %v, want roaring", RoaringSpanChunks+1, got)
	}
	// Re-encoding is priced against each member's current encoding: at
	// 1.25% a small class stays in whichever encoding it already has.
	lists := ClassShape{Members: 3, Support: chunkSize / 80, Span: chunkSize, Sparse: 3}
	if got := ChooseRepr(ReprAuto, lists); got != ReprSparse {
		t.Fatalf("3 lists at 1.25%% chose %v, want sparse", got)
	}
	bitsets := lists
	bitsets.Sparse, bitsets.Bitset = 0, 3
	if got := ChooseRepr(ReprAuto, bitsets); got != ReprBitset {
		t.Fatalf("3 bitsets at 1.25%% chose %v, want bitset", got)
	}
	// Degenerate classes stay sparse.
	for _, c := range []ClassShape{
		{},
		{Members: 5, Support: 0, Span: 100, Bitset: 5},
		{Members: 5, Support: 5, Span: 0, Bitset: 5},
	} {
		if got := ChooseRepr(ReprAuto, c); got != ReprSparse {
			t.Fatalf("degenerate class %+v chose %v, want sparse", c, got)
		}
	}
}

// convertSink keeps Convert's result escaping in the allocation test.
var convertSink Set

// TestConvertTowardSparseSkipsCopy pins the sparse conversion of a
// packed set to the list TIDsOf builds: one allocation for the TIDs,
// plus the interface header every List stored in a Set costs.
func TestConvertTowardSparseSkipsCopy(t *testing.T) {
	l := benchTidList(rand.New(rand.NewSource(5)), 100, 5000)
	var ks KernelStats
	for _, s := range []Set{NewBitset(l), NewRoaring(l)} {
		got := Convert(s, ReprSparse, &ks)
		if !equalTIDs(TIDsOf(got), l) || got.Repr() != ReprSparse {
			t.Fatalf("%v -> sparse = %v, want %v", s.Repr(), TIDsOf(got), l)
		}
	}
	if ks.Conversions() != 2 {
		t.Fatalf("conversions = %d, want 2", ks.Conversions())
	}
	bs := NewBitset(l)
	if n := testing.AllocsPerRun(100, func() { convertSink = Convert(bs, ReprSparse, &ks) }); n != 2 {
		t.Fatalf("bitset -> sparse made %v allocations, want the list and its interface header (2)", n)
	}
}

func TestIntersectSetsAllCombos(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		a := randomList(rng, 60, 300)
		b := randomList(rng, 60, 300)
		want := Intersect(a, b)
		for _, combo := range reprCombos {
			var ks KernelStats
			got, ops := IntersectSets(nil, asRepr(a, combo[0]), asRepr(b, combo[1]), &ks)
			if !equalTIDs(TIDsOf(got), want) {
				t.Fatalf("combo %v/%v: IntersectSets = %v, want %v", combo[0], combo[1], TIDsOf(got), want)
			}
			if got.Support() != len(want) {
				t.Fatalf("combo %v/%v: Support = %d, want %d", combo[0], combo[1], got.Support(), len(want))
			}
			if ops < 0 {
				t.Fatalf("combo %v/%v: negative ops %d", combo[0], combo[1], ops)
			}
			assertOpsCounted(t, &ks, combo, int64(ops))
		}
	}
}

// TestIntersectSetsSCContract pins the short-circuit contract for every
// kernel: ok is exactly |a∩b| >= minsup, the content is the true
// intersection when ok, and the operations performed before a mid-scan
// abort are still reported — both in the return value and in the
// KernelStats field the cluster cost model charges from.
func TestIntersectSetsSCContract(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 300; trial++ {
		a := randomList(rng, 60, 300)
		b := randomList(rng, 60, 300)
		full := Intersect(a, b)
		for _, minsup := range []int{0, 1, len(full), len(full) + 1, 15, len(a) + len(b)} {
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
				// Aborts must report the work already done: the returned
				// ops and the stats field must agree even when ok=false.
				assertOpsCounted(t, &ks, combo, int64(ops))
			}
		}
	}
}

// TestAbortedResultReusableAsScratch pins the storage-reuse half of the
// partial-prefix contract: the only valid use of an ok=false result is
// as scratch for a later kernel call, and that later call must be
// correct. This is exactly what the mining recursions do after a
// short-circuited candidate.
func TestAbortedResultReusableAsScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 100; trial++ {
		a := randomList(rng, 60, 300)
		b := randomList(rng, 60, 300)
		c := randomList(rng, 60, 300)
		for _, combo := range reprCombos {
			var ks KernelStats
			// Force an abort with an unreachable minsup.
			aborted, _, ok := IntersectSetsSC(nil, asRepr(a, combo[0]), asRepr(b, combo[1]), len(a)+len(b)+1, &ks)
			if ok {
				t.Fatal("minsup above both supports must abort")
			}
			// Reuse the partial prefix as scratch for a fresh intersection.
			want := Intersect(a, c)
			got, _ := IntersectSets(aborted, asRepr(a, combo[0]), asRepr(c, combo[1]), &ks)
			if !equalTIDs(TIDsOf(got), want) {
				t.Fatalf("combo %v/%v: reusing aborted result as scratch corrupted the next intersection", combo[0], combo[1])
			}
		}
	}
}

// bernoulliList returns the TIDs of [0, span) kept each with probability
// p, in increasing order.
func bernoulliList(rng *rand.Rand, span int, p float64) List {
	var l List
	for t := 0; t < span; t++ {
		if rng.Float64() < p {
			l = append(l, itemset.TID(t))
		}
	}
	return l
}

// TestKernelsKeepOneEncoding: given two operands of one encoding, every
// kernel returns that encoding — the plain intersection, and the short
// circuit whether it keeps the result, aborts mid-scan or refuses up
// front — also when it reuses the previous result as scratch. A class's
// members share one encoding (eclat's TestClassMembersShareOneEncoding),
// so by induction every join below it pairs one encoding, and no mining
// call reaches the mixed fallback of IntersectSetsSC. The operands span five
// 64K-TID chunks, at densities that give the roaring sets array and
// bitmap containers.
func TestKernelsKeepOneEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	span := 5 << ChunkBits
	runs := append(seqList(10, 3000), seqList(2<<ChunkBits, 70000)...)
	pairs := [][2]List{
		{bernoulliList(rng, span, 0.002), bernoulliList(rng, span, 0.004)},
		{bernoulliList(rng, span, 0.3), bernoulliList(rng, span, 0.6)},
		{runs, bernoulliList(rng, span, 0.5)},
	}
	for _, r := range []Repr{ReprSparse, ReprBitset, ReprRoaring} {
		var ks KernelStats
		var scratch Set
		check := func(op string, got Set) {
			t.Helper()
			if got.Repr() != r {
				t.Fatalf("%v operands: %s returned %v", r, op, got.Repr())
			}
			scratch = got
		}
		for _, p := range pairs {
			a, b := asRepr(p[0], r), asRepr(p[1], r)
			full := Intersect(p[0], p[1])
			if len(full) == 0 || len(full) == min(len(p[0]), len(p[1])) {
				t.Fatalf("operands of %d and %d TIDs meet in %d: no mid-scan abort", len(p[0]), len(p[1]), len(full))
			}
			got, _ := IntersectSets(scratch, a, b, &ks)
			if !equalTIDs(TIDsOf(got), full) {
				t.Fatalf("%v operands: IntersectSets content mismatch", r)
			}
			check("IntersectSets", got)
			for _, minsup := range []int{len(full), len(full) + 1, min(len(p[0]), len(p[1])) + 1} {
				got, _, ok := IntersectSetsSC(scratch, a, b, minsup, &ks)
				if ok != (minsup <= len(full)) {
					t.Fatalf("%v operands, minsup %d: ok=%v with |∩|=%d", r, minsup, ok, len(full))
				}
				check(fmt.Sprintf("IntersectSetsSC(minsup %d, ok=%v)", minsup, ok), got)
			}
		}
	}
}

func TestCloneSetDetachesFromScratch(t *testing.T) {
	a := mk(1, 2, 3, 4, 5)
	b := mk(2, 4, 5)
	for _, combo := range reprCombos {
		var ks KernelStats
		res, _ := IntersectSets(nil, asRepr(a, combo[0]), asRepr(b, combo[1]), &ks)
		kept := CloneSet(res)
		want := TIDsOf(kept).Clone()
		// Clobber the scratch storage with an unrelated intersection.
		IntersectSets(res, asRepr(mk(100, 200, 300), combo[0]), asRepr(mk(100, 300), combo[1]), &ks)
		if !equalTIDs(TIDsOf(kept), want) {
			t.Fatalf("combo %v/%v: CloneSet result changed after scratch reuse", combo[0], combo[1])
		}
	}
}

func TestConvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 100; trial++ {
		l := randomList(rng, 80, 5000)
		var ks KernelStats
		dense := Convert(l, ReprBitset, &ks)
		if dense.Repr() != ReprBitset {
			t.Fatal("Convert to bitset returned wrong representation")
		}
		back := Convert(dense, ReprSparse, &ks)
		if !equalTIDs(TIDsOf(back), l) {
			t.Fatalf("round trip lost tids: %v -> %v", l, TIDsOf(back))
		}
		if ks.Conversions() != 2 {
			t.Fatalf("expected 2 conversions counted, got %d", ks.Conversions())
		}
		// Converting to the same representation (or to auto) is a no-op
		// and must not count.
		if Convert(l, ReprSparse, &ks); ks.Conversions() != 2 {
			t.Fatal("same-representation Convert should not count")
		}
		if Convert(dense, ReprAuto, &ks); ks.Conversions() != 2 {
			t.Fatal("Convert to auto should not count")
		}
	}
}

func TestBounds(t *testing.T) {
	for _, r := range []Repr{ReprSparse, ReprBitset, ReprRoaring} {
		if _, _, ok := Bounds(asRepr(nil, r)); ok {
			t.Fatalf("%v: empty set has bounds", r)
		}
		lo, hi, ok := Bounds(asRepr(mk(7, 100, 9000), r))
		if !ok || lo != 7 || hi != 9000 {
			t.Fatalf("%v: Bounds = %d..%d ok=%v, want 7..9000", r, lo, hi, ok)
		}
		// Chunk-spanning set: bounds come from different containers.
		lo, hi, ok = Bounds(asRepr(mk(65535, 65536, 200000), r))
		if !ok || lo != 65535 || hi != 200000 {
			t.Fatalf("%v: Bounds = %d..%d ok=%v, want 65535..200000", r, lo, hi, ok)
		}
	}
}

// TestAppendChunk: under every encoding, appending each 64K chunk of a
// set in turn rebuilds its TID list, and a chunk outside the set, below,
// between or above its containers, appends nothing.
func TestAppendChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 50; trial++ {
		var l List
		for tid := itemset.TID(rng.Intn(3) * 65536); len(l) < 400 && tid < 600_000; tid += itemset.TID(1 + rng.Intn(3000)) {
			if rng.Intn(40) == 0 {
				tid += 2 * 65536 // leave a chunk empty
			}
			l = append(l, tid)
		}
		for _, r := range []Repr{ReprSparse, ReprBitset, ReprRoaring} {
			s := asRepr(l, r)
			var got List
			for key := 0; key <= 12; key++ {
				got = AppendChunk(got, s, uint16(key))
			}
			if !equalTIDs(got, l) {
				t.Fatalf("%v trial %d: chunks rebuilt %d of %d TIDs", r, trial, len(got), len(l))
			}
			if n := len(AppendChunk(nil, s, 100)); n != 0 {
				t.Fatalf("%v: chunk 100 appended %d TIDs", r, n)
			}
		}
	}
}

func TestEncodedSize(t *testing.T) {
	l := mk(0, 1, 2, 63) // one word, 4 tids
	if n, r := EncodedSize(l, ReprSparse); n != 16 || r != ReprSparse {
		t.Fatalf("sparse EncodedSize = %d/%v", n, r)
	}
	if n, r := EncodedSize(l, ReprBitset); n != 16 || r != ReprBitset {
		t.Fatalf("dense EncodedSize = %d/%v (want 8 header + 1 word)", n, r)
	}
	// Auto ships the cheaper encoding: 4 tids in one word ties at 16
	// bytes (dense is not strictly smaller, so sparse wins the tie); 5
	// tids in one word favors dense.
	if n, r := EncodedSize(l, ReprAuto); n != 16 || r != ReprSparse {
		t.Fatalf("auto EncodedSize = %d/%v, want sparse tie-break", n, r)
	}
	l5 := mk(0, 1, 2, 3, 63)
	if n, r := EncodedSize(l5, ReprAuto); n != 16 || r != ReprBitset {
		t.Fatalf("auto EncodedSize(5 tids/word) = %d/%v, want 16/bitset", n, r)
	}
	// Widely spread tids: dense pays per covered word, sparse per tid.
	spread := mk(0, 1_000_000)
	if n, r := EncodedSize(spread, ReprAuto); n != 8 || r != ReprSparse {
		t.Fatalf("auto EncodedSize(spread) = %d/%v, want 8/sparse", n, r)
	}
	if n, _ := EncodedSize(nil, ReprAuto); n != 0 {
		t.Fatalf("empty EncodedSize = %d", n)
	}
	// EncodedSize must agree with the sizes the real encodings report,
	// and auto must return the minimum of the three.
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 50; trial++ {
		l := randomList(rng, 60, 2000)
		if n, _ := EncodedSize(l, ReprBitset); n != NewBitset(l).SizeBytes() {
			t.Fatalf("EncodedSize dense %d != Bitset.SizeBytes %d for %v", n, NewBitset(l).SizeBytes(), l)
		}
		nr, _ := EncodedSize(l, ReprRoaring)
		if got := NewRoaring(l).SizeBytes(); nr != got {
			t.Fatalf("EncodedSize roaring %d != Roaring.SizeBytes %d for %v", nr, got, l)
		}
		na, _ := EncodedSize(l, ReprAuto)
		ns, _ := EncodedSize(l, ReprSparse)
		nb, _ := EncodedSize(l, ReprBitset)
		if na != min(ns, nb, nr) {
			t.Fatalf("auto EncodedSize %d is not the minimum of %d/%d/%d", na, ns, nb, nr)
		}
	}
	// A clustered list far apart compresses best under roaring: a
	// bitmap covers each cluster, and untouched chunks cost nothing.
	var clustered List
	for c := 0; c < 4; c++ {
		base := itemset.TID(c * 10 * chunkSize)
		for o := 0; o < 3000; o++ {
			clustered = append(clustered, base+itemset.TID(o))
		}
	}
	if n, r := EncodedSize(clustered, ReprAuto); r != ReprRoaring {
		t.Fatalf("auto EncodedSize(clustered) picked %v (%d bytes), want roaring", r, n)
	}
	// One run of 5,000 tids inside one chunk: roaring prices its 79-word
	// bitmap plus a container descriptor, 8 bytes above the flat bitset.
	run := seqList(10, 5000)
	if n, _ := EncodedSize(run, ReprRoaring); n != 648 {
		t.Fatalf("roaring EncodedSize(run) = %d, want 648", n)
	}
	if n, _ := EncodedSize(run, ReprBitset); n != 640 {
		t.Fatalf("bitset EncodedSize(run) = %d, want 640", n)
	}
	if n, r := EncodedSize(run, ReprAuto); n != 640 || r != ReprBitset {
		t.Fatalf("auto EncodedSize(run) = %d/%v, want 640/bitset", n, r)
	}
}

func TestBitsetFarFromZeroStaysCompact(t *testing.T) {
	// A class whose tids cluster near 10^9 must not allocate words from
	// zero: the word-aligned base anchors the span.
	l := mk(1_000_000_000, 1_000_000_005, 1_000_000_063, 1_000_000_100)
	b := NewBitset(l)
	if len(b.words) > 2 {
		t.Fatalf("bitset spans %d words, want <= 2", len(b.words))
	}
	if b.base%wordBits != 0 {
		t.Fatalf("base %d not word-aligned", b.base)
	}
	if !equalTIDs(b.TIDs(), l) {
		t.Fatalf("round trip lost tids: %v", b.TIDs())
	}
}

func TestBitsetContains(t *testing.T) {
	b := NewBitset(mk(64, 70, 200))
	for _, tid := range []itemset.TID{64, 70, 200} {
		if !b.Contains(tid) {
			t.Fatalf("Contains(%d) = false", tid)
		}
	}
	for _, tid := range []itemset.TID{0, 63, 65, 199, 201, 100000} {
		if b.Contains(tid) {
			t.Fatalf("Contains(%d) = true", tid)
		}
	}
}

func TestKernelStatsAddAndFlush(t *testing.T) {
	var a, b KernelStats
	a.sparseOps, a.wordsTouched, a.conversions = 3, 5, 1
	b.sparseOps, b.denseIntersections = 2, 7
	a.Add(b)
	if a.SparseOps() != 5 || a.WordsTouched() != 5 || a.Conversions() != 1 || a.DenseIntersections() != 7 {
		t.Fatalf("Add wrong: %+v", a)
	}
	var prev KernelStats
	a.Flush(&prev)
	if prev != a {
		t.Fatal("Flush must copy the current totals into prev")
	}
	// A second flush with no new work publishes zero deltas and leaves
	// prev unchanged.
	a.Flush(&prev)
	if prev != a {
		t.Fatal("idempotent Flush changed prev")
	}
}

// assertOpsCounted checks that the kernel charged its ops to the stats
// fields the cluster cost model reads for that operand pairing: element
// comparisons for sparse/mixed dispatches, words for dense ones, and
// the per-container element/word split for containerized dispatches —
// and that the total charged always equals the returned ops.
func assertOpsCounted(t *testing.T, ks *KernelStats, combo [2]Repr, ops int64) {
	t.Helper()
	total := ks.SparseOps() + ks.WordsTouched() + ks.RoaringElemOps() + ks.RoaringWords()
	if total != ops {
		t.Fatalf("combo %v/%v: charged %d ops across stats fields, returned ops=%d", combo[0], combo[1], total, ops)
	}
	switch {
	case combo[0] == ReprSparse || combo[1] == ReprSparse:
		// A sparse operand routes to the merge or probe kernel.
		if ks.SparseOps() != ops {
			t.Fatalf("combo %v/%v: SparseOps=%d, returned ops=%d", combo[0], combo[1], ks.SparseOps(), ops)
		}
	case combo[0] == ReprBitset && combo[1] == ReprBitset:
		if ks.WordsTouched() != ops {
			t.Fatalf("combo %v/%v: WordsTouched=%d, returned ops=%d", combo[0], combo[1], ks.WordsTouched(), ops)
		}
	default:
		// A roaring operand (vs roaring or bitset) runs container kernels.
		if ks.RoaringElemOps()+ks.RoaringWords() != ops {
			t.Fatalf("combo %v/%v: roaring ops %d+%d, returned ops=%d", combo[0], combo[1], ks.RoaringElemOps(), ks.RoaringWords(), ops)
		}
	}
}

func equalTIDs(a, b List) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
