package tidlist

import (
	"math/rand"
	"testing"

	"repro/internal/itemset"
)

// seqList returns [start, start+n) as a List.
func seqList(start itemset.TID, n int) List {
	l := make(List, n)
	for i := range l {
		l[i] = start + itemset.TID(i)
	}
	return l
}

func TestRoaringContainerShapes(t *testing.T) {
	// One long run of tids 10..5009: one bitmap over words 0..78.
	r := NewRoaring(seqList(10, 5000))
	if len(r.ctrs) != 1 || r.ctrs[0].kind != ctBitmap || len(r.ctrs[0].words) != 79 {
		t.Fatalf("5000-tid run encoded as kind %d over %d words in %d containers, want one 79-word bitmap", r.ctrs[0].kind, len(r.ctrs[0].words), len(r.ctrs))
	}
	// Every other tid over a word-dense span: bitmap.
	var dense List
	for i := 0; i < 4096; i += 2 {
		dense = append(dense, itemset.TID(i))
	}
	r = NewRoaring(dense)
	if len(r.ctrs) != 1 || r.ctrs[0].kind != ctBitmap {
		t.Fatalf("alternating tids encoded as kind %d, want bitmap", r.ctrs[0].kind)
	}
	// Widely scattered tids within a chunk: array.
	var scattered List
	for i := 0; i < 100; i++ {
		scattered = append(scattered, itemset.TID(i*601))
	}
	r = NewRoaring(scattered)
	if len(r.ctrs) != 1 || r.ctrs[0].kind != ctArray {
		t.Fatalf("scattered tids encoded as kind %d, want array", r.ctrs[0].kind)
	}
	// The bitmap window is trimmed: members far from the chunk start
	// must not pay for leading words.
	r = NewRoaring(seqList(60000, 64).Clone())
	if c := &r.ctrs[0]; c.kind == ctBitmap && len(c.words) > 2 {
		t.Fatalf("trimmed bitmap spans %d words, want <= 2", len(c.words))
	}
}

func TestRoaringChunkBoundaries(t *testing.T) {
	// Members on both sides of a chunk boundary land in distinct
	// containers and survive every accessor.
	l := mk(chunkSize-2, chunkSize-1, chunkSize, chunkSize+1, 3*chunkSize-1, 3*chunkSize)
	r := NewRoaring(l)
	if len(r.keys) != 4 {
		t.Fatalf("boundary list occupies %d chunks, want 4 (%v)", len(r.keys), r.keys)
	}
	if !equalTIDs(r.TIDs(), l) {
		t.Fatalf("round trip: %v -> %v", l, r.TIDs())
	}
	for _, tid := range l {
		if !r.Contains(tid) {
			t.Fatalf("Contains(%d) = false", tid)
		}
	}
	for _, tid := range []itemset.TID{0, chunkSize - 3, chunkSize + 2, 2 * chunkSize, 3*chunkSize + 1} {
		if r.Contains(tid) {
			t.Fatalf("Contains(%d) = true", tid)
		}
	}
	// A run crossing the boundary splits into per-chunk containers and
	// still intersects correctly with a straddling operand.
	a := seqList(chunkSize-100, 200)
	b := seqList(chunkSize-50, 100)
	var ks KernelStats
	got, _ := IntersectSets(nil, NewRoaring(a), NewRoaring(b), &ks)
	if !equalTIDs(TIDsOf(got), Intersect(a, b)) {
		t.Fatalf("boundary-straddling intersection wrong: %v", TIDsOf(got))
	}
}

func TestRoaringSetTIDsReuse(t *testing.T) {
	// Repacking a Roaring must fully replace its contents, whatever the
	// prior shapes were, while reusing storage.
	rng := rand.New(rand.NewSource(71))
	r := &Roaring{}
	for trial := 0; trial < 200; trial++ {
		var l List
		switch trial % 3 {
		case 0:
			l = randomList(rng, 300, 10*chunkSize)
		case 1:
			l = seqList(itemset.TID(rng.Intn(3*chunkSize)), 1+rng.Intn(5000))
		default:
			l = randomList(rng, 50, 500)
		}
		r.SetTIDs(l)
		if !equalTIDs(r.TIDs(), l) {
			t.Fatalf("trial %d: SetTIDs reuse lost tids", trial)
		}
		if r.Support() != len(l) {
			t.Fatalf("trial %d: Support %d, want %d", trial, r.Support(), len(l))
		}
	}
	r.SetTIDs(nil)
	if r.Support() != 0 || len(r.keys) != 0 {
		t.Fatal("SetTIDs(nil) must empty the set")
	}
}

func TestRoaringCloneIndependence(t *testing.T) {
	l := seqList(100, 1000)
	r := NewRoaring(l)
	c := r.Clone()
	r.SetTIDs(mk(1, 2, 3))
	if !equalTIDs(c.TIDs(), l) {
		t.Fatal("Clone shares storage with the original")
	}
}
