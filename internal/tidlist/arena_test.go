package tidlist

import (
	"runtime"
	"testing"

	"repro/internal/itemset"
)

// arenaSink keeps the arena and its clones escaping in the size test.
var arenaSink []Set

// TestArenaFirstChunksSmall pins the arena's geometric chunk growth: an
// arena that clones one 100-TID list and one 79-word bitset costs a few
// KiB, not a full-size chunk per element type.
func TestArenaFirstChunksSmall(t *testing.T) {
	l := make(List, 100)
	for i := range l {
		l[i] = itemset.TID(i)
	}
	words := make(List, 0, 79)
	for w := 0; w < 79; w++ {
		words = append(words, itemset.TID(w*wordBits))
	}
	bs := NewBitset(words)
	if len(bs.words) != 79 {
		t.Fatalf("bitset spans %d words, want 79", len(bs.words))
	}
	var ms runtime.MemStats
	best := uint64(1 << 62)
	for try := 0; try < 5; try++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		a := new(Arena)
		arenaSink = []Set{a.CloneSetInto(l), a.CloneSetInto(bs)}
		runtime.ReadMemStats(&ms)
		best = min(best, ms.TotalAlloc-before)
	}
	if best >= 8<<10 {
		t.Fatalf("arena cloning a 100-TID list and a 79-word bitset allocated %d bytes, want < 8 KiB", best)
	}
	if !equalTIDs(TIDsOf(arenaSink[0]), l) || !equalTIDs(TIDsOf(arenaSink[1]), words) {
		t.Fatal("arena clones differ from their sources")
	}
}

// TestArenaChunksGrowToFullSize checks that chunk sizes double up to
// arenaChunkElems, that an oversized carve gets a chunk of its own, and
// that released chunks are reused rather than reallocated.
func TestArenaChunksGrowToFullSize(t *testing.T) {
	var s chunkStack[uint64]
	m := s.mark()
	for i := 0; i < 2*arenaChunkElems; i++ {
		s.alloc(1)
	}
	sizes := make([]int, len(s.chunks))
	for i, c := range s.chunks {
		sizes[i] = len(c)
	}
	if sizes[0] != arenaFirstChunkElems {
		t.Fatalf("first chunk %d elements, want %d", sizes[0], arenaFirstChunkElems)
	}
	for i := 1; i < len(sizes); i++ {
		if want := min(2*sizes[i-1], arenaChunkElems); sizes[i] != want {
			t.Fatalf("chunk sizes %v: chunk %d should hold %d", sizes, i, want)
		}
	}
	if sizes[len(sizes)-1] != arenaChunkElems {
		t.Fatalf("chunk sizes %v never reach %d", sizes, arenaChunkElems)
	}
	n := len(s.chunks)
	if big := s.alloc(3 * arenaChunkElems); len(big) != 3*arenaChunkElems || len(s.chunks[len(s.chunks)-1]) != 3*arenaChunkElems {
		t.Fatal("an oversized carve should get a dedicated chunk of exactly its size")
	}
	s.release(m)
	for i := 0; i < 2*arenaChunkElems; i++ {
		s.alloc(1)
	}
	if len(s.chunks) != n+1 {
		t.Fatalf("re-carving after release grew the stack from %d to %d chunks", n+1, len(s.chunks))
	}
}
