package tidlist

import (
	"repro/internal/itemset"
)

// A chunk stack's first chunk holds arenaFirstChunkElems elements and
// each later one twice its predecessor's, up to arenaChunkElems, so an
// arena that mines a few small classes stays a few KiB while a deep
// recursion still carves from large chunks. A single request larger than
// the next chunk gets a dedicated chunk of exactly the requested size.
const (
	arenaFirstChunkElems = 1 << 6
	arenaChunkElems      = 1 << 14
)

// chunkPos addresses one allocation point inside a chunk stack.
type chunkPos struct {
	chunk, off int
}

// chunkStack is a stack allocator over fixed chunks: carve slices off the
// current chunk, remember a position with mark, and free everything
// carved since with release. Chunks are retained across releases, so a
// steady-state mining recursion stops allocating entirely. Carved slices
// are full-capacity (three-index) sub-slices, so appending beyond a
// carve's length can never bleed into a neighbour.
type chunkStack[T any] struct {
	chunks [][]T
	ci     int // current chunk index
	off    int // next free element in chunks[ci]
}

// alloc carves a slice of length n (capacity exactly n). The contents
// are stale from earlier carves — callers overwrite every element.
func (s *chunkStack[T]) alloc(n int) []T {
	for {
		if s.ci < len(s.chunks) {
			c := s.chunks[s.ci]
			if s.off+n <= len(c) {
				out := c[s.off : s.off+n : s.off+n]
				s.off += n
				return out
			}
			// Current chunk can't fit the carve: move on. The wasted tail
			// is reclaimed by the release that unwinds past this point.
			s.ci++
			s.off = 0
			continue
		}
		size := arenaFirstChunkElems
		if k := len(s.chunks); k > 0 {
			size = min(2*len(s.chunks[k-1]), arenaChunkElems)
		}
		size = max(size, n)
		s.chunks = append(s.chunks, make([]T, size))
		s.ci = len(s.chunks) - 1
		s.off = 0
	}
}

func (s *chunkStack[T]) mark() chunkPos { return chunkPos{s.ci, s.off} }

func (s *chunkStack[T]) release(p chunkPos) { s.ci, s.off = p.chunk, p.off }

// Arena is a stack allocator for tid-set clones. The Eclat recursion's
// member tid-sets live exactly as long as the sub-class they belong to —
// a strict LIFO lifetime — so the mining loop brackets each sub-class
// with Mark/Release and clones survivors with CloneSetInto, reducing the
// per-itemset allocation cost of the recursion to a pointer bump.
//
// A nil *Arena is valid and falls back to plain heap clones, so callers
// can thread one arena through shared code without branching.
type Arena struct {
	tids  chunkStack[itemset.TID]
	words chunkStack[uint64]
	sets  chunkStack[Bitset]
}

// ArenaMark is a point-in-time position of an Arena (see Mark/Release).
type ArenaMark struct {
	tids, words, sets chunkPos
}

// Mark records the current allocation point.
func (a *Arena) Mark() ArenaMark {
	if a == nil {
		return ArenaMark{}
	}
	return ArenaMark{tids: a.tids.mark(), words: a.words.mark(), sets: a.sets.mark()}
}

// Release frees every allocation made since m was taken. The freed
// storage is reused by subsequent allocations; slices carved after m must
// no longer be referenced.
func (a *Arena) Release(m ArenaMark) {
	if a == nil {
		return
	}
	a.tids.release(m.tids)
	a.words.release(m.words)
	a.sets.release(m.sets)
}

// CloneSetInto copies s into arena-backed storage under the same
// representation, like CloneSet but without per-clone heap allocations.
// The clone is valid until the enclosing Mark is Released. A nil arena
// degrades to CloneSet.
func (a *Arena) CloneSetInto(s Set) Set {
	if a == nil {
		return CloneSet(s)
	}
	switch v := s.(type) {
	case List:
		dst := a.tids.alloc(len(v))
		copy(dst, v)
		return List(dst)
	case *Bitset:
		b := &a.sets.alloc(1)[0]
		b.base = v.base
		b.count = v.count
		b.words = a.words.alloc(len(v.words))
		copy(b.words, v.words)
		return b
	default:
		return CloneSet(s)
	}
}
