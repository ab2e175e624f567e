package tidlist

import (
	"repro/internal/itemset"
)

// A Stack's first chunk holds arenaFirstChunkElems elements and each
// later one twice its predecessor's, up to arenaChunkElems, so an arena
// that mines a few small classes stays a few KiB while a deep recursion
// still carves from large chunks. A single request larger than the next
// chunk gets a dedicated chunk of exactly the requested size.
const (
	arenaFirstChunkElems = 1 << 6
	arenaChunkElems      = 1 << 14
)

// StackMark addresses one allocation point inside a Stack.
type StackMark struct {
	chunk, off int
}

// Stack is a stack allocator over fixed chunks: carve slices off the
// current chunk with Alloc, remember a position with Mark, and free
// everything carved since with Release. Chunks are retained across
// releases, so a steady-state mining recursion stops allocating
// entirely. Carved slices are full-capacity (three-index) sub-slices, so
// appending beyond a carve's capacity can never bleed into a neighbour.
// The zero value is an empty stack.
type Stack[T any] struct {
	chunks [][]T
	ci     int // current chunk index
	off    int // next free element in chunks[ci]
}

// Alloc carves a slice of length n (capacity exactly n). The contents
// are stale from earlier carves — callers overwrite every element.
func (s *Stack[T]) Alloc(n int) []T {
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

// Mark records the current allocation point.
func (s *Stack[T]) Mark() StackMark { return StackMark{s.ci, s.off} }

// Release frees every carve made since m was taken; those slices must no
// longer be referenced.
func (s *Stack[T]) Release(m StackMark) { s.ci, s.off = m.chunk, m.off }

// Clear empties the stack and zeroes every chunk it keeps, so nothing an
// earlier carve held stays reachable through it.
func (s *Stack[T]) Clear() {
	for _, c := range s.chunks {
		clear(c)
	}
	s.ci, s.off = 0, 0
}

// Arena is a stack allocator for tid-set clones. The Eclat recursion's
// member tid-sets live exactly as long as the sub-class they belong to —
// a strict LIFO lifetime — so the mining loop brackets each sub-class
// with Mark/Release and clones survivors with CloneSetInto, reducing the
// per-itemset allocation cost of the recursion to a pointer bump.
type Arena struct {
	tids  Stack[itemset.TID]
	words Stack[uint64]
	sets  Stack[Bitset]
}

// ArenaMark is a point-in-time position of an Arena (see Mark/Release).
type ArenaMark struct {
	tids, words, sets StackMark
}

// Mark records the current allocation point.
func (a *Arena) Mark() ArenaMark {
	return ArenaMark{tids: a.tids.Mark(), words: a.words.Mark(), sets: a.sets.Mark()}
}

// Release frees every allocation made since m was taken. The freed
// storage is reused by subsequent allocations; slices carved after m must
// no longer be referenced.
func (a *Arena) Release(m ArenaMark) {
	a.tids.Release(m.tids)
	a.words.Release(m.words)
	a.sets.Release(m.sets)
}

// CloneSetInto copies s into arena-backed storage under the same
// representation, like CloneSet but without per-clone heap allocations.
// The clone is valid until the enclosing Mark is Released.
func (a *Arena) CloneSetInto(s Set) Set {
	switch v := s.(type) {
	case List:
		dst := a.tids.Alloc(len(v))
		copy(dst, v)
		return List(dst)
	case *Bitset:
		b := &a.sets.Alloc(1)[0]
		b.base = v.base
		b.count = v.count
		b.words = a.words.Alloc(len(v.words))
		copy(b.words, v.words)
		return b
	default:
		return CloneSet(s)
	}
}
