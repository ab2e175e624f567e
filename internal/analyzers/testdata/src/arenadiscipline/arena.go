package eclat

// arena and arenaMark mirror the production scratch arena of arena.go:
// mark/release bracket each level of the class recursion, and Release
// truncates the arena back to the mark.
type arenaMark struct {
	chunk, off int
}

type arena struct {
	chunk, off int
}

func (a *arena) mark() arenaMark     { return arenaMark{a.chunk, a.off} }
func (a *arena) release(m arenaMark) { a.chunk, a.off = m.chunk, m.off }

type member struct {
	sup int
}

func emit(member)    {}
func keep(arenaMark) {}

// computeFrequent mirrors the production recursion of eclat.go: each
// loop iteration brackets its sub-class state with mark/release, the
// release post-dominating the mark. Clean.
func computeFrequent(ar *arena, members []member) {
	for i := range members {
		m := ar.mark()
		emit(members[i])
		ar.release(m)
	}
}

// deferredRelease releases its mark in a defer, which runs on every
// path to the exit. Clean.
func deferredRelease(ar *arena, members []member) {
	m := ar.mark()
	defer ar.release(m)
	for _, mem := range members {
		emit(mem)
	}
}

// markBoth mirrors arena.mark itself, which wraps the underlying marks
// in a composite literal: consumption by a wrapper is not tracked. Clean.
type twoMark struct {
	sets    arenaMark
	members arenaMark
}

func (a *arena) markBoth(b *arena) twoMark {
	return twoMark{sets: a.mark(), members: b.mark()}
}

// leakMark never releases: the arena grows for the rest of the run.
func leakMark(ar *arena, members []member) {
	m := ar.mark() // want `arena mark "m" from ar\.Mark\(\) is never released in this function`
	_ = m
	for _, mem := range members {
		emit(mem)
	}
}

// earlyReturn releases on the fall-through path but not the early exit.
func earlyReturn(ar *arena, members []member) {
	m := ar.mark() // want `arena mark "m" is not released on every path to the function exit`
	if len(members) == 0 {
		return
	}
	emit(members[0])
	ar.release(m)
}

// outOfOrder releases the outer mark first: Release truncates back to
// the outer mark, resurrecting everything the inner mark still covers.
func outOfOrder(ar *arena, members []member) {
	outer := ar.mark()
	inner := ar.mark()
	emit(members[0])
	ar.release(outer) // want `arena marks released out of LIFO order: "inner" must be released before "outer"`
	ar.release(inner)
}

// discard drops the mark on the floor — it can never be released.
func discard(ar *arena) {
	ar.mark() // want `arena mark from ar\.Mark\(\) is discarded`
}

// suppressed: a wrapper-owned mark handed to a helper, with a reason.
func handOff(ar *arena) {
	//reprolint:ignore arenadiscipline fixture exercises suppression for a helper-owned mark
	m := ar.mark()
	keep(m)
}
