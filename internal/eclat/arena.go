package eclat

import (
	"repro/internal/tidlist"
)

// arena is one worker's reusable mining scratch: tid-set clone storage
// (tidlist.Arena), a tidlist.Stack for the member slices of the class
// recursion, and the kernels' result buffers. Compute_Frequent's
// intermediate state has a strict stack lifetime — the members of a
// sub-class die when the recursion unwinds past it — so each i-iteration
// brackets its next-level members and tid-set clones with mark/release
// and the steady state allocates nothing per itemset.
type arena struct {
	sets    tidlist.Arena
	members tidlist.Stack[member]
	// kernel holds, per encoding, the last kernel result: the buffer the
	// next join of that encoding reuses. Every survivor is cloned out of
	// it before the next kernel call, so one buffer serves every frame
	// of the worker's recursion.
	kernel [tidlist.ReprRoaring + 1]tidlist.Set
}

// arenaMark is a point-in-time position of an arena.
type arenaMark struct {
	sets    tidlist.ArenaMark
	members tidlist.StackMark
}

func (a *arena) mark() arenaMark {
	return arenaMark{sets: a.sets.Mark(), members: a.members.Mark()}
}

// release frees everything carved since m. Stale member values are left
// in place (they are overwritten before any read, and everything they
// reference is owned by the arena or by the emitted result anyway).
func (a *arena) release(m arenaMark) {
	a.sets.Release(m.sets)
	a.members.Release(m.members)
}

// cloneSet copies a surviving intersection result out of kernel scratch
// into storage that lives until the enclosing mark is released.
func (a *arena) cloneSet(s tidlist.Set) tidlist.Set { return a.sets.CloneSetInto(s) }

// nextMembers carves an empty member slice with capacity n — the exact
// upper bound of a sub-class's next level.
func (a *arena) nextMembers(n int) []member { return a.members.Alloc(n)[:0] }

// scratch returns the kernel buffer for the join of x and y. A class's
// members share one encoding, which every kernel keeps; deriving a
// class's members joins item sets whose encodings may differ, and a
// join with a sparse operand probes it into a sparse result. (A bitset
// and a roaring set join into a roaring one, which the bitset buffer
// cannot hold: the kernel allocates it, and keep stores it.)
func (a *arena) scratch(x, y tidlist.Set) tidlist.Set { return a.kernel[min(x.Repr(), y.Repr())] }

// keep makes the kernel result s the buffer of the next join in its
// encoding (nil, from a refused mixed join, keeps nothing).
func (a *arena) keep(s tidlist.Set) {
	if s != nil {
		a.kernel[s.Repr()] = s
	}
}
