package eclat

import (
	"repro/internal/tidlist"
)

// arena is one worker's reusable mining scratch: tid-set clone storage
// (tidlist.Arena) plus a tidlist.Stack for the member slices of the
// class recursion. Compute_Frequent's intermediate state has a strict
// stack lifetime — the members of a sub-class die when the recursion
// unwinds past it — so each i-iteration brackets its next-level members
// and tid-set clones with mark/release and the steady state allocates
// nothing per itemset.
type arena struct {
	sets    tidlist.Arena
	members tidlist.Stack[member]
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
