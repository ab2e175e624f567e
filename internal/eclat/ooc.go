package eclat

import (
	"sort"

	"repro/internal/eqclass"
	"repro/internal/obsv"
	"repro/internal/tidlist"
)

const mnClassRefetches = "eclat_class_refetches_total"

var mClassRefetches = obsv.Default.Counter(mnClassRefetches, "equivalence classes whose pair tid-lists were derived from item sets under a residency budget")

// Residency is the engine's view of a store residency budget
// (structurally satisfied by *store.Residency, so neither package
// imports the other; the root package wires them together). The engine
// calls Plan once before mining, brackets every class mine with
// Acquire/Release, and the entry point defers Done. All methods must be
// safe for concurrent use by worker goroutines.
type Residency interface {
	// ItemSegment returns the bundle segment where item's tid-list
	// starts (-1 unknown) — the locality key class scheduling sorts by.
	ItemSegment(item int) int
	// Plan announces, before mining starts, which items each class
	// (addressed by index) will read.
	Plan(classes [][]int)
	// Acquire is called before class ci is mined; its segments must be
	// resident until the matching Release.
	Acquire(ci int)
	// Release is called after class ci is mined (even when mining was
	// cut short by cancellation); segments no pending class needs may be
	// evicted.
	Release(ci int)
	// Done ends the run: everything may be evicted. Idempotent.
	Done()
}

// itemSets is the class-operand source of every local run: only item
// sets are kept (a vertical input's, possibly views over a store
// mapping, or a horizontal run's item lists), and each class's pair
// lists are derived when the class is mined. Under a residency budget
// that happens inside the class's Acquire/Release window; in-core is the
// same path with no residency.
type itemSets struct {
	items []tidlist.Set
	res   Residency // nil: unbudgeted
}

// classMembers derives the sorted, representation-resolved member list
// of class from the item sets. Every member pair passed minsup in the L2
// count, so the intersections need no short circuit. They are charged to
// st like the recursion's own kernel calls, so the per-class flush
// publishes them and budgeted and unbudgeted runs count identically.
// Each derived set keeps the encoding its two item sets produce (two
// bitsets give a bitset) and is cloned into ar, so the representation
// policy sees the members' real encodings and re-encodes only those
// that differ from its choice.
func (s *itemSets) classMembers(class *eqclass.Class, repr tidlist.Repr, st *Stats, ar *arena) []member {
	if s.res != nil {
		mClassRefetches.Inc()
	}
	out := ar.nextMembers(len(class.Members))
	for _, set := range class.Members {
		a, b := s.items[int(set[0])], s.items[int(set[1])]
		tids, ops := tidlist.IntersectSets(ar.scratch(a, b), a, b, &st.Kernel)
		st.Intersections++
		st.IntersectOps += int64(ops)
		ar.keep(tids)
		out = append(out, member{set: set, tids: ar.cloneSet(tids)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].set.Less(out[j].set) })
	applyClassRepr(out, repr, &st.Kernel)
	return out
}

// classItems returns the distinct items class c reads: its prefix item
// plus every extension, i.e. the union of its member pairs.
func classItems(c *eqclass.Class) []int {
	seen := make(map[int]bool, len(c.Members)+1)
	out := make([]int, 0, len(c.Members)+1)
	for _, set := range c.Members {
		for _, it := range set {
			if !seen[int(it)] {
				seen[int(it)] = true
				out = append(out, int(it))
			}
		}
	}
	sort.Ints(out)
	return out
}

// orderClassesByLocality stably reorders classes so that classes whose
// item tid-lists start in the same or adjacent bundle segments run
// adjacently — sequential segment traversal instead of random paging.
// Classes with no known segment sort last. The final reduction merges
// the classes' runs in prefix order, which makes the output independent
// of class order, so this is purely a paging optimization.
func orderClassesByLocality(classes []eqclass.Class, res Residency) {
	keys := make([]int, len(classes))
	for ci := range classes {
		key := int(^uint(0) >> 1) // unknown → last
		for _, it := range classItems(&classes[ci]) {
			if s := res.ItemSegment(it); s >= 0 && s < key {
				key = s
			}
		}
		keys[ci] = key
	}
	order := make([]int, len(classes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
	sorted := make([]eqclass.Class, len(classes))
	for i, ci := range order {
		sorted[i] = classes[ci]
	}
	copy(classes, sorted)
}

// planResidency hands the per-class item map to the residency layer.
// Must run after any reordering: classes are addressed by final index.
func planResidency(classes []eqclass.Class, res Residency) {
	plan := make([][]int, len(classes))
	for ci := range classes {
		plan[ci] = classItems(&classes[ci])
	}
	res.Plan(plan)
}

// spanSchedule deals the locality-ordered classes to workers as
// contiguous spans balanced by the same C(s,2)+1 weight the greedy
// schedule uses. Under a residency budget the greedy deal is wrong: it
// interleaves classes across workers, so every worker touches every
// segment. Contiguous spans keep each worker inside a consecutive
// segment range; work stealing still rebalances the tail, trading some
// locality for utilization only when a worker actually runs dry.
func spanSchedule(classes []eqclass.Class, workers int) [][]int {
	out := make([][]int, workers)
	var total int64
	for i := range classes {
		total += classes[i].Weight() + 1
	}
	var acc int64
	w := 0
	for ci := range classes {
		if w < workers-1 && acc >= (total*int64(w+1)+int64(workers)-1)/int64(workers) {
			w++
		}
		out[w] = append(out[w], ci)
		acc += classes[ci].Weight() + 1
	}
	return out
}

// budgeted reports whether the run mines under a residency budget.
func (v *vertical) budgeted() bool { return v.sets.res != nil }

// acquire/release bracket one class mine with the residency layer; they
// are no-ops for unbudgeted runs so the engine's driver calls them
// unconditionally.
func (v *vertical) acquire(ci int) {
	if v.budgeted() {
		v.sets.res.Acquire(ci)
	}
}

func (v *vertical) release(ci int) {
	if v.budgeted() {
		v.sets.res.Release(ci)
	}
}
