package service

import (
	"repro/internal/store"
	"repro/internal/tidlist"
)

// mineFromStore holds the legal shapes: store views flow into kernel
// operand positions (a/b of the scratch-first kernels, the whole slice
// of IntersectKSetsSC) and out through arena clones, never into a
// write position. Clean.
func mineFromStore(dir string, ks *tidlist.KernelStats, ar *tidlist.Arena) {
	ds, err := store.OpenDataset(dir)
	if err != nil {
		return
	}
	sets := ds.Sets(nil)
	var scratch tidlist.Set
	scratch, _ = tidlist.IntersectSets(scratch, sets[0], sets[1], ks)
	tidlist.IntersectKSetsSC(sets, 2, ks)
	owned := ar.CloneSetInto(sets[0])
	_, _ = scratch, owned
}

// viewAsScratch passes a view in the destination slot: the kernel
// writes its result through the mapping.
func viewAsScratch(dir string, ks *tidlist.KernelStats) {
	ds, err := store.OpenDataset(dir)
	if err != nil {
		return
	}
	sets := ds.Sets(nil)
	tidlist.IntersectSets(sets[0], sets[1], sets[2], ks) // want `mmap-backed store view used as the scratch argument of tidlist\.IntersectSets;`
}

// aliasAsScratch: taint follows aliases and elements into IntersectSets.
func aliasAsScratch(ds *store.Dataset, ks *tidlist.KernelStats) {
	vs := ds.VerticalSets()
	alias := vs
	tidlist.IntersectSets(alias[2], vs[0], vs[1], ks) // want `mmap-backed store view used as the scratch argument of tidlist\.IntersectSets;`
}

// copyIntoView writes the shared mapping through a decoded view.
func copyIntoView(ds *store.Dataset) {
	lists := ds.SparseLists()
	copy(lists[0], lists[1]) // want `copy into an mmap-backed store view writes the shared mapping`
}

// appendToView: append may write in place when capacity allows.
func appendToView(ds *store.Dataset) {
	for _, s := range ds.SparseLists() {
		_ = append(s, 0) // want `append to an mmap-backed store view may write the shared mapping`
	}
}

// suppressed: a deliberate in-place scratch reuse, with a reason.
func scratchSuppressed(ds *store.Dataset, ks *tidlist.KernelStats) {
	sets := ds.Sets(nil)
	//reprolint:ignore mmapalias fixture exercises suppression of the scratch rule
	tidlist.IntersectSets(sets[0], sets[1], sets[2], ks)
}
