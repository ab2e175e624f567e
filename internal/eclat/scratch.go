package eclat

import (
	"sync"

	"repro/internal/eqclass"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/paircount"
	"repro/internal/tidlist"
)

// runScratch is everything a local mine allocates that dies with the
// run: the initialization's L2 triangle, item supports and frequent
// pairs, the transformation's item lists, the vertical L2 count's inputs
// and rows, the seeded L1/L2 itemsets and their supports, the classes
// and the run each one's emissions form, and each worker's deque, arena,
// counting scratch and emission buffer.
// mineLocal takes one from runPool and release hands it back after the
// final reduction, so a steady stream of mines allocates only its
// results (DESIGN.md §8). Nothing a mine returns or keeps — its Result,
// an L2 memo's pairs — points into a runScratch.
type runScratch struct {
	pc       paircount.Counter
	itemSup  []int          // per item: its support
	need     []int          // per item: the TIDs its list collects, or 0
	items    []tidlist.Set  // a horizontal mine's item tid-lists
	lists    []tidlist.List // the transformation's item lists
	tids     tidlist.List   // their backing array, or one packed set's TIDs
	frequent []itemset.Item // the vertical L2 count's items, by rank
	sets     []tidlist.Set  // their tid-sets
	rows     txRows         // the rows it was fed
	keys     []uint64       // its (tid, rank) keys when the TIDs are scattered
	pairs    []paircount.FrequentPair
	seeds    []itemset.Itemset // L1 then L2
	sups     []int             // their supports
	classes  []eqclass.Class
	runs     []classRun // per class: its sorted emissions
	workers  []*workerScratch
}

// classRun locates one class's emissions, sorted canonically once the
// class is mined: out[lo:hi] of worker w's buffer, for the class
// prefixed by item. Offsets, not a sub-slice, so no run pins a backing
// array the buffer has outgrown.
type classRun struct {
	item   itemset.Item
	w      int32
	lo, hi int
}

// workerScratch is one worker's share of a runScratch.
type workerScratch struct {
	q   wsDeque
	ar  arena
	cs  countScratch
	out []mining.FrequentItemset // the worker's emissions
}

// maxPooledEmissions caps the emission buffer a worker's scratch keeps:
// 16,384 itemsets, 512 KiB. The rest of the scratch grows with the data
// and its L2; the emissions grow with the result, which can dwarf both,
// and a pool that kept them would hold a large result's worth of memory
// in an idle process. Every mine of the repository benchmark's
// measured windows fits; `serve_hot`'s large primed keys (about 70,000
// itemsets) do not, and kept they held 11 MiB in the idle daemon.
const maxPooledEmissions = 1 << 14

// runPool holds the scratch of finished local mines. Each mine takes its
// own, so concurrent mines never share one.
var runPool = sync.Pool{New: func() any { return new(runScratch) }}

// forWorkers returns the scratch of workers 0..n-1. release emptied
// it; the arenas' marks and the counting scratch's triangles are unwound
// by the run that used them, cancelled or not.
func (rs *runScratch) forWorkers(n int) []*workerScratch {
	for len(rs.workers) < n {
		rs.workers = append(rs.workers, new(workerScratch))
	}
	return rs.workers[:n]
}

// release empties rs and clears every buffer whose elements hold
// pointers out of it, up to its capacity — so the pool keeps no result,
// dataset or store mapping reachable — and puts rs back in the pool.
func (rs *runScratch) release() {
	rs.items = clearAll(rs.items)
	rs.lists = clearAll(rs.lists)
	rs.sets = clearAll(rs.sets)
	rs.seeds = clearAll(rs.seeds)
	rs.classes = clearAll(rs.classes)
	for _, ws := range rs.workers {
		ws.q.tasks, ws.q.head, ws.q.weight = ws.q.tasks[:0], 0, 0
		ws.ar.members.Clear()
		ws.out = clearAll(ws.out)
		if cap(ws.out) > maxPooledEmissions {
			ws.out = nil
		}
	}
	runPool.Put(rs)
}

// clearAll zeroes buf up to its capacity and returns it emptied.
func clearAll[T any](buf []T) []T {
	buf = buf[:cap(buf)]
	clear(buf)
	return buf[:0]
}

// zeroed returns buf resized to n zero elements, reusing its storage
// when large enough.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// grow returns buf resized to n, keeping its contents and reusing its
// storage when large enough; elements past len(buf) are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return append(buf, make([]T, n-len(buf))...)
	}
	return buf[:n]
}
