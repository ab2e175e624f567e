package store

import (
	"os"
	"sort"
	"sync"

	"repro/internal/obsv"
)

// Residency-layer metrics (see /metricsz on the daemon).
const (
	mnStoreEvictions = "store_residency_evictions_total"
	mnStoreSegsMap   = "store_segments_mapped"
	mnStoreMadvise   = "store_madvise_calls_total"
)

var (
	storeEvictions = obsv.Default.Counter(mnStoreEvictions, "bundle segments evicted from residency (budget pressure or class death)")
	storeSegsMap   = obsv.Default.Gauge(mnStoreSegsMap, "bundle segments currently resident under a residency budget")
	storeMadvise   = obsv.Default.Counter(mnStoreMadvise, "madvise hints issued by the residency layer")
)

// Residency tracks which bundle segments a budgeted, class-at-a-time
// mine needs resident, and advises the kernel as segments come alive and
// die. The mapping itself is never split or remapped: "resident" means
// the pages may be faulted in and kept, "evicted" means the pages were
// advised DONTNEED and will refault from the file if touched again, so
// every view over the mapping stays valid at all times — eviction is a
// paging hint, not an invalidation. One Residency serves one mining run;
// it is safe for concurrent Acquire/Release from worker goroutines.
//
// The protocol mirrors the class lifecycle of the engine:
//
//	Plan(classes)      once, before mining: per-class segment needs
//	Acquire(class)     before a class is mined: fault its segments in
//	                   (SEQUENTIAL on a segment's first touch), then
//	                   evict the oldest idle segments past the budget
//	Release(class)     after a class: segments no other pending class
//	                   needs are dead and evicted immediately
//	Done()             once, after mining (any outcome): evict the rest
type Residency struct {
	ds       *Dataset
	budget   int64
	segBytes int64
	pageSize int64
	itemSegs [][]int // the dataset's segment index, shared read-only

	mu       sync.Mutex
	classes  [][]int // per class (set by Plan): segments needed, sorted
	refs     []int   // per segment: pending classes that still need it
	resident []bool  // per segment: currently counted against the budget
	touched  []bool  // per segment: SEQUENTIAL hint already issued
	order    []int   // resident segments, oldest acquisition first
	inUse    int64   // bytes of resident segments
	done     bool
}

// NewResidency returns a residency tracker enforcing the given byte
// budget over the part of this dataset's mapping a mine reads
// (BytesMapped), or nil when budgeting is moot: budget <= 0, nothing
// mapped, or that part already fits the budget (the in-core path is
// strictly better then). For a v1 bundle it is one segment, so eviction
// degenerates to everything-or-nothing but the accounting still holds.
// The segment index is the dataset's, built once; a Residency owns only
// its run's bookkeeping.
func (ds *Dataset) NewResidency(budget int64) *Residency {
	mapped := ds.BytesMapped()
	if budget <= 0 || mapped == 0 || mapped <= budget {
		return nil
	}
	segBytes, numSegs := ds.segments()
	return &Residency{
		ds:       ds,
		budget:   budget,
		segBytes: segBytes,
		pageSize: int64(os.Getpagesize()),
		itemSegs: ds.segmentIndex(),
		refs:     make([]int, numSegs),
		resident: make([]bool, numSegs),
		touched:  make([]bool, numSegs),
	}
}

// segments returns the residency granularity and how many segments the
// mined bytes divide into: the bundle's segments, or one spanning them
// for a v1 bundle.
func (ds *Dataset) segments() (segBytes int64, numSegs int) {
	mapped := ds.BytesMapped()
	segBytes = ds.idx.SegmentBytes
	if segBytes <= 0 {
		segBytes = mapped
	}
	return segBytes, int((mapped + segBytes - 1) / segBytes)
}

// segmentIndex returns, per item, the segments its record parts touch,
// sorted. It is built on the first call, so a dataset that is never
// mined under a budget never builds it.
func (ds *Dataset) segmentIndex() [][]int {
	ds.segsOnce.Do(func() {
		segBytes, numSegs := ds.segments()
		itemSegs := make([][]int, ds.idx.Meta.NumItems)
		for _, rec := range ds.idx.Records {
			if rec.Enc != EncSparse {
				continue // an older build's spill: never read
			}
			segs := itemSegs[rec.Item]
			for _, p := range rec.parts() {
				lo := int(p.Offset / segBytes)
				hi := int((p.Offset + recordHeaderSize + paddedLen(p.Length) - 1) / segBytes)
				for s := lo; s <= hi && s < numSegs; s++ {
					segs = append(segs, s)
				}
			}
			itemSegs[rec.Item] = dedupSegs(segs)
		}
		ds.itemSegs = itemSegs
	})
	return ds.itemSegs
}

// dedupSegs sorts segs and drops duplicates in place.
func dedupSegs(segs []int) []int {
	sort.Ints(segs)
	out := segs[:0]
	for i, s := range segs {
		if i == 0 || s != segs[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// ItemSegment returns the first bundle segment holding any record of
// item, or -1 when the item has no stored record. This is the locality
// key the engine sorts class tasks by.
func (r *Residency) ItemSegment(item int) int {
	if item < 0 || item >= len(r.itemSegs) || len(r.itemSegs[item]) == 0 {
		return -1
	}
	return r.itemSegs[item][0]
}

// Plan registers the class → items map of the upcoming run and derives
// per-segment reference counts. Classes are addressed by index in later
// Acquire/Release calls. Plan resets any previous run's bookkeeping
// (resident segments are carried over — they are already paged in).
func (r *Residency) Plan(classes [][]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.classes = make([][]int, len(classes))
	r.refs = make([]int, len(r.refs))
	r.done = false
	for ci, items := range classes {
		var segs []int
		for _, it := range items {
			if it >= 0 && it < len(r.itemSegs) {
				segs = append(segs, r.itemSegs[it]...)
			}
		}
		segs = dedupSegs(segs)
		r.classes[ci] = segs
		for _, s := range segs {
			r.refs[s]++
		}
	}
}

// Acquire makes the segments of class ci resident, issuing a SEQUENTIAL
// hint the first time a segment is touched, then evicts the oldest
// resident segments the class does not need until the budget holds
// again. A single class needing more than the budget is allowed to
// overshoot — correctness never depends on the budget, only paging
// behavior does.
func (r *Residency) Acquire(ci int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ci < 0 || ci >= len(r.classes) {
		return
	}
	need := r.classes[ci]
	for _, s := range need {
		if !r.resident[s] {
			r.resident[s] = true
			r.order = append(r.order, s)
			r.inUse += r.segLen(s)
			storeSegsMap.Add(1)
		}
		if !r.touched[s] {
			r.touched[s] = true
			if adviseSequential(r.segPages(s)) {
				storeMadvise.Inc()
			}
		}
	}
	needed := make(map[int]bool, len(need))
	for _, s := range need {
		needed[s] = true
	}
	for i := 0; i < len(r.order) && r.inUse > r.budget; {
		s := r.order[i]
		if needed[s] {
			i++
			continue
		}
		r.evictLocked(s)
	}
}

// Release drops class ci's claims; segments no pending class needs are
// evicted immediately (the DONTNEED-after-class rule).
func (r *Residency) Release(ci int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ci < 0 || ci >= len(r.classes) {
		return
	}
	for _, s := range r.classes[ci] {
		if r.refs[s] > 0 {
			r.refs[s]--
		}
		if r.refs[s] == 0 && r.resident[s] {
			r.evictLocked(s)
		}
	}
	r.classes[ci] = nil
}

// Done evicts everything still resident and retires the run's gauge
// contribution. Idempotent; runs on every exit path of a budgeted mine,
// including error and cancellation.
func (r *Residency) Done() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return
	}
	r.done = true
	for _, s := range append([]int(nil), r.order...) {
		if r.resident[s] {
			r.evictLocked(s)
		}
	}
	r.classes = nil
}

// ResidentSegments returns how many segments are currently resident.
func (r *Residency) ResidentSegments() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ok := range r.resident {
		if ok {
			n++
		}
	}
	return n
}

// NumSegments returns how many segments the mined bytes divide into.
func (r *Residency) NumSegments() int { return len(r.resident) }

// SegmentBytes returns the residency granularity in bytes.
func (r *Residency) SegmentBytes() int64 { return r.segBytes }

// evictLocked drops segment s from residency and advises its pages away.
// Caller holds r.mu and has checked r.resident[s].
func (r *Residency) evictLocked(s int) {
	r.resident[s] = false
	r.touched[s] = false
	r.inUse -= r.segLen(s)
	for i, o := range r.order {
		if o == s {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	storeSegsMap.Add(-1)
	storeEvictions.Inc()
	if adviseDontNeed(r.segPages(s)) {
		storeMadvise.Inc()
	}
}

// segLen returns the byte length of segment s (the last segment may be
// short, and ends where the mined bytes do).
func (r *Residency) segLen(s int) int64 {
	lo := int64(s) * r.segBytes
	hi := lo + r.segBytes
	if m := r.ds.BytesMapped(); hi > m {
		hi = m
	}
	return hi - lo
}

// segPages returns the largest page-aligned sub-slice of the mapping
// inside segment s, the unit madvise accepts. The mapping base is
// page-aligned, so rounding the segment's byte offsets inward to page
// multiples yields page-aligned addresses without pointer arithmetic.
// Segments smaller than a page yield nil — no hint is possible without
// touching a neighbor's pages.
func (r *Residency) segPages(s int) []byte {
	lo := int64(s) * r.segBytes
	hi := lo + r.segBytes
	if m := r.ds.BytesMapped(); hi > m {
		hi = m
	}
	lo = (lo + r.pageSize - 1) / r.pageSize * r.pageSize
	hi = hi / r.pageSize * r.pageSize
	if hi <= lo {
		return nil
	}
	return r.ds.data[lo:hi]
}
