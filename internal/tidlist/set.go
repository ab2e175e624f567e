package tidlist

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/itemset"
	"repro/internal/obsv"
)

// Repr selects a tid-set representation. The zero value is ReprAuto: the
// adaptive policy prices each equivalence class's joins under each
// encoding, mirroring how the paper localizes all work to a class — the
// choice, too, needs no information beyond the class itself.
type Repr uint8

// The representations.
const (
	// ReprAuto picks sparse or a packed encoding per equivalence class
	// by the priced cost of its joins (see ChooseRepr).
	ReprAuto Repr = iota
	// ReprSparse is the paper's sorted []TID with the scalar merge loop.
	ReprSparse
	// ReprBitset is the word-packed dense bitset (64 TIDs per word,
	// AND + popcount intersection).
	ReprBitset
	// ReprRoaring is the containerized compressed bitset: 64K-tid
	// chunks holding array, bitmap or run containers, with kernels
	// dispatched per container pair.
	ReprRoaring
)

// ErrInvalidRepresentation reports an unknown representation name.
// ParseRepr errors wrap it, so every layer — Options validation, the
// CLI flag, the daemon's job field — can classify with errors.Is and
// map it to one client-facing failure (HTTP 400 on the daemon).
var ErrInvalidRepresentation = errors.New("tidlist: invalid representation")

// String names the representation as the -repr flag spells it.
func (r Repr) String() string {
	switch r {
	case ReprAuto:
		return "auto"
	case ReprSparse:
		return "sparse"
	case ReprBitset:
		return "bitset"
	case ReprRoaring:
		return "roaring"
	default:
		return fmt.Sprintf("Repr(%d)", uint8(r))
	}
}

// ParseRepr parses a representation name; "" means ReprAuto. Unknown
// names fail with an error wrapping ErrInvalidRepresentation.
func ParseRepr(s string) (Repr, error) {
	switch s {
	case "", "auto":
		return ReprAuto, nil
	case "sparse":
		return ReprSparse, nil
	case "bitset", "dense":
		return ReprBitset, nil
	case "roaring", "compressed":
		return ReprRoaring, nil
	default:
		return 0, fmt.Errorf("%w: %q (want auto, sparse, bitset or roaring)", ErrInvalidRepresentation, s)
	}
}

// RoaringSpanChunks is the tid-span (in 64K chunks) above which the
// adaptive policy prices the containerized representation instead of a
// flat bitset as a class's packed encoding: within a few chunks the two
// word kernels are equivalent and the flat bitset is simpler, but across
// a wide span the per-chunk trimming and key-merge chunk skipping pay for
// the container dispatch (the committed BENCH_kernels.json rows
// calibrate this).
const RoaringSpanChunks = 4

// Per-unit kernel costs the priced policy weighs, read off the
// short-circuit rows of BENCH_kernels.json (the regime class mining runs
// in): the merge kernel takes ~7.4–8.1 µs per 4,096 elements walked, the
// bitset kernel ~0.85 µs per 256 words and ~10.7 µs per 3,200 words.
const (
	costElemNS = 2.0 // per element the merge kernel walks
	costWordNS = 3.4 // per word a packed kernel touches
)

// ClassShape is what the priced policy reads off one equivalence class:
// its member count s, their average support σ and tid span, and how many
// members each encoding already holds.
type ClassShape struct {
	Members int
	Support int // average member support
	Span    int // TIDs from the smallest member TID to the largest
	// Sparse, Bitset and Roaring count the members already in each
	// encoding; any other member must be re-encoded to join it.
	Sparse, Bitset, Roaring int
}

// ChooseRepr resolves a representation for one class. An explicit
// request passes through. ReprAuto prices the class's C(s,2) joins —
// the weight the paper already schedules classes by (§5.2.1) — under
// the merge kernel, 2σ elements a join, and under the packed encoding
// the span selects (the flat bitset within RoaringSpanChunks chunks,
// roaring beyond), W = ⌈span/64⌉ words a join. Each side also pays
// about W+σ ns per member it must re-encode, so a class whose members
// already sit in one encoding stays there unless the other one's joins
// win the conversions back. Ties and empty classes stay sparse.
func ChooseRepr(r Repr, c ClassShape) Repr {
	if r != ReprAuto {
		return r
	}
	if c.Support <= 0 || c.Span <= 0 {
		return ReprSparse
	}
	packed, inPacked := ReprBitset, c.Bitset
	if c.Span > RoaringSpanChunks*chunkSize {
		packed, inPacked = ReprRoaring, c.Roaring
	}
	s, sigma := float64(c.Members), float64(c.Support)
	joins := s * (s - 1) / 2
	words := float64((c.Span + wordBits - 1) / wordBits)
	reencode := words + sigma
	sparseNS := joins*2*sigma*costElemNS + float64(c.Members-c.Sparse)*reencode
	packedNS := joins*words*costWordNS + float64(c.Members-inPacked)*reencode
	if packedNS < sparseNS {
		return packed
	}
	return ReprSparse
}

// Set is a tid-set under some representation. The mining recursion works
// exclusively through this interface plus the kernel dispatch functions
// (IntersectSets, IntersectSetsSC, DiffSets), so every eclat variant is
// representation-agnostic.
type Set interface {
	// Support returns the cardinality of the set.
	Support() int
	// SizeBytes returns the encoded size under this representation, the
	// figure the communication and disk cost models charge.
	SizeBytes() int64
	// Repr identifies the representation.
	Repr() Repr
	// AppendTIDs appends the members in increasing order to dst.
	AppendTIDs(dst List) List
}

// Interface conformance of the sparse representation (see tidlist.go for
// the List methods shared with the pre-abstraction API).
var (
	_ Set = List(nil)
	_ Set = (*Bitset)(nil)
	_ Set = (*Roaring)(nil)
)

// SparseList is the sorted-slice representation under its role name: the
// existing List type is the sparse concrete type of the Set abstraction.
type SparseList = List

// Repr identifies the sparse representation.
func (l List) Repr() Repr { return ReprSparse }

// AppendTIDs appends the members to dst (they are already sorted).
func (l List) AppendTIDs(dst List) List { return append(dst, l...) }

// TIDsOf materializes any set as a sorted tid-list without copying when
// it is already sparse.
func TIDsOf(s Set) List {
	if l, ok := s.(List); ok {
		return l
	}
	return s.AppendTIDs(make(List, 0, s.Support()))
}

// CloneSet returns an independent copy of s under the same
// representation, detaching it from any scratch storage.
func CloneSet(s Set) Set {
	switch v := s.(type) {
	case List:
		return v.Clone()
	case *Bitset:
		return v.Clone()
	case *Roaring:
		return v.Clone()
	default:
		return TIDsOf(s)
	}
}

// Convert re-encodes s under r (ReprAuto converts nothing). A set already
// in the requested representation is returned unchanged; real conversions
// are counted in ks. Toward sparse, the list TIDsOf builds is the result.
func Convert(s Set, r Repr, ks *KernelStats) Set {
	if r == ReprAuto || s.Repr() == r {
		return s
	}
	ks.conversions++
	switch r {
	case ReprBitset:
		return NewBitset(TIDsOf(s))
	case ReprRoaring:
		return NewRoaring(TIDsOf(s))
	default:
		return TIDsOf(s)
	}
}

// KernelStats accumulates kernel-dispatch counts for one mining run. The
// hot loop updates only this struct; Flush publishes deltas to the
// process metrics registry at class granularity, keeping atomics off the
// per-intersection path (same discipline as eclat's Stats).
type KernelStats struct {
	sparseIntersections  int64 // scalar merge-kernel dispatches
	denseIntersections   int64 // word-kernel dispatches
	mixedIntersections   int64 // sparse-probe-into-packed dispatches
	roaringIntersections int64 // containerized-kernel dispatches
	sparseOps            int64 // element comparisons by the merge kernel
	wordsTouched         int64 // 64-bit words visited by the dense kernel
	roaringElemOps       int64 // uint16 element / run-pair comparisons in containers
	roaringWords         int64 // 64-bit words touched by bitmap containers
	conversions          int64 // representation re-encodings
}

// SparseOps returns the element comparisons performed by sparse (and
// mixed) kernel dispatches — the unit the cluster model charges at
// OpIntersect cost.
func (k *KernelStats) SparseOps() int64 { return k.sparseOps }

// WordsTouched returns the words visited by dense kernel dispatches —
// the unit the cluster model charges at OpBitsetWord cost.
func (k *KernelStats) WordsTouched() int64 { return k.wordsTouched }

// Conversions returns the number of representation re-encodings.
func (k *KernelStats) Conversions() int64 { return k.conversions }

// DenseIntersections returns the number of word-kernel dispatches.
func (k *KernelStats) DenseIntersections() int64 { return k.denseIntersections }

// RoaringIntersections returns the number of containerized-kernel
// dispatches (roaring-roaring and roaring-bitset operand pairs).
func (k *KernelStats) RoaringIntersections() int64 { return k.roaringIntersections }

// RoaringElemOps returns the uint16 element and run-pair comparisons
// performed inside array and run containers — charged per-container at
// the cluster model's element-op cost.
func (k *KernelStats) RoaringElemOps() int64 { return k.roaringElemOps }

// RoaringWords returns the words touched inside bitmap containers —
// charged per-container at the cluster model's word-op cost.
func (k *KernelStats) RoaringWords() int64 { return k.roaringWords }

// Add accumulates other into k.
func (k *KernelStats) Add(other KernelStats) {
	k.sparseIntersections += other.sparseIntersections
	k.denseIntersections += other.denseIntersections
	k.mixedIntersections += other.mixedIntersections
	k.roaringIntersections += other.roaringIntersections
	k.sparseOps += other.sparseOps
	k.wordsTouched += other.wordsTouched
	k.roaringElemOps += other.roaringElemOps
	k.roaringWords += other.roaringWords
	k.conversions += other.conversions
}

// Kernel-dispatch metric names and metrics (see /metricsz).
const (
	mnSparseDispatch  = "tidlist_intersect_sparse_total"
	mnDenseDispatch   = "tidlist_intersect_dense_total"
	mnMixedDispatch   = "tidlist_intersect_mixed_total"
	mnRoaringDispatch = "tidlist_intersect_roaring_total"
	mnSparseOps       = "tidlist_sparse_ops_total"
	mnDenseWords      = "tidlist_dense_words_total"
	mnRoaringElemOps  = "tidlist_roaring_elem_ops_total"
	mnRoaringWords    = "tidlist_roaring_words_total"
	mnConversions     = "tidlist_conversions_total"
)

// Container-construction counter family: how many containers the
// roaring builder has produced, total and per shape. Published per set
// build (see Roaring.SetTIDs), never per chunk.
const (
	mnRoaringContainers       = "tidlist_roaring_containers_total"
	mnRoaringArrayContainers  = "tidlist_roaring_array_containers_total"
	mnRoaringBitmapContainers = "tidlist_roaring_bitmap_containers_total"
	mnRoaringRunContainers    = "tidlist_roaring_run_containers_total"
)

var (
	mSparseDispatch  = obsv.Default.Counter(mnSparseDispatch, "tid-set intersections dispatched to the sparse merge kernel")
	mDenseDispatch   = obsv.Default.Counter(mnDenseDispatch, "tid-set intersections dispatched to the dense word kernel")
	mMixedDispatch   = obsv.Default.Counter(mnMixedDispatch, "tid-set intersections dispatched to the mixed sparse-probe kernel")
	mRoaringDispatch = obsv.Default.Counter(mnRoaringDispatch, "tid-set intersections dispatched to the containerized roaring kernel")
	mSparseOps       = obsv.Default.Counter(mnSparseOps, "element comparisons performed by the sparse merge kernel")
	mDenseWords      = obsv.Default.Counter(mnDenseWords, "64-bit words touched by the dense kernel")
	mRoaringElemOps  = obsv.Default.Counter(mnRoaringElemOps, "uint16 element and run-pair comparisons inside roaring containers")
	mRoaringWords    = obsv.Default.Counter(mnRoaringWords, "64-bit words touched inside roaring bitmap containers")
	mConversions     = obsv.Default.Counter(mnConversions, "tid-set representation re-encodings")

	mRoaringContainers       = obsv.Default.Counter(mnRoaringContainers, "roaring containers built, all shapes")
	mRoaringArrayContainers  = obsv.Default.Counter(mnRoaringArrayContainers, "roaring array containers built")
	mRoaringBitmapContainers = obsv.Default.Counter(mnRoaringBitmapContainers, "roaring bitmap containers built")
	mRoaringRunContainers    = obsv.Default.Counter(mnRoaringRunContainers, "roaring run containers built")
)

// publishContainerCounts flushes one build's per-shape container tally,
// indexed by container kind.
func publishContainerCounts(built [3]int64) {
	total := built[ctArray] + built[ctBitmap] + built[ctRun]
	if total == 0 {
		return
	}
	mRoaringContainers.Add(total)
	mRoaringArrayContainers.Add(built[ctArray])
	mRoaringBitmapContainers.Add(built[ctBitmap])
	mRoaringRunContainers.Add(built[ctRun])
}

// Flush publishes the delta between prev and k to the process metrics
// registry and copies k into prev.
func (k *KernelStats) Flush(prev *KernelStats) {
	mSparseDispatch.Add(k.sparseIntersections - prev.sparseIntersections)
	mDenseDispatch.Add(k.denseIntersections - prev.denseIntersections)
	mMixedDispatch.Add(k.mixedIntersections - prev.mixedIntersections)
	mRoaringDispatch.Add(k.roaringIntersections - prev.roaringIntersections)
	mSparseOps.Add(k.sparseOps - prev.sparseOps)
	mDenseWords.Add(k.wordsTouched - prev.wordsTouched)
	mRoaringElemOps.Add(k.roaringElemOps - prev.roaringElemOps)
	mRoaringWords.Add(k.roaringWords - prev.roaringWords)
	mConversions.Add(k.conversions - prev.conversions)
	*prev = *k
}

// IntersectSets intersects a and b through the representation-dispatched
// kernel, reusing scratch (a Set previously returned by a kernel in this
// package, or nil) for the result's storage. It returns the result and
// the kernel operations performed (element comparisons for the sparse
// and mixed kernels, words touched for the dense kernel).
func IntersectSets(scratch Set, a, b Set, ks *KernelStats) (Set, int) {
	switch x := a.(type) {
	case List:
		switch y := b.(type) {
		case List:
			ks.sparseIntersections++
			out := IntersectInto(sparseScratch(scratch, min(len(x), len(y))), x, y)
			ops := len(x) + len(y)
			ks.sparseOps += int64(ops)
			return out, ops
		case *Bitset:
			return probeIntersect(scratch, x, y, ks)
		case *Roaring:
			return probeIntersectRoaring(scratch, x, y, ks)
		}
	case *Bitset:
		switch y := b.(type) {
		case List:
			return probeIntersect(scratch, y, x, ks)
		case *Bitset:
			ks.denseIntersections++
			out, words := intersectBitset(bitsetScratch(scratch), x, y)
			ks.wordsTouched += int64(words)
			return out, words
		case *Roaring:
			ks.roaringIntersections++
			return intersectRoaringBitset(roaringScratch(scratch), y, x, ks)
		}
	case *Roaring:
		switch y := b.(type) {
		case List:
			return probeIntersectRoaring(scratch, y, x, ks)
		case *Bitset:
			ks.roaringIntersections++
			return intersectRoaringBitset(roaringScratch(scratch), x, y, ks)
		case *Roaring:
			ks.roaringIntersections++
			return intersectRoaring(roaringScratch(scratch), x, y, ks)
		}
	}
	return intersectGeneric(a, b, ks)
}

// IntersectSetsSC is IntersectSets with the minimum-support short circuit
// (section 5.3). When ok is false the returned set is an unusable partial
// prefix retained only so callers can reuse its storage — the same
// contract as IntersectShortCircuit, now enforced across every kernel.
// ops is reported even on a mid-scan abort, so work accounting stays
// exact for short-circuited intersections.
func IntersectSetsSC(scratch Set, a, b Set, minsup int, ks *KernelStats) (result Set, ops int, ok bool) {
	switch x := a.(type) {
	case List:
		switch y := b.(type) {
		case List:
			ks.sparseIntersections++
			out, ops, ok := IntersectShortCircuit(sparseScratch(scratch, min(len(x), len(y))), x, y, minsup)
			ks.sparseOps += int64(ops)
			return out, ops, ok
		case *Bitset:
			return probeIntersectSC(scratch, x, y, minsup, ks)
		case *Roaring:
			return probeIntersectRoaringSC(scratch, x, y, minsup, ks)
		}
	case *Bitset:
		switch y := b.(type) {
		case List:
			return probeIntersectSC(scratch, y, x, minsup, ks)
		case *Bitset:
			ks.denseIntersections++
			out, words, ok := intersectBitsetSC(bitsetScratch(scratch), x, y, minsup)
			ks.wordsTouched += int64(words)
			return out, words, ok
		case *Roaring:
			ks.roaringIntersections++
			return intersectRoaringBitsetSC(roaringScratch(scratch), y, x, minsup, ks)
		}
	case *Roaring:
		switch y := b.(type) {
		case List:
			return probeIntersectRoaringSC(scratch, y, x, minsup, ks)
		case *Bitset:
			ks.roaringIntersections++
			return intersectRoaringBitsetSC(roaringScratch(scratch), x, y, minsup, ks)
		case *Roaring:
			ks.roaringIntersections++
			return intersectRoaringSC(roaringScratch(scratch), x, y, minsup, ks)
		}
	}
	out, ops := intersectGeneric(a, b, ks)
	return out, ops, out.Support() >= minsup
}

// DiffSets computes a \ b through the representation-dispatched kernel
// (AND NOT for dense operands), reusing scratch like IntersectSets.
func DiffSets(scratch Set, a, b Set, ks *KernelStats) (Set, int) {
	switch x := a.(type) {
	case List:
		switch y := b.(type) {
		case List:
			ks.sparseIntersections++
			out := DiffInto(sparseScratch(scratch, len(x)), x, y)
			ops := len(x) + len(y)
			ks.sparseOps += int64(ops)
			return out, ops
		case *Bitset:
			// Keep the elements of x that y does not contain: one O(1)
			// probe per element.
			ks.mixedIntersections++
			dst := sparseScratch(scratch, len(x))
			for _, t := range x {
				if !y.Contains(t) {
					dst = append(dst, t)
				}
			}
			ks.sparseOps += int64(len(x))
			return dst, len(x)
		case *Roaring:
			// Keep the elements of x outside y, walking y's chunks in
			// step with the sorted probes.
			ks.mixedIntersections++
			dst := sparseScratch(scratch, len(x))
			ci := 0
			for _, t := range x {
				k := chunkKey(t)
				for ci < len(y.keys) && y.keys[ci] < k {
					ci++
				}
				if ci >= len(y.keys) || y.keys[ci] != k || !containerContains(&y.ctrs[ci], chunkLow(t)) {
					dst = append(dst, t)
				}
			}
			ks.sparseOps += int64(len(x))
			return dst, len(x)
		}
	case *Bitset:
		switch y := b.(type) {
		case *Bitset:
			ks.denseIntersections++
			out, words := diffBitset(bitsetScratch(scratch), x, y)
			ks.wordsTouched += int64(words)
			return out, words
		case List:
			// Clear each element of y out of a copy of x.
			ks.mixedIntersections++
			dst := bitsetScratch(scratch)
			n := len(x.words)
			dst = reuseWords(dst, n)
			dst.base = x.base
			copy(dst.words, x.words)
			dst.count = x.count
			for _, t := range y {
				if dst.Contains(t) {
					off := t - dst.base
					dst.words[off/wordBits] &^= 1 << (uint(off) % wordBits)
					dst.count--
				}
			}
			dst.trim()
			ks.sparseOps += int64(len(y))
			return dst, len(y)
		case *Roaring:
			return diffBitsetRoaring(bitsetScratch(scratch), x, y, ks)
		}
	case *Roaring:
		switch y := b.(type) {
		case *Roaring:
			ks.roaringIntersections++
			return diffRoaring(roaringScratch(scratch), x, y, ks)
		case *Bitset:
			ks.roaringIntersections++
			return diffRoaringBitset(roaringScratch(scratch), x, y, ks)
		case List:
			ks.roaringIntersections++
			return diffRoaringList(roaringScratch(scratch), x, y, ks)
		}
	}
	a2, b2 := TIDsOf(a), TIDsOf(b)
	ks.sparseIntersections++
	ops := len(a2) + len(b2)
	ks.sparseOps += int64(ops)
	return DiffInto(sparseScratch(scratch, len(a2)), a2, b2), ops
}

// probeIntersect intersects a sparse list with a bitset by probing each
// element — O(len(sparse)) with O(1) membership tests; the result is
// sparse (it is no larger than the sparse operand).
func probeIntersect(scratch Set, sparse List, dense *Bitset, ks *KernelStats) (Set, int) {
	ks.mixedIntersections++
	dst := sparseScratch(scratch, len(sparse))
	for _, t := range sparse {
		if dense.Contains(t) {
			dst = append(dst, t)
		}
	}
	ks.sparseOps += int64(len(sparse))
	return dst, len(sparse)
}

// probeIntersectSC is probeIntersect with the support bound: after m
// misses the result is bounded by len(sparse) - m.
func probeIntersectSC(scratch Set, sparse List, dense *Bitset, minsup int, ks *KernelStats) (Set, int, bool) {
	ks.mixedIntersections++
	dst := sparseScratch(scratch, len(sparse))
	if min(len(sparse), dense.Support()) < minsup {
		return dst, 0, false
	}
	ops := 0
	for i, t := range sparse {
		ops++
		if dense.Contains(t) {
			dst = append(dst, t)
		}
		if len(dst)+(len(sparse)-1-i) < minsup {
			ks.sparseOps += int64(ops)
			return dst, ops, false
		}
	}
	ks.sparseOps += int64(ops)
	return dst, ops, len(dst) >= minsup
}

// intersectGeneric handles Set implementations outside this package by
// materializing both sides (slow path; none exist in-repo).
func intersectGeneric(a, b Set, ks *KernelStats) (Set, int) {
	x, y := TIDsOf(a), TIDsOf(b)
	ks.sparseIntersections++
	ops := len(x) + len(y)
	ks.sparseOps += int64(ops)
	return Intersect(x, y), ops
}

// sparseScratch recovers a List scratch buffer from a previously returned
// Set (or allocates one with the given capacity hint).
func sparseScratch(scratch Set, capHint int) List {
	if l, ok := scratch.(List); ok {
		return l[:0]
	}
	return make(List, 0, capHint)
}

// bitsetScratch recovers a *Bitset scratch from a previously returned Set
// (or nil, letting the kernel allocate).
func bitsetScratch(scratch Set) *Bitset {
	if b, ok := scratch.(*Bitset); ok {
		return b
	}
	return nil
}

// Bounds returns the smallest and largest TID of s; ok is false when the
// set is empty. The adaptive policy uses it to measure a class's tid span
// without materializing anything.
func Bounds(s Set) (lo, hi itemset.TID, ok bool) {
	switch v := s.(type) {
	case List:
		if len(v) == 0 {
			return 0, 0, false
		}
		return v[0], v[len(v)-1], true
	case *Bitset:
		if len(v.words) == 0 {
			return 0, 0, false
		}
		// trim keeps the first and last words nonzero.
		lo = v.base + itemset.TID(bits.TrailingZeros64(v.words[0]))
		last := len(v.words) - 1
		hi = v.base + itemset.TID(last*wordBits+63-bits.LeadingZeros64(v.words[last]))
		return lo, hi, true
	case *Roaring:
		if len(v.keys) == 0 {
			return 0, 0, false
		}
		last := len(v.keys) - 1
		lo = chunkTID(v.keys[0], containerMin(&v.ctrs[0]))
		hi = chunkTID(v.keys[last], containerMax(&v.ctrs[last]))
		return lo, hi, true
	default:
		l := TIDsOf(s)
		if len(l) == 0 {
			return 0, 0, false
		}
		return l[0], l[len(l)-1], true
	}
}

// HashTIDs returns the order-independent tid-sum hash used by the closed
// set accumulators, computed without materializing dense sets.
func HashTIDs(s Set) int64 {
	switch v := s.(type) {
	case List:
		var h int64
		for _, t := range v {
			h += int64(t)
		}
		return h
	case *Bitset:
		var h int64
		for wi, w := range v.words {
			base := v.base + itemset.TID(wi*wordBits)
			for w != 0 {
				h += int64(base) + int64(bits.TrailingZeros64(w))
				w &= w - 1
			}
		}
		return h
	case *Roaring:
		var h int64
		for i, key := range v.keys {
			h += containerHashSum(key, &v.ctrs[i])
		}
		return h
	default:
		var h int64
		for _, t := range TIDsOf(s) {
			h += int64(t)
		}
		return h
	}
}

// EncodedSize returns the wire/disk size of a tid-list under r, and the
// concrete representation chosen (ReprAuto picks the smaller encoding —
// the transformation phase ships each list in whichever encoding is
// cheaper, exactly like the true byte size the cluster model charges).
func EncodedSize(l List, r Repr) (int64, Repr) {
	sparse := l.SizeBytes()
	switch r {
	case ReprSparse:
		return sparse, ReprSparse
	case ReprBitset:
		return denseSizeBytes(l), ReprBitset
	case ReprRoaring:
		return roaringEncodedSize(l), ReprRoaring
	}
	best, repr := sparse, ReprSparse
	if dense := denseSizeBytes(l); dense < best {
		best, repr = dense, ReprBitset
	}
	if roaring := roaringEncodedSize(l); roaring < best {
		best, repr = roaring, ReprRoaring
	}
	return best, repr
}

// denseSizeBytes is the Bitset SizeBytes l would have, computed without
// building it.
func denseSizeBytes(l List) int64 {
	if len(l) == 0 {
		return 0
	}
	words := int64(l[len(l)-1]/wordBits-l[0]/wordBits) + 1
	return 8 + 8*words
}
