package tidlist

import (
	"math/bits"

	"repro/internal/itemset"
)

// Roaring is the compressed tid-set representation: tid space is
// partitioned into 64K-tid chunks keyed by the high 16 bits, and each
// occupied chunk stores its low 16 bits in whichever container shape
// chunkShape picks for that chunk — a sorted uint16 array or a trimmed
// word-packed bitmap. Kernels dispatch per container pair, so a
// set that is dense in one region and scattered in another pays the
// dense word cost only where the words are actually populated; this is
// the containerized layout the many-core and supercomputer FIM studies
// identify as the scalable successor to flat bitsets.
//
// Like List and Bitset, a Roaring is value-mutated only by the kernels
// in this package; everywhere else it is immutable. Aborted
// short-circuit results are unusable partial prefixes, valid only as
// scratch — the same §5.3 contract the other kernels enforce.
type Roaring struct {
	keys  []uint16    // sorted chunk keys (tid >> 16), parallel to ctrs
	ctrs  []container // one per occupied chunk
	count int         // cached total cardinality

	// probe is kernel scratch for array×array intersections (see
	// andArrayArrayProbe): one bit per tid of a 64K chunk, all-zero
	// between kernel calls. It is not part of the set value — clones
	// and the wire encoding ignore it — and lives on the result shell
	// so concurrent workers reusing distinct scratch sets never share
	// it.
	probe []uint64
}

// Container kinds. Construction picks per chunk (see buildContainer);
// kernels produce whatever kind the operation dictates without a
// re-optimization pass, since kernel results are short-lived class
// intermediates.
const (
	ctArray  = uint8(0) // sorted low-16 members in elems
	ctBitmap = uint8(1) // trimmed words covering chunk words [wlo, wlo+len(words))
)

// chunkBits / chunkSize describe the 64K-tid partition; chunkWords is
// the word span of one full chunk.
const (
	chunkBits  = 16
	chunkSize  = 1 << chunkBits
	chunkWords = chunkSize / wordBits
)

// container holds the low 16 bits of one chunk's members: elems is
// array storage, words is bitmap storage trimmed to the populated word
// window.
type container struct {
	kind  uint8
	card  int32    // cached cardinality of this chunk
	wlo   int32    // bitmap only: chunk word index of words[0]
	elems []uint16 // array members
	words []uint64 // bitmap words
}

func chunkKey(t itemset.TID) uint16 { return uint16(uint32(t) >> chunkBits) }
func chunkLow(t itemset.TID) uint16 { return uint16(uint32(t)) }
func chunkTID(key, low uint16) itemset.TID {
	return itemset.TID(uint32(key)<<chunkBits | uint32(low))
}

// NewRoaring packs a sorted tid-list into containers, choosing each
// chunk's shape by chunkShape.
func NewRoaring(l List) *Roaring {
	r := &Roaring{}
	r.SetTIDs(l)
	return r
}

// SetTIDs repacks r to hold exactly the tids of l, reusing container
// storage where capacities allow. Container-kind metrics are published
// once per build, not per chunk, keeping atomics off the inner loop.
func (r *Roaring) SetTIDs(l List) {
	r.keys = r.keys[:0]
	ctrs := r.ctrs
	r.ctrs = r.ctrs[:0]
	r.count = len(l)
	var built [2]int64
	var lows []uint16
	flush := func(key uint16) {
		if len(lows) == 0 {
			return
		}
		var c container
		if len(r.ctrs) < len(ctrs) {
			c = ctrs[len(r.ctrs)] // reuse prior storage
		}
		buildContainer(&c, lows)
		built[c.kind]++
		r.keys = append(r.keys, key)
		r.ctrs = append(r.ctrs, c)
		lows = lows[:0]
	}
	cur := uint16(0)
	for _, t := range l {
		if k := chunkKey(t); k != cur {
			flush(cur)
			cur = k
		}
		lows = append(lows, chunkLow(t))
	}
	flush(cur)
	publishContainerCounts(built)
}

// chunkShape is the shape rule buildContainer builds by and
// roaringEncodedSize prices by, so a built set and its priced size
// agree. A chunk of card distinct members whose lows lie in [lo, hi]
// occupies a window of w words; it is a trimmed bitmap over that window
// once the window holds at least one member per two words (w <= 2·card,
// the point where the word kernel overtakes the uint16 merge), and a
// sorted array otherwise.
func chunkShape(card int, lo, hi uint16) (kind uint8, w int) {
	w = int(hi)/wordBits - int(lo)/wordBits + 1
	if w <= 2*card {
		return ctBitmap, w
	}
	return ctArray, w
}

// buildContainer encodes sorted distinct lows into c, reusing c's
// storage.
func buildContainer(c *container, lows []uint16) {
	kind, w := chunkShape(len(lows), lows[0], lows[len(lows)-1])
	if kind == ctArray {
		c.setArray()
		c.elems = append(c.elems, lows...)
	} else {
		c.setBitmap(int(lows[0])/wordBits, w, true)
		for _, v := range lows {
			c.words[int(v)/wordBits-int(c.wlo)] |= 1 << (v % wordBits)
		}
	}
	c.card = int32(len(lows))
}

// Support returns the cardinality (cached; O(1)).
func (r *Roaring) Support() int { return r.count }

// The containerized size model:
//
//	header      8 bytes   count, number of containers
//	descriptors 8 bytes   per container: key, kind, shape
//	payloads              in key order, each padded to 8 bytes
//
// A payload holds 2 bytes per array member and 8 per bitmap word.
// Nothing is written in this layout: it prices a roaring set for the
// simulated cluster's communication and disk cost models and for
// EncodedSize's choice.
const (
	roaringPayloadHeader = 8
	roaringDescSize      = int64(8)
)

// containerPayloadLen returns the unpadded payload byte length of c.
func containerPayloadLen(c *container) int {
	if c.kind == ctBitmap {
		return 8 * len(c.words)
	}
	return 2 * len(c.elems)
}

// paddedPayloadLen rounds a payload length up to the 8-byte boundary
// that keeps the next payload aligned.
func paddedPayloadLen(n int) int64 {
	return int64(n+7) &^ 7
}

// SizeBytes returns the encoded size of the containerized
// representation under the size model above, the figure the
// communication and disk cost models charge.
func (r *Roaring) SizeBytes() int64 {
	if len(r.ctrs) == 0 {
		return 0
	}
	n := int64(roaringPayloadHeader) + roaringDescSize*int64(len(r.ctrs))
	for i := range r.ctrs {
		n += paddedPayloadLen(containerPayloadLen(&r.ctrs[i]))
	}
	return n
}

// Repr identifies the representation.
func (r *Roaring) Repr() Repr { return ReprRoaring }

// AppendTIDs appends the members in increasing order to dst.
func (r *Roaring) AppendTIDs(dst List) List {
	for i, key := range r.keys {
		dst = appendContainerTIDs(dst, key, &r.ctrs[i])
	}
	return dst
}

func appendContainerTIDs(dst List, key uint16, c *container) List {
	if c.kind == ctArray {
		for _, v := range c.elems {
			dst = append(dst, chunkTID(key, v))
		}
		return dst
	}
	for wi, w := range c.words {
		base := chunkTID(key, 0) + itemset.TID((int(c.wlo)+wi)*wordBits)
		for w != 0 {
			dst = append(dst, base+itemset.TID(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// TIDs materializes the set as a sorted tid-list.
func (r *Roaring) TIDs() List { return r.AppendTIDs(make(List, 0, r.count)) }

// Contains reports whether t is a member.
func (r *Roaring) Contains(t itemset.TID) bool {
	i := findKey(r.keys, chunkKey(t))
	if i < 0 {
		return false
	}
	return containerContains(&r.ctrs[i], chunkLow(t))
}

// findKey locates key in the sorted keys slice (binary search), or -1.
func findKey(keys []uint16, key uint16) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(keys) && keys[lo] == key {
		return lo
	}
	return -1
}

func containerContains(c *container, low uint16) bool {
	if c.kind == ctBitmap {
		wi := int(low)/wordBits - int(c.wlo)
		if wi < 0 || wi >= len(c.words) {
			return false
		}
		return c.words[wi]&(1<<(low%wordBits)) != 0
	}
	lo, hi := 0, len(c.elems)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.elems[mid] < low {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(c.elems) && c.elems[lo] == low
}

// containerMin returns the smallest low-16 member of a non-empty
// container.
func containerMin(c *container) uint16 {
	if c.kind == ctBitmap {
		return uint16(int(c.wlo)*wordBits + bits.TrailingZeros64(c.words[0]))
	}
	return c.elems[0]
}

// containerMax returns the largest low-16 member of a non-empty
// container.
func containerMax(c *container) uint16 {
	if c.kind == ctBitmap {
		last := len(c.words) - 1
		return uint16((int(c.wlo)+last)*wordBits + 63 - bits.LeadingZeros64(c.words[last]))
	}
	return c.elems[len(c.elems)-1]
}

// roaringEncodedSize computes the modelled size l would have under
// ReprRoaring without building the containers: one pass tracking each
// chunk's cardinality and lowest and highest member, priced by
// chunkShape.
func roaringEncodedSize(l List) int64 {
	if len(l) == 0 {
		return 0
	}
	var n, ctrs int64
	var card int
	var first, prev uint16
	cur := chunkKey(l[0])
	flush := func() {
		payload := 2 * card
		if kind, w := chunkShape(card, first, prev); kind == ctBitmap {
			payload = 8 * w
		}
		n += paddedPayloadLen(payload)
		ctrs++
	}
	for i, t := range l {
		k, low := chunkKey(t), chunkLow(t)
		if i == 0 || k != cur {
			if i > 0 {
				flush()
			}
			cur, first, card = k, low, 0
		}
		card++
		prev = low
	}
	flush()
	return int64(roaringPayloadHeader) + roaringDescSize*ctrs + n
}

// Clone returns an independent copy of r.
func (r *Roaring) Clone() *Roaring {
	out := &Roaring{
		keys:  append([]uint16(nil), r.keys...),
		ctrs:  make([]container, len(r.ctrs)),
		count: r.count,
	}
	for i := range r.ctrs {
		c := &r.ctrs[i]
		out.ctrs[i] = container{
			kind:  c.kind,
			card:  c.card,
			wlo:   c.wlo,
			elems: append([]uint16(nil), c.elems...),
			words: append([]uint64(nil), c.words...),
		}
	}
	return out
}

// reuseRoaring returns a result shell reusing dst's container storage
// (dst may be nil). Containers keep their allocated elems/words
// capacity across reuse, which is what keeps the hot kernel loops
// allocation-free once warm.
func reuseRoaring(dst *Roaring) *Roaring {
	if dst == nil {
		dst = &Roaring{}
	}
	dst.keys = dst.keys[:0]
	dst.count = 0
	return dst
}

// nextCtr grows dst.ctrs by one reused container slot and returns it.
func (r *Roaring) nextCtr() *container {
	if len(r.ctrs) < cap(r.ctrs) {
		r.ctrs = r.ctrs[:len(r.ctrs)+1]
	} else {
		r.ctrs = append(r.ctrs, container{})
	}
	return &r.ctrs[len(r.ctrs)-1]
}

// commitCtr accepts the container just filled in by a kernel if it is
// non-empty, recording its chunk key; empty results return the slot to
// the pool so its storage is reused by the next chunk.
func (r *Roaring) commitCtr(key uint16) {
	c := &r.ctrs[len(r.ctrs)-1]
	if c.card == 0 {
		r.ctrs = r.ctrs[:len(r.ctrs)-1]
		return
	}
	r.keys = append(r.keys, key)
	r.count += int(c.card)
}

// probeWords is the length of the probe scratch: one bit per tid of a
// 64K chunk.
const probeWords = chunkSize / wordBits

// probeMergeMin is the combined operand size above which the array
// intersection switches from the two-pointer merge to the probe bitmap;
// below it the merge's smaller footprint wins.
const probeMergeMin = 64

// probeBits returns the lazily allocated, all-zero probe scratch.
func (r *Roaring) probeBits() []uint64 {
	if r.probe == nil {
		r.probe = make([]uint64, probeWords)
	}
	return r.probe
}

// roaringScratch recovers a *Roaring scratch from a previously returned
// Set (or nil, letting the kernel allocate).
func roaringScratch(scratch Set) *Roaring {
	if r, ok := scratch.(*Roaring); ok {
		return r
	}
	return nil
}

// intersectRoaring intersects a and b into dst (reused, may be nil),
// returning the result and the container kernel operations performed:
// uint16 comparisons for array pairs, words touched for bitmaps. Chunks
// present on only one side cost nothing — the key merge skips them,
// which is where the containerized layout beats a flat bitset on
// clustered tid distributions.
func intersectRoaring(dst, a, b *Roaring, ks *KernelStats) (*Roaring, int) {
	dst = reuseRoaring(dst)
	dst.ctrs = dst.ctrs[:0]
	ops := 0
	i, j := 0, 0
	for i < len(a.keys) && j < len(b.keys) {
		switch {
		case a.keys[i] < b.keys[j]:
			i++
		case a.keys[i] > b.keys[j]:
			j++
		default:
			ops += dst.ctrAnd(dst.nextCtr(), &a.ctrs[i], &b.ctrs[j], ks)
			dst.commitCtr(a.keys[i])
			i++
			j++
		}
	}
	return dst, ops
}

// intersectRoaringSC is intersectRoaring with the §5.3 short circuit at
// container granularity: after each chunk the result can gain at most
// the remaining cardinality of either operand, and the scan aborts once
// even that bound cannot reach minsup. On abort the returned set is an
// unusable partial prefix retained only for storage reuse, and ok is
// false; ops is reported either way.
func intersectRoaringSC(dst, a, b *Roaring, minsup int, ks *KernelStats) (result *Roaring, ops int, ok bool) {
	if min(a.count, b.count) < minsup {
		return reuseRoaring(dst), 0, false
	}
	dst = reuseRoaring(dst)
	dst.ctrs = dst.ctrs[:0]
	remA, remB := a.count, b.count
	i, j := 0, 0
	for i < len(a.keys) && j < len(b.keys) {
		switch {
		case a.keys[i] < b.keys[j]:
			remA -= int(a.ctrs[i].card)
			i++
		case a.keys[i] > b.keys[j]:
			remB -= int(b.ctrs[j].card)
			j++
		default:
			ops += dst.ctrAnd(dst.nextCtr(), &a.ctrs[i], &b.ctrs[j], ks)
			dst.commitCtr(a.keys[i])
			remA -= int(a.ctrs[i].card)
			remB -= int(b.ctrs[j].card)
			i++
			j++
			// Remaining matches are bounded by the unconsumed
			// cardinality of either operand.
			if dst.count+min(remA, remB) < minsup {
				return dst, ops, false
			}
		}
	}
	return dst, ops, dst.count >= minsup
}

// diffRoaring computes a \ b into dst (reused, may be nil). Chunks of a
// with no matching chunk in b are copied whole.
func diffRoaring(dst, a, b *Roaring, ks *KernelStats) (*Roaring, int) {
	dst = reuseRoaring(dst)
	dst.ctrs = dst.ctrs[:0]
	ops := 0
	j := 0
	for i, key := range a.keys {
		for j < len(b.keys) && b.keys[j] < key {
			j++
		}
		if j < len(b.keys) && b.keys[j] == key {
			ops += ctrAndNot(dst.nextCtr(), &a.ctrs[i], &b.ctrs[j], ks)
		} else {
			ops += ctrCopy(dst.nextCtr(), &a.ctrs[i], ks)
		}
		dst.commitCtr(key)
	}
	return dst, ops
}

// ctrCopy copies src into dst, reusing dst's storage.
func ctrCopy(dst, src *container, ks *KernelStats) int {
	dst.kind, dst.card, dst.wlo = src.kind, src.card, src.wlo
	dst.elems = append(dst.elems[:0], src.elems...)
	if cap(dst.words) < len(src.words) {
		dst.words = make([]uint64, len(src.words))
	} else {
		dst.words = dst.words[:len(src.words)]
	}
	copy(dst.words, src.words)
	if src.kind == ctBitmap {
		ks.roaringWords += int64(len(src.words))
		return len(src.words)
	}
	ks.roaringElemOps += int64(len(src.elems))
	return len(src.elems)
}

// setArray initializes dst as an empty array container ready to append.
func (c *container) setArray() {
	c.kind, c.card, c.wlo = ctArray, 0, 0
	c.elems = c.elems[:0]
	c.words = c.words[:0]
}

// setBitmap initializes dst as a bitmap container spanning chunk words
// [wlo, wlo+n), zeroed when zero is set.
func (c *container) setBitmap(wlo, n int, zero bool) {
	c.kind, c.card, c.wlo = ctBitmap, 0, int32(wlo)
	c.elems = c.elems[:0]
	if cap(c.words) < n {
		c.words = make([]uint64, n)
	} else {
		c.words = c.words[:n]
		if zero {
			clear(c.words)
		}
	}
}

// trimBitmap drops leading and trailing zero words of a bitmap result,
// adjusting wlo, and recomputes nothing else (card is maintained by the
// kernels). An empty bitmap container keeps card 0 and is discarded by
// commitCtr.
func (c *container) trimBitmap() {
	lo := 0
	for lo < len(c.words) && c.words[lo] == 0 {
		lo++
	}
	hi := len(c.words)
	for hi > lo && c.words[hi-1] == 0 {
		hi--
	}
	if lo == hi {
		c.words = c.words[:0]
		c.wlo = 0
		return
	}
	if lo > 0 {
		copy(c.words, c.words[lo:hi])
		c.wlo += int32(lo)
	}
	c.words = c.words[:hi-lo]
}

// ctrAnd intersects two containers into dst (reusing dst's storage) and
// returns the operations performed, recorded in ks by unit: uint16
// element comparisons in roaringElemOps, words touched in roaringWords.
// The receiver is the result shell, supplying the probe scratch for
// large array pairs.
func (r *Roaring) ctrAnd(dst, a, b *container, ks *KernelStats) int {
	// Normalize so the pair switch below needs only the upper triangle.
	if a.kind > b.kind {
		a, b = b, a
	}
	switch {
	case b.kind == ctArray: // array x array
		dst.setArray()
		var ops int
		if len(a.elems)+len(b.elems) >= probeMergeMin {
			ops = andArrayArrayProbe(dst, r.probeBits(), a.elems, b.elems)
		} else {
			ops = andArrayArray(dst, a.elems, b.elems)
		}
		ks.roaringElemOps += int64(ops)
		return ops
	case a.kind == ctArray: // array x bitmap
		dst.setArray()
		out := dst.elems
		for _, v := range a.elems {
			wi := int(v)/wordBits - int(b.wlo)
			if wi >= 0 && wi < len(b.words) && b.words[wi]&(1<<(v%wordBits)) != 0 {
				out = append(out, v)
			}
		}
		dst.elems = out
		dst.card = int32(len(out))
		ks.roaringElemOps += int64(len(a.elems))
		return len(a.elems)
	default: // bitmap x bitmap
		ops := andBitmapBitmap(dst, a, b)
		ks.roaringWords += int64(ops)
		return ops
	}
}

// andArrayArray merges two sorted uint16 arrays into dst. The output
// accumulates in a local so the merge loop keeps the slice header in
// registers instead of reloading it through dst every append — the
// detail that keeps the uint16 merge at parity with the flat sparse
// kernel's int32 loop.
func andArrayArray(dst *container, a, b []uint16) int {
	out := dst.elems
	la, lb := len(a), len(b)
	i, j := 0, 0
	for i < la && j < lb {
		va, vb := a[i], b[j]
		switch {
		case va < vb:
			i++
		case va > vb:
			j++
		default:
			out = append(out, va)
			i++
			j++
		}
	}
	dst.elems = out
	dst.card = int32(len(out))
	return la + lb
}

// andArrayArrayProbe intersects two sorted uint16 arrays through a
// chunk-wide probe bitmap: mark the smaller operand's bits, probe with
// the larger in order (so the output stays sorted), then zero the
// marked words. Every step is an independent load or store, so the CPU
// overlaps them several wide — unlike the two-pointer merge, which
// serializes on its compare-advance dependency. That instruction-level
// parallelism is what lets array containers beat the flat int32 merge
// at very low densities despite the extra pass. The probe slice must be
// all-zero on entry and is restored to all-zero before returning.
func andArrayArrayProbe(dst *container, probe []uint64, a, b []uint16) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	for _, v := range a {
		probe[v>>6] |= 1 << (v & 63)
	}
	out := dst.elems
	for _, v := range b {
		if probe[v>>6]&(1<<(v&63)) != 0 {
			out = append(out, v)
		}
	}
	for _, v := range a {
		probe[v>>6] = 0
	}
	dst.elems = out
	dst.card = int32(len(out))
	return 2*len(a) + len(b)
}

// andBitmapBitmap ANDs the overlapping word windows. The operand
// windows are pre-sliced to the shared extent so the inner loop is free
// of offset arithmetic and bounds checks — the codegen detail that
// keeps the containerized kernel at parity with (or ahead of) the flat
// bitset word loop.
func andBitmapBitmap(dst, a, b *container) int {
	lo := max(int(a.wlo), int(b.wlo))
	hi := min(int(a.wlo)+len(a.words), int(b.wlo)+len(b.words))
	if hi <= lo {
		dst.setBitmap(0, 0, false)
		return 0
	}
	n := hi - lo
	dst.setBitmap(lo, n, false)
	aw := a.words[lo-int(a.wlo) : lo-int(a.wlo)+n]
	bw := b.words[lo-int(b.wlo) : lo-int(b.wlo)+n]
	dw := dst.words[:n]
	// Four-way unroll with independent popcount chains: the AND and the
	// OnesCount64 of different words have no dependency, so the wider
	// body keeps the popcount unit busy instead of serializing on one
	// accumulator.
	cnt := 0
	i := 0
	for ; i+4 <= n; i += 4 {
		w0 := aw[i] & bw[i]
		w1 := aw[i+1] & bw[i+1]
		w2 := aw[i+2] & bw[i+2]
		w3 := aw[i+3] & bw[i+3]
		dw[i], dw[i+1], dw[i+2], dw[i+3] = w0, w1, w2, w3
		cnt += bits.OnesCount64(w0) + bits.OnesCount64(w1) +
			bits.OnesCount64(w2) + bits.OnesCount64(w3)
	}
	for ; i < n; i++ {
		w := aw[i] & bw[i]
		dw[i] = w
		cnt += bits.OnesCount64(w)
	}
	dst.card = int32(cnt)
	dst.trimBitmap()
	return n
}

// ctrAndNot computes a \ b into dst (reusing dst's storage), recording
// per-unit operations in ks like ctrAnd.
func ctrAndNot(dst, a, b *container, ks *KernelStats) int {
	switch {
	case a.kind == ctArray && b.kind == ctArray:
		dst.setArray()
		i, j := 0, 0
		for i < len(a.elems) {
			switch {
			case j >= len(b.elems) || a.elems[i] < b.elems[j]:
				dst.elems = append(dst.elems, a.elems[i])
				i++
			case a.elems[i] > b.elems[j]:
				j++
			default:
				i++
				j++
			}
		}
		dst.card = int32(len(dst.elems))
		ops := len(a.elems) + len(b.elems)
		ks.roaringElemOps += int64(ops)
		return ops
	case a.kind == ctArray: // \ bitmap
		dst.setArray()
		for _, v := range a.elems {
			if !containerContains(b, v) {
				dst.elems = append(dst.elems, v)
			}
		}
		dst.card = int32(len(dst.elems))
		ks.roaringElemOps += int64(len(a.elems))
		return len(a.elems)
	case b.kind == ctBitmap: // bitmap \ bitmap
		n := len(a.words)
		dst.setBitmap(int(a.wlo), n, false)
		cnt := 0
		for i, w := range a.words {
			wi := int(a.wlo) + i - int(b.wlo)
			if wi >= 0 && wi < len(b.words) {
				w &^= b.words[wi]
			}
			dst.words[i] = w
			cnt += bits.OnesCount64(w)
		}
		dst.card = int32(cnt)
		dst.trimBitmap()
		ks.roaringWords += int64(n)
		return n
	default: // bitmap \ array
		ops := ctrCopy(dst, a, ks)
		cnt := int(a.card)
		for _, v := range b.elems {
			wi := int(v)/wordBits - int(dst.wlo)
			if wi >= 0 && wi < len(dst.words) && dst.words[wi]&(1<<(v%wordBits)) != 0 {
				dst.words[wi] &^= 1 << (v % wordBits)
				cnt--
			}
		}
		ks.roaringElemOps += int64(len(b.elems))
		dst.card = int32(cnt)
		dst.trimBitmap()
		return ops + len(b.elems)
	}
}

// bitsetChunkView wraps the words of bs that fall inside chunk key as a
// bitmap container view. The words alias bs — the view is an operand
// only, never scratch. ok is false when the chunk does not overlap bs.
// Word alignment works out because both the chunk boundary and the
// bitset base are multiples of the word size.
func bitsetChunkView(bs *Bitset, key uint16) (container, bool) {
	chunkStart := chunkTID(key, 0)
	chunkEndW := (int(chunkStart) + chunkSize) / wordBits
	baseW := int(bs.base) / wordBits
	lo := max(int(chunkStart)/wordBits, baseW)
	hi := min(chunkEndW, baseW+len(bs.words))
	if hi <= lo {
		return container{}, false
	}
	return container{
		kind:  ctBitmap,
		card:  int32(bs.count), // upper bound; kernels read lengths, not operand cards
		wlo:   int32(lo - int(chunkStart)/wordBits),
		words: bs.words[lo-baseW : hi-baseW],
	}, true
}

// intersectRoaringBitset intersects a roaring with a bitset chunk by
// chunk, producing a roaring result.
func intersectRoaringBitset(dst *Roaring, a *Roaring, b *Bitset, ks *KernelStats) (*Roaring, int) {
	dst = reuseRoaring(dst)
	dst.ctrs = dst.ctrs[:0]
	ops := 0
	for i, key := range a.keys {
		view, ok := bitsetChunkView(b, key)
		if !ok {
			continue
		}
		ops += dst.ctrAnd(dst.nextCtr(), &a.ctrs[i], &view, ks)
		dst.commitCtr(key)
	}
	return dst, ops
}

// probeIntersectRoaring intersects a sparse list with a roaring by
// probing each element into the container of its chunk, walking the
// chunk keys in step with the sorted probes; the result is sparse.
func probeIntersectRoaring(scratch Set, sparse List, r *Roaring, ks *KernelStats) (Set, int) {
	ks.mixedIntersections++
	dst := sparseScratch(scratch, len(sparse))
	ci := 0
	for _, t := range sparse {
		k := chunkKey(t)
		for ci < len(r.keys) && r.keys[ci] < k {
			ci++
		}
		if ci < len(r.keys) && r.keys[ci] == k && containerContains(&r.ctrs[ci], chunkLow(t)) {
			dst = append(dst, t)
		}
	}
	ks.sparseOps += int64(len(sparse))
	return dst, len(sparse)
}
