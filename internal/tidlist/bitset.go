package tidlist

import (
	"math/bits"

	"repro/internal/itemset"
)

// wordBits is the number of TIDs packed into one Bitset word.
const wordBits = 64

// Bitset is the dense tid-set representation: 64 transaction identifiers
// per machine word, anchored at a word-aligned base TID so a class whose
// tids cluster far from zero stays compact. Intersection is word-wise
// AND + popcount — the vectorized kernel that follow-up work (bitmap
// FIM on many-core, RDD-Eclat's bitset variants) identifies as the lever
// behind the vertical layout's speed.
//
// The zero value is the empty set. Bitsets are value-mutated only by the
// kernel functions in this package; everywhere else they are treated as
// immutable, like List.
type Bitset struct {
	base  itemset.TID // TID of bit 0; always a multiple of 64
	words []uint64
	count int // cached popcount of words
}

// NewBitset packs a sorted tid-list into a Bitset spanning exactly the
// list's word range. An empty list yields an empty Bitset.
func NewBitset(l List) *Bitset {
	b := &Bitset{}
	b.SetTIDs(l)
	return b
}

// SetTIDs repacks b to hold exactly the tids of l, reusing b's word
// storage when it is large enough.
func (b *Bitset) SetTIDs(l List) {
	if len(l) == 0 {
		b.base, b.words, b.count = 0, b.words[:0], 0
		return
	}
	first, last := l[0], l[len(l)-1]
	b.base = first &^ (wordBits - 1)
	n := int(last/wordBits-b.base/wordBits) + 1
	if cap(b.words) < n {
		b.words = make([]uint64, n)
	} else {
		b.words = b.words[:n]
		clear(b.words)
	}
	for _, t := range l {
		off := t - b.base
		b.words[off/wordBits] |= 1 << (uint(off) % wordBits)
	}
	b.count = len(l)
}

// Support returns the cardinality (cached; O(1)).
func (b *Bitset) Support() int { return b.count }

// SizeBytes returns the encoded size of the dense representation:
// 8 bytes per word plus the 8-byte base header — the figure the
// communication and disk cost models charge when a bitset crosses the
// wire or is written out.
func (b *Bitset) SizeBytes() int64 {
	if len(b.words) == 0 {
		return 0
	}
	return 8 + 8*int64(len(b.words))
}

// Repr identifies the representation.
func (b *Bitset) Repr() Repr { return ReprBitset }

// AppendTIDs appends the members in increasing TID order to dst.
func (b *Bitset) AppendTIDs(dst List) List {
	for wi, w := range b.words {
		base := b.base + itemset.TID(wi*wordBits)
		for w != 0 {
			dst = append(dst, base+itemset.TID(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// TIDs materializes the set as a sorted tid-list.
func (b *Bitset) TIDs() List { return b.AppendTIDs(make(List, 0, b.count)) }

// Contains reports whether t is a member (O(1) — the probe the mixed
// sparse×dense kernel is built on).
func (b *Bitset) Contains(t itemset.TID) bool {
	if t < b.base {
		return false
	}
	off := t - b.base
	wi := int(off / wordBits)
	if wi >= len(b.words) {
		return false
	}
	return b.words[wi]&(1<<(uint(off)%wordBits)) != 0
}

// Clone returns an independent copy of b.
func (b *Bitset) Clone() *Bitset {
	return &Bitset{base: b.base, words: append([]uint64(nil), b.words...), count: b.count}
}

// overlap computes the word-index window shared by a and b: ai/bi are the
// first overlapping word indices into a.words and b.words, and n is the
// number of shared words (0 when the spans are disjoint).
func overlap(a, b *Bitset) (ai, bi, n int) {
	if len(a.words) == 0 || len(b.words) == 0 {
		return 0, 0, 0
	}
	aw0, bw0 := int(a.base/wordBits), int(b.base/wordBits)
	lo := max(aw0, bw0)
	hi := min(aw0+len(a.words), bw0+len(b.words))
	if hi <= lo {
		return 0, 0, 0
	}
	return lo - aw0, lo - bw0, hi - lo
}

// reuseWords returns a word buffer of length n, reusing dst's storage
// when possible (dst may be nil).
func reuseWords(dst *Bitset, n int) *Bitset {
	if dst == nil {
		dst = &Bitset{}
	}
	if cap(dst.words) < n {
		dst.words = make([]uint64, n)
	} else {
		dst.words = dst.words[:n]
	}
	return dst
}

// intersectBitset intersects a and b into dst (reused, may be nil) and
// returns the result together with the number of words touched. The
// result spans the overlap window; trailing/leading zero words are
// trimmed so SizeBytes reflects the true extent.
func intersectBitset(dst, a, b *Bitset) (*Bitset, int) {
	ai, bi, n := overlap(a, b)
	dst = reuseWords(dst, n)
	dst.base = a.base + itemset.TID(ai*wordBits)
	count := 0
	for i := 0; i < n; i++ {
		w := a.words[ai+i] & b.words[bi+i]
		dst.words[i] = w
		count += bits.OnesCount64(w)
	}
	dst.count = count
	dst.trim()
	return dst, n
}

// intersectBitsetSC is intersectBitset with the support-bound short
// circuit of section 5.3 transplanted to words: after each word the
// result can gain at most min(remaining popcount of a, of b, 64 per
// remaining word) more members; the scan aborts once even that bound
// cannot reach minsup. On abort the returned bitset holds an unusable
// partial prefix (retained only so callers can reuse its storage) and
// ok is false. ops is the number of words touched either way.
func intersectBitsetSC(dst, a, b *Bitset, minsup int) (result *Bitset, ops int, ok bool) {
	if min(a.count, b.count) < minsup {
		return reuseWords(dst, 0), 0, false
	}
	ai, bi, n := overlap(a, b)
	dst = reuseWords(dst, n)
	dst.base = a.base + itemset.TID(ai*wordBits)
	count := 0
	remA, remB := a.count, b.count
	for i := 0; i < n; i++ {
		wa, wb := a.words[ai+i], b.words[bi+i]
		w := wa & wb
		dst.words[i] = w
		count += bits.OnesCount64(w)
		remA -= bits.OnesCount64(wa)
		remB -= bits.OnesCount64(wb)
		ops++
		// Remaining matches are bounded by the unconsumed popcount of
		// either operand and by the raw capacity of the remaining words.
		bound := min(remA, remB, (n-1-i)*wordBits)
		if count+bound < minsup {
			dst.words = dst.words[:i+1]
			dst.count = count
			return dst, ops, false
		}
	}
	dst.count = count
	if count < minsup {
		return dst, ops, false
	}
	dst.trim()
	return dst, ops, true
}

// trim drops leading and trailing zero words, keeping base word-aligned.
func (b *Bitset) trim() {
	lo := 0
	for lo < len(b.words) && b.words[lo] == 0 {
		lo++
	}
	hi := len(b.words)
	for hi > lo && b.words[hi-1] == 0 {
		hi--
	}
	if lo == hi {
		b.base, b.words = 0, b.words[:0]
		return
	}
	if lo > 0 {
		copy(b.words, b.words[lo:hi])
		b.base += itemset.TID(lo * wordBits)
	}
	b.words = b.words[:hi-lo]
}
