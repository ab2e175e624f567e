// Package itemset provides the basic value types of association mining:
// items, transaction identifiers, and sorted itemsets, together with the
// lexicographic operations (prefix tests, Apriori joins, k-subset
// enumeration) that every algorithm in this repository builds on.
//
// An Itemset is always kept sorted in increasing item order; all functions
// in this package assume and preserve that invariant. Sortedness is what
// makes the equivalence-class prefix partitioning of Zaki et al. (SPAA'97,
// section 4.1) and the tid-list layout (section 4.2) well defined.
package itemset

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Item identifies a single attribute (product, event, ...) in the database.
// Items are small dense integers in [0, N) as produced by the synthetic
// generator, matching the paper's N = 1000 item universe.
type Item int32

// TID identifies one transaction. The paper's databases run to 6.4 million
// transactions, comfortably inside int32.
type TID int32

// Itemset is a set of items in strictly increasing order. A k-itemset has
// length k. The zero value is the empty itemset.
type Itemset []Item

// New returns a sorted, deduplicated itemset built from items.
func New(items ...Item) Itemset {
	s := make(Itemset, len(items))
	copy(s, items)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	// Deduplicate in place.
	out := s[:0]
	for i, it := range s {
		if i == 0 || it != s[i-1] {
			out = append(out, it)
		}
	}
	return out
}

// K returns the size of the itemset.
func (s Itemset) K() int { return len(s) }

// Clone returns an independent copy of s.
func (s Itemset) Clone() Itemset {
	c := make(Itemset, len(s))
	copy(c, s)
	return c
}

// Equal reports whether s and t contain the same items.
func (s Itemset) Equal(t Itemset) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Less reports whether s precedes t in lexicographic order, with shorter
// prefixes ordered first. This is the order the paper assumes when it says
// "assuming L(k-1) is lexicographically sorted".
func (s Itemset) Less(t Itemset) bool { return Compare(s, t) < 0 }

// Compare is the three-way form of Less: negative when s precedes t,
// positive when t precedes s and 0 when they are equal, so
// slices.SortFunc can order itemsets without a reflection swapper.
func Compare(s, t Itemset) int { return slices.Compare(s, t) }

// Contains reports whether s contains item x.
func (s Itemset) Contains(x Item) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == x
}

// SubsetOf reports whether every item of s appears in t. Both must be
// sorted; the test is a linear merge.
func (s Itemset) SubsetOf(t Itemset) bool {
	if len(s) > len(t) {
		return false
	}
	j := 0
	for _, x := range s {
		for j < len(t) && t[j] < x {
			j++
		}
		if j >= len(t) || t[j] != x {
			return false
		}
		j++
	}
	return true
}

// Prefix returns the first n items of s. It panics if n > len(s).
func (s Itemset) Prefix(n int) Itemset { return s[:n] }

// HasPrefix reports whether s begins with p.
func (s Itemset) HasPrefix(p Itemset) bool {
	if len(p) > len(s) {
		return false
	}
	for i := range p {
		if s[i] != p[i] {
			return false
		}
	}
	return true
}

// SharesPrefix reports whether s and t (both k-itemsets) agree on their
// first k-1 items — the Apriori join condition A[1:k-2]=B[1:k-2] for
// generating (k+1)-candidates.
func (s Itemset) SharesPrefix(t Itemset) bool {
	if len(s) != len(t) || len(s) == 0 {
		return false
	}
	k := len(s) - 1
	for i := 0; i < k; i++ {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Join combines two k-itemsets sharing a (k-1)-prefix into the
// (k+1)-candidate A[1]A[2]...A[k]B[k] (paper figure 1). It requires
// s.SharesPrefix(t) and s[k-1] < t[k-1]; Join panics otherwise, since
// callers enumerate pairs in sorted order and a violation is a bug.
func (s Itemset) Join(t Itemset) Itemset {
	if !s.SharesPrefix(t) || s[len(s)-1] >= t[len(t)-1] {
		panic(fmt.Sprintf("itemset: invalid join %v x %v", s, t))
	}
	out := make(Itemset, len(s)+1)
	copy(out, s)
	out[len(s)] = t[len(t)-1]
	return out
}

// Without returns a copy of s with the item at index i removed; used for
// enumerating the (k-1)-subsets during Apriori pruning and for rule
// generation.
func (s Itemset) Without(i int) Itemset {
	out := make(Itemset, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out
}

// Minus returns s \ t (both sorted).
func (s Itemset) Minus(t Itemset) Itemset {
	out := make(Itemset, 0, len(s))
	j := 0
	for _, x := range s {
		for j < len(t) && t[j] < x {
			j++
		}
		if j < len(t) && t[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}

// Union returns the sorted union of s and t.
func (s Itemset) Union(t Itemset) Itemset {
	out := make(Itemset, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// String renders the itemset as "{1 5 9}".
func (s Itemset) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, it := range s {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.Itoa(int(it)))
	}
	b.WriteByte('}')
	return b.String()
}

// Key returns a compact string usable as a map key. Two itemsets have the
// same Key iff they are Equal.
func (s Itemset) Key() string {
	var b strings.Builder
	b.Grow(len(s) * 3)
	for i, it := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(int64(it), 36))
	}
	return b.String()
}

// ParseKey reverses Key.
func ParseKey(key string) (Itemset, error) {
	if key == "" {
		return nil, nil
	}
	parts := strings.Split(key, ",")
	out := make(Itemset, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 36, 32)
		if err != nil {
			return nil, fmt.Errorf("itemset: bad key %q: %w", key, err)
		}
		out[i] = Item(v)
	}
	return out, nil
}

// Sort sorts a slice of itemsets lexicographically, the canonical order in
// which all algorithms emit L(k).
func Sort(sets []Itemset) {
	sort.Slice(sets, func(i, j int) bool { return sets[i].Less(sets[j]) })
}

// KSubsets calls fn for every k-subset of s in lexicographic order. This is
// the transaction-subset enumeration at the heart of Apriori support
// counting (figure 1); fn returning false aborts the enumeration early,
// which the CCPD short-circuit optimization exploits.
func KSubsets(s Itemset, k int, fn func(Itemset) bool) {
	if k < 0 || k > len(s) {
		return
	}
	if k == 0 {
		fn(nil)
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	buf := make(Itemset, k)
	for {
		for i, ix := range idx {
			buf[i] = s[ix]
		}
		if !fn(buf) {
			return
		}
		// Advance the combination odometer.
		i := k - 1
		for i >= 0 && idx[i] == len(s)-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// Binomial returns C(n, k) as an int64, saturating at MaxInt64. It backs
// the equivalence-class weight C(s,2) and the operation-count analysis in
// section 4.2 of the paper.
func Binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	var r int64 = 1
	for i := 0; i < k; i++ {
		r = r * int64(n-i) / int64(i+1)
	}
	return r
}
