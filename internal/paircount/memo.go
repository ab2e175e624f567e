package paircount

import "sync"

// Memo keeps one dataset's L2 — its frequent pairs with their counts —
// at the lowest support counted so far, the floor. L2 at support s holds
// L2 at every higher support, so a query at or above the floor filters
// the memo instead of counting; a query below it counts, and its pairs
// replace the memo.
//
// The memo holds one FrequentPair per pair of L2 at the floor and never
// more: it keeps its own copy of a count's pairs, and it does not grow
// with the number of queries. A published slice is never mutated, so
// the lock guards only the floor and the slice header, and a count runs
// outside it. Two concurrent misses may both count; the lower floor
// wins. The zero Memo is empty and ready to use.
type Memo struct {
	mu sync.Mutex
	// floor is the support pairs was counted at; 0 while empty.
	floor int
	pairs []FrequentPair
}

// Frequent returns every pair with count >= minsup, in the order count
// produced them, and whether the memo answered. When minsup is at or
// above the floor the pairs are filtered from the memo (a hit), into a
// slice of their exact number (nil for none), and count is not called.
// Otherwise count must return L2 at minsup — every pair with count >=
// minsup, as Counter.Frequent does — and its pairs become the memo if
// minsup is still below the floor when it returns. Either way the
// returned slice is the caller's own.
//
// Supports below 1 always count and are never stored: at 0, Counter's
// Frequent returns pairs that never co-occur, which is not L2.
func (m *Memo) Frequent(minsup int, count func() []FrequentPair) ([]FrequentPair, bool) {
	m.mu.Lock()
	floor, pairs := m.floor, m.pairs
	m.mu.Unlock()
	if floor > 0 && minsup >= floor {
		n := 0
		for _, p := range pairs {
			if p.Count >= minsup {
				n++
			}
		}
		if n == 0 {
			return nil, true
		}
		out := make([]FrequentPair, 0, n)
		for _, p := range pairs {
			if p.Count >= minsup {
				out = append(out, p)
			}
		}
		return out, true
	}
	counted := count()
	if minsup >= 1 {
		m.mu.Lock()
		if m.floor == 0 || minsup < m.floor {
			m.floor = minsup
			m.pairs = make([]FrequentPair, len(counted))
			copy(m.pairs, counted)
		}
		m.mu.Unlock()
	}
	return counted, false
}

// Floor reports the support the memo was counted at and the number of
// pairs it holds; (0, 0) while empty.
func (m *Memo) Floor() (minsup, pairs int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.floor, len(m.pairs)
}
