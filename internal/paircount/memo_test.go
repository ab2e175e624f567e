package paircount

import (
	"slices"
	"testing"

	"repro/internal/itemset"
)

// TestMemoLowerFloorWins interleaves two misses as concurrent jobs can:
// while a count at support 5 runs, a count at 3 publishes. The memo must
// keep the lower floor, and a later query between the two must hit it.
// The nested query also proves the count runs outside the memo's lock.
func TestMemoLowerFloorWins(t *testing.T) {
	c := New(6)
	for _, tx := range [][]itemset.Item{{0, 1, 2}, {0, 1, 3}, {0, 1, 2, 4}, {1, 2}, {0, 2, 5}, {0, 1}} {
		c.AddTransaction(itemset.New(tx...))
	}
	var m Memo
	got, hit := m.Frequent(5, func() []FrequentPair {
		if _, hit := m.Frequent(3, func() []FrequentPair { return c.Frequent(3) }); hit {
			t.Fatal("first query at 3 hit an empty memo")
		}
		return c.Frequent(5)
	})
	if hit || !slices.Equal(got, c.Frequent(5)) {
		t.Fatalf("query at 5: hit %v, pairs %v, want a miss with %v", hit, got, c.Frequent(5))
	}
	if floor, pairs := m.Floor(); floor != 3 || pairs != len(c.Frequent(3)) {
		t.Fatalf("floor %d with %d pairs, want 3 with %d", floor, pairs, len(c.Frequent(3)))
	}
	got, hit = m.Frequent(4, func() []FrequentPair {
		t.Fatal("query at 4 counted above the floor")
		return nil
	})
	if !hit || !slices.Equal(got, c.Frequent(4)) {
		t.Fatalf("query at 4: hit %v, pairs %v, want a hit with %v", hit, got, c.Frequent(4))
	}
}
