package service

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"sync"
	"testing"

	"repro"
	"repro/internal/itemset"
	"repro/internal/mining"
)

// bodyOfSize builds a body of exactly n bytes claiming n itemsets.
func bodyOfSize(n int) Body {
	return Body{Data: make([]byte, n), Itemsets: n}
}

func TestCacheHitMissCounters(t *testing.T) {
	c := NewCache(1 << 20)
	k := Key{Dataset: "d", Algorithm: "Eclat", MinSup: 5, Output: repro.OutputAll}
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, bodyOfSize(3))
	body, ok := c.Get(k)
	if !ok || body.Itemsets != 3 {
		t.Fatalf("get after put: ok=%v itemsets=%d", ok, body.Itemsets)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	if st.SizeBytes != int64(len(body.Data)) {
		t.Fatalf("size accounting %d != %d", st.SizeBytes, len(body.Data))
	}
}

func TestCacheDistinguishesKeyFields(t *testing.T) {
	c := NewCache(1 << 20)
	base := Key{Dataset: "d", Algorithm: "Eclat", MinSup: 5, Output: repro.OutputAll}
	c.Put(base, bodyOfSize(1))
	for _, k := range []Key{
		{Dataset: "other", Algorithm: "Eclat", MinSup: 5, Output: repro.OutputAll},
		{Dataset: "d", Algorithm: "Apriori", MinSup: 5, Output: repro.OutputAll},
		{Dataset: "d", Algorithm: "Eclat", MinSup: 6, Output: repro.OutputAll},
		{Dataset: "d", Algorithm: "Eclat", MinSup: 5, Output: repro.OutputMaximal},
	} {
		if _, ok := c.Get(k); ok {
			t.Fatalf("key %v unexpectedly hit entry for %v", k, base)
		}
	}
}

func TestCacheEvictsLRUUnderSizePressure(t *testing.T) {
	const one = 40
	c := NewCache(3 * one) // room for exactly three bodies
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = Key{Dataset: fmt.Sprint("d", i), MinSup: 1}
	}
	c.Put(keys[0], bodyOfSize(one))
	c.Put(keys[1], bodyOfSize(one))
	c.Put(keys[2], bodyOfSize(one))
	c.Get(keys[0]) // freshen 0 so 1 is now the LRU
	c.Put(keys[3], bodyOfSize(one))

	if _, ok := c.Get(keys[1]); ok {
		t.Fatal("LRU entry 1 should have been evicted")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := c.Get(keys[i]); !ok {
			t.Fatalf("entry %d should have survived", i)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 3 || st.SizeBytes != 3*one {
		t.Fatalf("stats after eviction = %+v", st)
	}
}

func TestCacheRefreshSameKeyAdjustsSize(t *testing.T) {
	c := NewCache(1 << 20)
	k := Key{Dataset: "d", MinSup: 1}
	c.Put(k, bodyOfSize(10))
	c.Put(k, bodyOfSize(2))
	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
	if st.SizeBytes != 2 {
		t.Fatalf("size = %d after shrink, want 2", st.SizeBytes)
	}
}

func TestCacheRejectsOversizedEntry(t *testing.T) {
	c := NewCache(100)
	c.Put(Key{Dataset: "big"}, bodyOfSize(1000))
	if st := c.Stats(); st.Entries != 0 || st.SizeBytes != 0 {
		t.Fatalf("oversized entry was cached: %+v", st)
	}
}

// TestCacheConcurrentAccess exercises parallel Put/Get/Stats under size
// pressure so -race can catch unlocked paths and eviction races.
func TestCacheConcurrentAccess(t *testing.T) {
	const one = 40
	c := NewCache(8 * one) // small enough to evict constantly
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key{Dataset: fmt.Sprint("d", (g+i)%16), MinSup: 1}
				if i%2 == 0 {
					c.Put(k, bodyOfSize(one))
				} else {
					c.Get(k)
				}
				if i%17 == 0 {
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.SizeBytes > 8*one {
		t.Fatalf("size %d exceeds budget %d", st.SizeBytes, 8*one)
	}
	if st.Entries > 8 {
		t.Fatalf("entries %d exceed what the budget allows", st.Entries)
	}
}

// TestEncodeBodyIsWriteInOneAllocation pins the served form: the body
// holds exactly mining.Write's bytes, of an empty result, of one
// itemset and of 70,000, and encoding it allocates only those bytes.
// AllocsPerRun counts the whole process's allocations, and with the
// collector running, about one run of the package in four read 2 for the
// 70,000-itemset body; with it off, none did. So the count runs with the
// collector off.
func TestEncodeBodyIsWriteInOneAllocation(t *testing.T) {
	large := &mining.Result{MinSup: 12, NumTransactions: 1_000_000}
	for i := 0; i < 70_000; i++ {
		set := make(itemset.Itemset, 1+i%6)
		for k := range set {
			set[k] = itemset.Item(i%997 + 1000*k)
		}
		large.Add(set, 12+i*31%100_000)
	}
	for _, c := range []struct {
		name string
		res  *mining.Result
	}{
		{"empty", &mining.Result{MinSup: 3, NumTransactions: 7}},
		{"one", &mining.Result{MinSup: 2, NumTransactions: 10, Itemsets: []mining.FrequentItemset{{Set: itemset.New(4, 9), Support: 5}}}},
		{"70000", large},
	} {
		t.Run(c.name, func(t *testing.T) {
			var want bytes.Buffer
			if err := mining.Write(&want, c.res); err != nil {
				t.Fatal(err)
			}
			body := encodeBody(c.res)
			if !bytes.Equal(body.Data, want.Bytes()) || body.Itemsets != c.res.Len() {
				t.Fatalf("body holds %d bytes and %d itemsets, want mining.Write's %d bytes and %d", len(body.Data), body.Itemsets, want.Len(), c.res.Len())
			}
			gc := debug.SetGCPercent(-1)
			allocs := testing.AllocsPerRun(5, func() { encodeBody(c.res) })
			debug.SetGCPercent(gc)
			if allocs != 1 {
				t.Fatalf("encodeBody made %v allocations, want 1", allocs)
			}
		})
	}
}
