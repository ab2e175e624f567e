package service

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"repro"
	"repro/internal/store"
	"repro/internal/tidlist"
)

// TestServiceRepresentationsDistinctEntriesSameResult checks that the
// cache keeps per-representation entries apart (the key includes the
// representation) while every representation mines identical itemsets.
func TestServiceRepresentationsDistinctEntriesSameResult(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueDepth: 8}, 400)
	var first []byte
	for _, r := range []repro.Representation{repro.ReprSparse, repro.ReprBitset, repro.ReprRoaring, repro.ReprAuto} {
		j, err := s.Submit(Request{Dataset: "t10", MineOptions: repro.MineOptions{SupportPct: 2.0, Representation: r}})
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.Wait(context.Background(), j.ID)
		if err != nil || v.Status != StatusDone {
			t.Fatalf("repr %v: %v %v", r, v.Status, err)
		}
		if v.Cached {
			t.Fatalf("repr %v shared a cache entry with another representation", r)
		}
		if v.Representation != r.String() {
			t.Fatalf("job view representation %q, want %q", v.Representation, r)
		}
		res, err := s.Result(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := repro.WriteResult(&buf, res); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("repr %v mined different itemsets", r)
		}
	}
	if got := s.Cache().Len(); got != 4 {
		t.Fatalf("cache entries = %d, want 4 (one per representation)", got)
	}
	// Resubmitting under the same representation hits its entry.
	j, err := s.Submit(Request{Dataset: "t10", MineOptions: repro.MineOptions{SupportPct: 2.0, Representation: repro.ReprBitset}})
	if err != nil {
		t.Fatal(err)
	}
	if v := j.Snapshot(); !v.Cached {
		t.Fatalf("same-representation resubmission missed the cache: %+v", v)
	}
}

// TestDatasetVerticalSetsOneView pins the dataset's one item view, on
// an in-memory registry and on a store-backed one: it is memoized
// across calls, it holds each item in its smallest encoding with the
// item's tid-list, absent items are nil, a store-backed view's sparse
// items alias the mapping, and its bytes are the VerticalSizes auto
// figure.
func TestDatasetVerticalSetsOneView(t *testing.T) {
	d := genDataset(t, 2000)
	want := store.VerticalLists(d)
	for _, stored := range []bool{false, true} {
		t.Run(fmt.Sprintf("stored=%v", stored), func(t *testing.T) {
			r := NewRegistry()
			if stored {
				st, err := store.Open(t.TempDir(), t.Logf)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { st.Close() })
				if err := r.AttachStore(st); err != nil {
					t.Fatal(err)
				}
			}
			ds, err := r.Add("t10", "generated", d)
			if err != nil {
				t.Fatal(err)
			}
			if (ds.stored != nil) != stored {
				t.Fatalf("dataset stored = %v, want %v", ds.stored != nil, stored)
			}
			sets, ok := ds.VerticalSets()
			if !ok {
				t.Fatal("VerticalSets must always serve the repro.Source vertical view")
			}
			if again, _ := ds.VerticalSets(); &again[0] != &sets[0] {
				t.Fatal("VerticalSets recomputed instead of memoized")
			}
			if len(sets) != len(want) {
				t.Fatalf("view holds %d items, want %d", len(sets), len(want))
			}
			encodings := map[tidlist.Repr]int{}
			absent := 0
			var size int64
			for it, l := range want {
				s := sets[it]
				if len(l) == 0 {
					absent++
					if s != nil {
						t.Fatalf("absent item %d: %v set, want nil", it, s.Repr())
					}
					continue
				}
				if _, enc := tidlist.EncodedSize(l, tidlist.ReprAuto); s.Repr() != enc {
					t.Fatalf("item %d is %v, want its smallest encoding %v", it, s.Repr(), enc)
				}
				if !slices.Equal(tidlist.TIDsOf(s), l) {
					t.Fatalf("item %d: view's tids differ from its tid-list", it)
				}
				if sl, ok := s.(tidlist.List); ok && stored && &sl[0] != &ds.stored.SparseLists()[it][0] {
					t.Fatalf("item %d: sparse item is a copy, not a view over the mapping", it)
				}
				encodings[s.Repr()]++
				size += s.SizeBytes()
			}
			if absent == 0 {
				t.Fatal("dataset has no absent item to check")
			}
			if len(encodings) != 3 {
				t.Fatalf("view holds encodings %v, want all three", encodings)
			}
			if _, _, _, auto := ds.VerticalSizes(); size != auto {
				t.Fatalf("view totals %d bytes, VerticalSizes says %d", size, auto)
			}
		})
	}
}
