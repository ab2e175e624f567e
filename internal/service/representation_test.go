package service

import (
	"bytes"
	"context"
	"testing"

	"repro"
	"repro/internal/tidlist"
)

// TestServiceRepresentationsDistinctEntriesSameResult checks that the
// cache keeps per-representation entries apart (the key includes the
// representation) while every representation mines identical itemsets.
func TestServiceRepresentationsDistinctEntriesSameResult(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueDepth: 8}, 400)
	var first []byte
	for _, r := range []repro.Representation{repro.ReprSparse, repro.ReprBitset, repro.ReprAuto} {
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
	if got := s.Cache().Len(); got != 3 {
		t.Fatalf("cache entries = %d, want 3 (one per representation)", got)
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

// TestDatasetVerticalSetsMemoizedPerRepresentation checks each
// representation's transform is computed once and shared across
// VerticalSets calls, that absent items get nil sets, and that every
// representation of the transform carries the same tid-sets.
func TestDatasetVerticalSetsMemoizedPerRepresentation(t *testing.T) {
	r := NewRegistry()
	ds, err := r.Add("t10", "generated", genDataset(t, 300))
	if err != nil {
		t.Fatal(err)
	}
	var views [4][]tidlist.Set
	for i, repr := range []tidlist.Repr{tidlist.ReprSparse, tidlist.ReprBitset, tidlist.ReprRoaring, tidlist.ReprAuto} {
		s1, ok := ds.VerticalSets(repr)
		if !ok {
			t.Fatal("VerticalSets must always serve the repro.Source vertical view")
		}
		if s2, _ := ds.VerticalSets(repr); &s1[0] != &s2[0] {
			t.Fatalf("VerticalSets(%v) recomputed instead of memoized", repr)
		}
		views[i] = s1
	}
	sparse, dense, roaring, auto := views[0], views[1], views[2], views[3]
	vert := ds.Vertical()
	absent := 0
	for it := range vert {
		want := vert[it]
		if len(want) == 0 {
			absent++
			for _, sets := range views {
				if sets[it] != nil {
					t.Fatalf("absent item %d: %v set, want nil", it, sets[it].Repr())
				}
			}
			continue
		}
		for _, sets := range views {
			got := tidlist.TIDsOf(sets[it])
			if len(got) != len(want) {
				t.Fatalf("item %d: %d tids, want %d", it, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("item %d: tid mismatch at %d", it, i)
				}
			}
		}
		if sparse[it].Repr() != tidlist.ReprSparse {
			t.Fatalf("item %d: sparse transform has repr %v", it, sparse[it].Repr())
		}
		if dense[it].Repr() != tidlist.ReprBitset {
			t.Fatalf("item %d: dense transform has repr %v", it, dense[it].Repr())
		}
		if roaring[it].Repr() != tidlist.ReprRoaring {
			t.Fatalf("item %d: roaring transform has repr %v", it, roaring[it].Repr())
		}
	}
	if absent == 0 {
		t.Fatal("dataset has no absent item to check")
	}
	// The auto transform never ships an item in a more expensive
	// encoding, so its total size is the VerticalSizes auto figure.
	sp, de, ro, au := ds.VerticalSizes()
	if au > sp || au > de || au > ro {
		t.Fatalf("auto size %d exceeds sparse %d, dense %d, or roaring %d", au, sp, de, ro)
	}
	var autoSum int64
	for _, s := range auto {
		if s != nil {
			autoSum += s.SizeBytes()
		}
	}
	if autoSum != au {
		t.Fatalf("auto transform totals %d bytes, VerticalSizes says %d", autoSum, au)
	}
}
