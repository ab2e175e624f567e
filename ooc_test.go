package repro

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// storeSource opens a persisted copy of d as a store-backed Source (the
// shape the service registry serves), with a tiny segment size so the
// bundle partitions across many segments.
func storeSource(t *testing.T, d *Database, segBytes int64) *store.Dataset {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ooc.ds")
	if err := store.CreateDatasetSeg(path, store.DatasetMeta("ooc", "test", d), d, store.VerticalLists(d), segBytes); err != nil {
		t.Fatal(err)
	}
	ds, err := store.OpenDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

// TestMineFromMemoryBudgetByteIdentical is the library-level acceptance
// check: for every output, mining a store-backed source under a budget
// smaller than its mapping is byte-identical to the plain in-memory
// mine, and the run reports itself out-of-core.
func TestMineFromMemoryBudgetByteIdentical(t *testing.T) {
	d, err := Generate(StandardConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	ds := storeSource(t, d, 256)
	for _, output := range []Output{OutputAll, OutputMaximal, OutputClosed} {
		opts := MineOptions{SupportCount: 4, Output: output}
		want, _, err := Mine(context.Background(), d, opts)
		if err != nil {
			t.Fatal(err)
		}
		var wantBuf bytes.Buffer
		if err := WriteResult(&wantBuf, want); err != nil {
			t.Fatal(err)
		}

		for _, budget := range []int64{256, 1024, ds.BytesMapped() + 1} {
			bopts := opts
			bopts.MemoryBudget = budget
			got, info, err := MineFrom(context.Background(), ds, bopts)
			if err != nil {
				t.Fatalf("output=%d budget=%d: %v", output, budget, err)
			}
			var gotBuf bytes.Buffer
			if err := WriteResult(&gotBuf, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
				t.Fatalf("output=%d budget=%d: budgeted mine differs from in-memory", output, budget)
			}
			if info.MemoryBudget != budget || info.Scans != 0 {
				t.Fatalf("output=%d budget=%d: info echoes budget %d, %d scans", output, budget, info.MemoryBudget, info.Scans)
			}
			wantOOC := budget < ds.BytesMapped()
			if info.OutOfCore != wantOOC {
				t.Fatalf("output=%d budget=%d (mapped %d): OutOfCore=%v, want %v",
					output, budget, ds.BytesMapped(), info.OutOfCore, wantOOC)
			}
		}
	}
}

// TestLegacyBundleBudgetComparesMinedBytes opens a bundle an older build
// spilled bitset and roaring records into (4,352 bytes, 2,152 of them
// sparse records): its budget is compared with the bytes a mine reads,
// so a 3 KiB budget mines in core, byte-identical to no budget.
func TestLegacyBundleBudgetComparesMinedBytes(t *testing.T) {
	const fixture = "internal/store/testdata/legacy/spilled.ds"
	path := filepath.Join(t.TempDir(), "spilled.ds")
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"index.json", "vertical.bundle", "horizontal.db"} {
		b, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(path, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := store.OpenDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if got := ds.BytesMapped(); got != 2152 {
		t.Fatalf("BytesMapped = %d, want 2152, the end of the last sparse record", got)
	}
	var bodies [2]bytes.Buffer
	for i, budget := range []int64{0, 3 << 10} {
		res, info, err := MineFrom(context.Background(), ds, MineOptions{SupportCount: 5, MemoryBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		if info.OutOfCore {
			t.Fatalf("budget %d: mined out of core", budget)
		}
		if err := WriteResult(&bodies[i], res); err != nil {
			t.Fatal(err)
		}
	}
	if bodies[0].Len() == 0 || !bytes.Equal(bodies[0].Bytes(), bodies[1].Bytes()) {
		t.Fatal("budgeted mine differs from the unbudgeted one")
	}
}

// TestMineNegativeMemoryBudgetRejected covers every entry point.
func TestMineNegativeMemoryBudgetRejected(t *testing.T) {
	d := smallDB(t)
	opts := MineOptions{SupportCount: 2, MemoryBudget: -5}
	if _, _, err := Mine(context.Background(), d, opts); !errors.Is(err, ErrInvalidMemoryBudget) {
		t.Fatalf("Mine: %v, want ErrInvalidMemoryBudget", err)
	}
	ds := storeSource(t, d, 0)
	if _, _, err := MineFrom(context.Background(), ds, opts); !errors.Is(err, ErrInvalidMemoryBudget) {
		t.Fatalf("MineFrom: %v, want ErrInvalidMemoryBudget", err)
	}
	if _, _, err := MineMaximal(context.Background(), d, opts); !errors.Is(err, ErrInvalidMemoryBudget) {
		t.Fatalf("MineMaximal: %v, want ErrInvalidMemoryBudget", err)
	}
	if _, _, err := MineClosed(context.Background(), d, opts); !errors.Is(err, ErrInvalidMemoryBudget) {
		t.Fatalf("MineClosed: %v, want ErrInvalidMemoryBudget", err)
	}
}

// TestMineMemoryBudgetIgnoredForMemorySources pins the graceful
// degradation: a budget on a source with no store mapping mines in-core.
func TestMineMemoryBudgetIgnoredForMemorySources(t *testing.T) {
	d := smallDB(t)
	_, info, err := Mine(context.Background(), d, MineOptions{SupportCount: 4, MemoryBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if info.OutOfCore {
		t.Fatal("in-memory mine claims to be out-of-core")
	}
}

// TestMineFromLegacySpilledBundle mines a bundle that an older build
// spilled bitset and roaring copies into (internal/store/testdata): the
// store reads its sparse records only, so every representation, in core
// and out of core, mines byte-identically to the heap mine of its
// horizontal data.
func TestMineFromLegacySpilledBundle(t *testing.T) {
	const fixture = "internal/store/testdata/legacy/spilled.ds"
	path := filepath.Join(t.TempDir(), "spilled.ds")
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"index.json", "vertical.bundle", "horizontal.db"} {
		b, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(path, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := store.OpenDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	d, err := ds.Horizontal()
	if err != nil {
		t.Fatal(err)
	}
	for _, repr := range []Representation{ReprAuto, ReprSparse, ReprBitset, ReprRoaring} {
		opts := MineOptions{SupportCount: 3, Representation: repr}
		want, _, err := Mine(context.Background(), d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Itemsets) < 50 {
			t.Fatalf("%v: %d itemsets; too few to compare", repr, len(want.Itemsets))
		}
		var wantBuf bytes.Buffer
		if err := WriteResult(&wantBuf, want); err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int64{0, 256} {
			opts.MemoryBudget = budget
			got, info, err := MineFrom(context.Background(), ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			var gotBuf bytes.Buffer
			if err := WriteResult(&gotBuf, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
				t.Fatalf("%v budget=%d: mine of the legacy bundle differs from the heap mine", repr, budget)
			}
			if info.OutOfCore != (budget > 0) {
				t.Fatalf("%v budget=%d: OutOfCore=%v", repr, budget, info.OutOfCore)
			}
		}
	}
}
