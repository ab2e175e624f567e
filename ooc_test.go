package repro

import (
	"bytes"
	"context"
	"errors"
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
