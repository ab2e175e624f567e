package store

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/db"
	"repro/internal/eclat"
	"repro/internal/testutil"
	"repro/internal/tidlist"
)

// benchDataset persists one generated dataset under dir and returns its
// path plus the source database.
func benchDataset(b *testing.B, dir string, numTx int) (string, *db.Database) {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(numTx)))
	d := testutil.RandomDB(rng, numTx, 60, 10)
	path := filepath.Join(dir, fmt.Sprintf("bench%d.ds", numTx))
	meta := DatasetMeta(fmt.Sprintf("bench%d", numTx), "bench", d)
	if err := CreateDataset(path, meta, d, VerticalLists(d)); err != nil {
		b.Fatal(err)
	}
	return path, d
}

// BenchmarkStoreOpen compares the three ways a process comes to hold a
// dataset's vertical transform: a cold open of the stored bundle (index
// load, mmap, checksum verify of every record), an in-memory rebuild
// from horizontal data (what every daemon start paid before the store),
// and a warm view build over an already-open mapping.
func BenchmarkStoreOpen(b *testing.B) {
	for _, numTx := range []int{2000, 10000, 50000} {
		dir := b.TempDir()
		path, d := benchDataset(b, dir, numTx)

		b.Run(fmt.Sprintf("n=%d/mode=cold", numTx), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ds, err := OpenDataset(path)
				if err != nil {
					b.Fatal(err)
				}
				ds.Close()
			}
		})
		b.Run(fmt.Sprintf("n=%d/mode=rebuild", numTx), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if lists := VerticalLists(d); len(lists) == 0 {
					b.Fatal("empty transform")
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/mode=warm", numTx), func(b *testing.B) {
			ds, err := OpenDataset(path)
			if err != nil {
				b.Fatal(err)
			}
			defer ds.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sets := ds.Sets(tidlist.ReprSparse); len(sets) == 0 {
					b.Fatal("empty sets")
				}
			}
		})
	}
}

// BenchmarkStoreMine compares one full Eclat mine from the mmap store
// (vertical path, zero horizontal scans) against the same mine from
// heap-resident horizontal data (including its transformation phase).
func BenchmarkStoreMine(b *testing.B) {
	for _, numTx := range []int{2000, 10000, 50000} {
		dir := b.TempDir()
		path, d := benchDataset(b, dir, numTx)
		minsup := numTx / 50

		b.Run(fmt.Sprintf("n=%d/source=store", numTx), func(b *testing.B) {
			ds, err := OpenDataset(path)
			if err != nil {
				b.Fatal(err)
			}
			defer ds.Close()
			in := eclat.VerticalInput{NumTransactions: numTx, Items: ds.Sets(tidlist.ReprSparse)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, _, err := eclat.MineVerticalLocal(context.Background(), in, minsup, eclat.Options{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() == 0 {
					b.Fatal("no itemsets")
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/source=heap", numTx), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, _, _ := eclat.MineParallelLocal(context.Background(), d, minsup, eclat.Options{Workers: 1})
				if res.Len() == 0 {
					b.Fatal("no itemsets")
				}
			}
		})
	}
}

// BenchmarkStoreMineOOC measures what a residency budget costs: the same
// store-backed mine as BenchmarkStoreMine, with the budget set to a
// fraction of the mapped bundle. At budget=100 the whole mapping fits,
// NewResidency declines, and the run is the unbudgeted in-core baseline
// through the identical harness; 25 and 50 mine out-of-core with
// per-class residency windows and locality-ordered classes.
func BenchmarkStoreMineOOC(b *testing.B) {
	for _, numTx := range []int{10000, 50000} {
		rng := rand.New(rand.NewSource(int64(numTx)))
		d := testutil.RandomDB(rng, numTx, 60, 10)
		minsup := numTx / 50
		// Persist with segments small enough that a fractional budget
		// spans many of them (the default 1 MiB segment would make these
		// bench-scale bundles a single segment).
		segPath := filepath.Join(b.TempDir(), fmt.Sprintf("seg%d.ds", numTx))
		meta := DatasetMeta(fmt.Sprintf("seg%d", numTx), "bench", d)
		if err := CreateDatasetSeg(segPath, meta, d, VerticalLists(d), 1<<14); err != nil {
			b.Fatal(err)
		}

		ds, err := OpenDataset(segPath)
		if err != nil {
			b.Fatal(err)
		}
		defer ds.Close()
		mapped := ds.BytesMapped()

		for _, pct := range []int64{25, 50, 100} {
			budget := mapped * pct / 100
			b.Run(fmt.Sprintf("n=%d/budget=%d", numTx, pct), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					in := eclat.VerticalInput{NumTransactions: numTx, Items: ds.Sets(tidlist.ReprSparse)}
					// Typed-nil guard: only a usable tracker goes into the
					// interface field; at 100% NewResidency declines and the
					// run is the in-core baseline.
					if r := ds.NewResidency(budget); r != nil {
						in.Residency = r
					}
					res, _, err := eclat.MineVerticalLocal(context.Background(), in, minsup, eclat.Options{Workers: 1})
					if err != nil {
						b.Fatal(err)
					}
					if res.Len() == 0 {
						b.Fatal("no itemsets")
					}
				}
			})
		}
	}
}
