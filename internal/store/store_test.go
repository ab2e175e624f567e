package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/testutil"
	"repro/internal/tidlist"
)

func testDB(t *testing.T, numTx int) *db.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	return testutil.RandomDB(rng, numTx, 40, 8)
}

func registerOne(t *testing.T, s *Store, name string, numTx int) (*db.Database, *Dataset) {
	t.Helper()
	d := testDB(t, numTx)
	ds, err := s.Register(DatasetMeta(name, "test", d), d, VerticalLists(d))
	if err != nil {
		t.Fatalf("Register(%q): %v", name, err)
	}
	return d, ds
}

func assertListsEqual(t *testing.T, got []tidlist.List, want []tidlist.List) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d lists, want %d", len(got), len(want))
	}
	for item := range want {
		if len(got[item]) != len(want[item]) {
			t.Fatalf("item %d: got %v, want %v", item, got[item], want[item])
		}
		for i := range want[item] {
			if got[item][i] != want[item][i] {
				t.Fatalf("item %d: got %v, want %v", item, got[item], want[item])
			}
		}
	}
}

func TestStoreRegisterOpenRoundTrip(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	d, ds := registerOne(t, s, "rt", 200)
	lists := VerticalLists(d)
	assertListsEqual(t, ds.SparseLists(), lists)
	if m := ds.Meta(); m.Transactions != d.Len() || m.NumItems != d.NumItems || m.Name != "rt" {
		t.Fatalf("meta %+v does not match database", m)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from disk: same lists, horizontal database intact.
	s2, err := Open(root, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ds2, err := s2.Get("rt")
	if err != nil {
		t.Fatal(err)
	}
	assertListsEqual(t, ds2.SparseLists(), lists)
	h, err := ds2.Horizontal()
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != d.Len() || h.NumItems != d.NumItems {
		t.Fatalf("horizontal round trip: %d/%d txs, %d/%d items",
			h.Len(), d.Len(), h.NumItems, d.NumItems)
	}
	for i := range d.Transactions {
		if h.Transactions[i].TID != d.Transactions[i].TID ||
			h.Transactions[i].Items.Key() != d.Transactions[i].Items.Key() {
			t.Fatalf("transaction %d differs after round trip", i)
		}
	}
}

func TestStoreTornTailTruncatedOnOpen(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := registerOne(t, s, "torn", 120)
	s.Close()

	// Simulate an older build's crash mid-spill: bytes past the committed
	// extent with no index pointing at them.
	bp := filepath.Join(root, "torn"+datasetSuffix, bundleName)
	f, err := os.OpenFile(bp, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn half-written record bytes")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(root, t.Logf)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer s2.Close()
	ds, err := s2.Get("torn")
	if err != nil {
		t.Fatal(err)
	}
	assertListsEqual(t, ds.SparseLists(), VerticalLists(d))
	fi, err := os.Stat(bp)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != ds.idx.BundleBytes {
		t.Fatalf("torn tail not truncated: %d bytes on disk, %d committed", fi.Size(), ds.idx.BundleBytes)
	}
}

func TestStoreCorruptChecksumSkippedNotFatal(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	registerOne(t, s, "bad", 120)
	registerOne(t, s, "good", 120)
	s.Close()

	// Flip a payload byte inside the committed extent of "bad".
	bp := filepath.Join(root, "bad"+datasetSuffix, bundleName)
	raw, err := os.ReadFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	raw[bundleHeaderSize+recordHeaderSize] ^= 0xff
	if err := os.WriteFile(bp, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// OpenDataset reports the typed error...
	if _, err := OpenDataset(filepath.Join(root, "bad"+datasetSuffix)); !errors.Is(err, ErrCorruptBundle) {
		t.Fatalf("OpenDataset on corrupt bundle: %v, want ErrCorruptBundle", err)
	}

	// ...and Store.Open logs a warning, skips it, and still serves the
	// healthy dataset.
	var warnings []string
	s2, err := Open(root, func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatalf("store open with one corrupt dataset: %v", err)
	}
	defer s2.Close()
	if _, err := s2.Get("bad"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt dataset still served: %v", err)
	}
	if _, err := s2.Get("good"); err != nil {
		t.Fatalf("healthy dataset lost: %v", err)
	}
	if len(warnings) == 0 || !strings.Contains(warnings[0], "bad") {
		t.Fatalf("no warning logged for skipped dataset: %v", warnings)
	}
}

func TestStorePartialSweptOnOpen(t *testing.T) {
	root := t.TempDir()
	leftover := filepath.Join(root, "half"+partialSuffix)
	if err := os.MkdirAll(leftover, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(leftover, bundleName), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(root, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := os.Stat(leftover); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("partial directory not swept: %v", err)
	}
	if names := s.Names(); len(names) != 0 {
		t.Fatalf("partial directory surfaced as dataset: %v", names)
	}
}

func TestStoreRemove(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d, ds := registerOne(t, s, "gone", 100)

	lists := ds.SparseLists()
	if err := s.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "gone"+datasetSuffix)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("dataset directory survives Remove: %v", err)
	}
	if _, err := s.Get("gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("removed dataset still served: %v", err)
	}
	if err := s.Remove("gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Remove: %v, want ErrNotFound", err)
	}
	// Views handed out before Remove stay readable until Close.
	assertListsEqual(t, lists, VerticalLists(d))
}

func TestStoreRegisterDuplicateAndBadNames(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	registerOne(t, s, "dup", 50)
	d := testDB(t, 50)
	if _, err := s.Register(DatasetMeta("dup", "test", d), d, VerticalLists(d)); !errors.Is(err, ErrDatasetExists) {
		t.Fatalf("duplicate Register: %v, want ErrDatasetExists", err)
	}
	for _, name := range []string{"", ".", "..", "a/b", `a\b`, "x.ds"} {
		if _, err := s.Register(DatasetMeta(name, "test", d), d, VerticalLists(d)); err == nil {
			t.Errorf("Register(%q) accepted an unsafe name", name)
		}
	}
}

func TestStoreMissingBundleBytesIsCorrupt(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	registerOne(t, s, "short", 120)
	s.Close()

	// Truncate below the committed extent: index promises bytes the
	// bundle no longer has.
	bp := filepath.Join(root, "short"+datasetSuffix, bundleName)
	fi, err := os.Stat(bp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(bp, fi.Size()-8); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDataset(filepath.Join(root, "short"+datasetSuffix)); !errors.Is(err, ErrCorruptBundle) {
		t.Fatalf("short bundle: %v, want ErrCorruptBundle", err)
	}
}

// TestStoreCorruptIndexSkippedUntouched edits the index of one of two
// datasets so that its figures disagree with its bundle. Open must skip
// that dataset with one warning before it truncates, maps or allocates
// anything, serve the intact neighbour, and leave the bad bundle as it
// was.
func TestStoreCorruptIndexSkippedUntouched(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(idx *index)
	}{
		{"negative item count", func(idx *index) { idx.Meta.NumItems = -1 }},
		{"negative extent", func(idx *index) { idx.BundleBytes = -8 }},
		{"extent inside header", func(idx *index) { idx.BundleBytes = 8 }},
		{"record past extent", func(idx *index) { idx.BundleBytes -= 8 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			s, err := Open(root, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			registerOne(t, s, "bad", 120)
			registerOne(t, s, "good", 120)
			s.Close()

			dir := filepath.Join(root, "bad"+datasetSuffix)
			ip := filepath.Join(dir, indexName)
			ib, err := os.ReadFile(ip)
			if err != nil {
				t.Fatal(err)
			}
			var idx index
			if err := json.Unmarshal(ib, &idx); err != nil {
				t.Fatal(err)
			}
			tc.edit(&idx)
			if ib, err = json.Marshal(&idx); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(ip, ib, 0o644); err != nil {
				t.Fatal(err)
			}
			bp := filepath.Join(dir, bundleName)
			bundle, err := os.ReadFile(bp)
			if err != nil {
				t.Fatal(err)
			}

			var warnings []string
			s2, err := Open(root, func(format string, args ...any) {
				warnings = append(warnings, fmt.Sprintf(format, args...))
			})
			if err != nil {
				t.Fatalf("store open with one corrupt index: %v", err)
			}
			defer s2.Close()
			if _, err := s2.Get("bad"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("dataset with corrupt index served: %v", err)
			}
			if _, err := s2.Get("good"); err != nil {
				t.Fatalf("healthy dataset lost: %v", err)
			}
			if len(warnings) != 1 || !strings.Contains(warnings[0], "bad") || !strings.Contains(warnings[0], ErrCorruptBundle.Error()) {
				t.Fatalf("want one corrupt-bundle warning for the bad dataset, got %q", warnings)
			}
			after, err := os.ReadFile(bp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, bundle) {
				t.Fatalf("bundle changed by a failed open: %d bytes, was %d", len(after), len(bundle))
			}
		})
	}
}
