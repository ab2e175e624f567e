package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// legacyFixture is a dataset written by a build that still spilled
// packed encodings: CreateDatasetSeg at 256-byte segments over 96
// transactions of 20 items, then a bitset and a roaring record for every
// item appended after the sparse ones.
const legacyFixture = "testdata/legacy/spilled.ds"

// copyLegacy copies the fixture to root/spilled.ds and returns that
// path, so that opening it never touches the committed files.
func copyLegacy(t *testing.T, root string) string {
	t.Helper()
	dst := filepath.Join(root, "spilled"+datasetSuffix)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{indexName, bundleName, horizontalName} {
		b, err := os.ReadFile(filepath.Join(legacyFixture, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// recordSegs returns the segments rec's parts touch.
func recordSegs(rec Record, segBytes int64) []int {
	var segs []int
	for _, p := range rec.parts() {
		for s := p.Offset / segBytes; s <= (p.Offset+recordHeaderSize+paddedLen(p.Length)-1)/segBytes; s++ {
			segs = append(segs, int(s))
		}
	}
	return segs
}

// TestLegacySpilledBundleOpens opens a bundle an older build spilled
// into: its sparse lists are the vertical transform of its horizontal
// data, and its residency plan maps items to the segments of their
// sparse records only.
func TestLegacySpilledBundleOpens(t *testing.T) {
	ds, err := OpenDataset(copyLegacy(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	h, err := ds.Horizontal()
	if err != nil {
		t.Fatal(err)
	}
	assertListsEqual(t, ds.SparseLists(), VerticalLists(h))

	r := ds.NewResidency(256)
	if r == nil {
		t.Fatal("no residency for a budget below the mapping")
	}
	want := make([][]int, ds.idx.Meta.NumItems)
	sparse, spilled := map[int]bool{}, map[int]bool{}
	for _, rec := range ds.idx.Records {
		for _, s := range recordSegs(rec, r.segBytes) {
			if rec.Enc == EncSparse {
				want[rec.Item] = append(want[rec.Item], s)
				sparse[s] = true
			} else {
				spilled[s] = true
			}
		}
	}
	vacuous := true
	for s := range spilled {
		vacuous = vacuous && sparse[s]
	}
	if vacuous {
		t.Fatal("fixture has no segment holding only spilled records")
	}
	for item := range want {
		want[item] = dedupSegs(want[item])
		got := r.itemSegs[item]
		if fmt.Sprint(got) != fmt.Sprint(want[item]) {
			t.Fatalf("item %d: residency segments %v, want its sparse records' %v", item, got, want[item])
		}
	}
}

// TestLegacySpilledBundleCorruptSkipped flips one byte inside a spilled
// record: Open verifies that record like every other, so the dataset is
// corrupt and skipped while its neighbour is served.
func TestLegacySpilledBundleCorruptSkipped(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	registerOne(t, s, "good", 120)
	s.Close()

	dir := copyLegacy(t, root)
	ds, err := OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	var off int64 = -1
	for _, rec := range ds.idx.Records {
		if rec.Enc != EncSparse && rec.Length > 0 {
			off = rec.parts()[0].Offset + recordHeaderSize
			break
		}
	}
	ds.Close()
	if off < 0 {
		t.Fatal("fixture has no spilled record")
	}
	bp := filepath.Join(dir, bundleName)
	raw, err := os.ReadFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	raw[off] ^= 0x01
	if err := os.WriteFile(bp, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDataset(dir); !errors.Is(err, ErrCorruptBundle) {
		t.Fatalf("OpenDataset with a flipped spilled byte: %v, want ErrCorruptBundle", err)
	}

	var warnings []string
	s2, err := Open(root, func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Get("spilled"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt legacy dataset served: %v", err)
	}
	if _, err := s2.Get("good"); err != nil {
		t.Fatalf("healthy dataset lost: %v", err)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "spilled") {
		t.Fatalf("want one warning for the corrupt legacy dataset, got %q", warnings)
	}
}
