package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tidlist"
)

// createSeg writes a dataset directory with an explicit segment size and
// opens it, failing the test on any error.
func createSeg(t *testing.T, numTx int, segBytes int64) (*Dataset, []tidlist.List) {
	t.Helper()
	d := testDB(t, numTx)
	lists := VerticalLists(d)
	path := filepath.Join(t.TempDir(), "seg"+datasetSuffix)
	if err := CreateDatasetSeg(path, DatasetMeta("seg", "test", d), d, lists, segBytes); err != nil {
		t.Fatalf("CreateDatasetSeg(%d): %v", segBytes, err)
	}
	ds, err := OpenDataset(path)
	if err != nil {
		t.Fatalf("OpenDataset: %v", err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds, lists
}

// assertSegmented checks the v2 invariants of every record: parts never
// cross a segment boundary, per-record part lengths sum to Length, and
// multi-part records exist at all (the test would be vacuous otherwise).
func assertSegmented(t *testing.T, ds *Dataset, segBytes int64) {
	t.Helper()
	multi := 0
	for _, rec := range ds.idx.Records {
		var sum int64
		for _, p := range rec.parts() {
			if p.Offset%8 != 0 {
				t.Fatalf("item %d: part offset %d not 8-aligned", rec.Item, p.Offset)
			}
			end := p.Offset + recordHeaderSize + paddedLen(p.Length)
			if p.Offset/segBytes != (end-1)/segBytes {
				t.Fatalf("item %d: part [%d,%d) crosses a %d-byte segment boundary",
					rec.Item, p.Offset, end, segBytes)
			}
			sum += p.Length
		}
		if sum != rec.Length {
			t.Fatalf("item %d: part lengths sum to %d, record says %d", rec.Item, sum, rec.Length)
		}
		if len(rec.Parts) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no multi-part records; segment size too large for this dataset to exercise v2")
	}
}

func TestV2MultiSegmentRoundTrip(t *testing.T) {
	const segBytes = 64
	ds, lists := createSeg(t, 300, segBytes)
	if ds.SegmentBytes() != segBytes {
		t.Fatalf("SegmentBytes() = %d, want %d", ds.SegmentBytes(), segBytes)
	}
	assertSegmented(t, ds, segBytes)
	// Partitioned payloads reassemble losslessly into the same tid-lists.
	assertListsEqual(t, ds.SparseLists(), lists)
}

func TestV1BackwardCompat(t *testing.T) {
	// segmentBytes == 0 writes the legacy unsegmented format: version-1
	// header, no parts anywhere, and it opens like any pre-v2 dataset.
	ds, lists := createSeg(t, 200, 0)
	if ds.SegmentBytes() != 0 {
		t.Fatalf("SegmentBytes() = %d, want 0", ds.SegmentBytes())
	}
	if v := ds.data[4]; v != bundleVersion {
		t.Fatalf("bundle header version %d, want %d", v, bundleVersion)
	}
	for _, rec := range ds.idx.Records {
		if len(rec.Parts) != 0 {
			t.Fatalf("item %d: v1 bundle has a partitioned record", rec.Item)
		}
	}
	assertListsEqual(t, ds.SparseLists(), lists)
}

func TestCreateDatasetSegRejectsBadSizes(t *testing.T) {
	d := testDB(t, 20)
	lists := VerticalLists(d)
	for _, bad := range []int64{-8, 4, 12, recordHeaderSize, recordHeaderSize + 4} {
		path := filepath.Join(t.TempDir(), "bad"+datasetSuffix)
		if err := CreateDatasetSeg(path, DatasetMeta("bad", "test", d), d, lists, bad); err == nil {
			t.Errorf("CreateDatasetSeg accepted segment size %d", bad)
		}
	}
}

func TestV2TornTailInsideSegment(t *testing.T) {
	// An older build's crashed spill can leave a torn tail that starts
	// mid-segment and bleeds into the next one. Open must truncate it back to the
	// committed extent and every partitioned record must still verify.
	const segBytes = 64
	ds, lists := createSeg(t, 250, segBytes)
	dir := ds.dir
	ds.Close()

	bp := filepath.Join(dir, bundleName)
	fi, err := os.Stat(bp)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size()%segBytes == 0 {
		t.Skip("committed extent ends exactly on a segment boundary; torn tail would not be mid-segment")
	}
	f, err := os.OpenFile(bp, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, 3*segBytes/2) // spans the boundary into the next segment
	for i := range garbage {
		garbage[i] = 0xa5
	}
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ds2, err := OpenDataset(dir)
	if err != nil {
		t.Fatalf("open with torn mid-segment tail: %v", err)
	}
	defer ds2.Close()
	assertListsEqual(t, ds2.SparseLists(), lists)
	fi, err = os.Stat(bp)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != ds2.idx.BundleBytes {
		t.Fatalf("torn tail not truncated: %d bytes on disk, %d committed", fi.Size(), ds2.idx.BundleBytes)
	}
}

func TestBytesMappedGaugeReturnsToZero(t *testing.T) {
	baseline := storeBytesMapped.Value()
	root := t.TempDir()
	s, err := Open(root, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, ds := registerOne(t, s, "gauge", 150)
	if g := storeBytesMapped.Value(); g <= baseline {
		t.Fatalf("gauge %d after register, want > baseline %d", g, baseline)
	}
	// Remove retires the mapping's gauge contribution even though the
	// orphaned views stay readable until the store closes.
	if err := s.Remove("gauge"); err != nil {
		t.Fatal(err)
	}
	if g := storeBytesMapped.Value(); g != baseline {
		t.Fatalf("gauge %d after Remove, want baseline %d", g, baseline)
	}
	// The eventual Close of the orphan must not double-decrement.
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if g := storeBytesMapped.Value(); g != baseline {
		t.Fatalf("gauge %d after orphan Close, want baseline %d (no double decrement)", g, baseline)
	}
}

func TestResidencyLifecycle(t *testing.T) {
	const segBytes = 64
	ds, _ := createSeg(t, 300, segBytes)

	// Budgeting is moot when the whole mapping fits (or no budget given).
	if r := ds.NewResidency(0); r != nil {
		t.Fatal("NewResidency(0) != nil")
	}
	if r := ds.NewResidency(ds.BytesMapped()); r != nil {
		t.Fatal("NewResidency(whole mapping) != nil")
	}

	r := ds.NewResidency(2 * segBytes)
	if r == nil {
		t.Fatal("NewResidency(2 segments) = nil")
	}
	if r.NumSegments() < 3 {
		t.Fatalf("only %d segments; dataset too small to exercise eviction", r.NumSegments())
	}
	if r.SegmentBytes() != segBytes {
		t.Fatalf("SegmentBytes() = %d, want %d", r.SegmentBytes(), segBytes)
	}

	// Two classes over disjoint-ish item sets.
	items := []int{}
	for it := range ds.sparse {
		if len(ds.sparse[it]) > 0 {
			items = append(items, it)
		}
	}
	if len(items) < 4 {
		t.Fatalf("only %d non-empty items", len(items))
	}
	if s := r.ItemSegment(items[0]); s < 0 {
		t.Fatalf("ItemSegment(%d) = %d for a stored item", items[0], s)
	}
	if s := r.ItemSegment(len(ds.sparse) + 7); s != -1 {
		t.Fatalf("ItemSegment(out of range) = %d, want -1", s)
	}

	evictionsBefore := storeEvictions.Value()
	half := len(items) / 2
	r.Plan([][]int{items[:half], items[half:]})
	r.Acquire(0)
	if n := r.ResidentSegments(); n == 0 {
		t.Fatal("no segments resident after Acquire")
	}
	r.Release(0)
	r.Acquire(1)
	r.Release(1)
	// Every class released its claims, so class-death eviction has
	// dropped everything.
	if n := r.ResidentSegments(); n != 0 {
		t.Fatalf("%d segments resident after releasing every class", n)
	}
	if storeEvictions.Value() == evictionsBefore {
		t.Fatal("eviction counter did not advance")
	}
	// Done is idempotent and leaves nothing resident on any path.
	r.Done()
	r.Done()
	if n := r.ResidentSegments(); n != 0 {
		t.Fatalf("%d segments resident after Done", n)
	}
}

func TestResidencyBudgetEvictsOldest(t *testing.T) {
	const segBytes = 64
	ds, _ := createSeg(t, 300, segBytes)
	r := ds.NewResidency(segBytes) // one-segment budget
	if r == nil {
		t.Fatal("NewResidency = nil")
	}
	// One single-item class per stored item: acquiring them one after
	// another (holding each, as a one-worker mine does) must keep
	// residency near the budget by evicting the previous class's idle
	// segments.
	var classes [][]int
	for it := range ds.sparse {
		if len(ds.sparse[it]) > 0 {
			classes = append(classes, []int{it})
		}
	}
	r.Plan(classes)
	maxResident := 0
	for ci := range classes {
		r.Acquire(ci)
		if n := r.ResidentSegments(); n > maxResident {
			maxResident = n
		}
		r.Release(ci)
	}
	// A single class may legitimately overshoot the budget (its own
	// segments are never evicted under it), but residency must not grow
	// with the number of classes.
	limit := 0
	for _, c := range classes {
		if n := len(r.itemSegs[c[0]]); n > limit {
			limit = n
		}
	}
	if maxResident > limit {
		t.Fatalf("residency climbed to %d segments; largest single class needs %d", maxResident, limit)
	}
	r.Done()
	if _, err := os.Stat(filepath.Join(ds.dir, bundleName)); err != nil {
		t.Fatal(err)
	}
	// Eviction is a paging hint, not an invalidation: views read fine
	// after everything was advised away.
	if errors.Is(checkBundleHeader(ds.data), ErrCorruptBundle) {
		t.Fatal("mapping unreadable after eviction")
	}
}
