package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/db"
	"repro/internal/obsv"
	"repro/internal/tidlist"
)

// Store-health metrics (see /metricsz on the daemon).
const (
	mnStoreBundles     = "store_bundles_total"
	mnStoreBytesMapped = "store_bytes_mapped"
	mnStoreOpenNS      = "store_open_ns"
)

var (
	storeBundles     = obsv.Default.Counter(mnStoreBundles, "bundle files created or opened")
	storeBytesMapped = obsv.Default.Gauge(mnStoreBytesMapped, "bytes of bundle data currently mapped (or loaded on non-mmap platforms)")
	storeOpenNS      = obsv.Default.Histogram(mnStoreOpenNS, "nanoseconds to open one stored dataset (index load, map, checksum verify)", nil)
)

// On-disk names inside a dataset directory.
const (
	datasetSuffix  = ".ds"
	partialSuffix  = ".ds.partial"
	indexName      = "index.json"
	bundleName     = "vertical.bundle"
	horizontalName = "horizontal.db"
)

// indexVersion versions index.json independently of the bundle format.
const indexVersion = 1

// DefaultSegmentBytes is the bundle segment size CreateDataset uses: the
// residency granularity for out-of-core mining. Large enough that sparse
// tid-lists rarely split, small enough that a budget of a few segments
// is a meaningful working set.
const DefaultSegmentBytes int64 = 1 << 20

// Meta is the dataset header carried in the index: identity plus the
// horizontal-shape figures the service reports without loading data.
type Meta struct {
	Name         string  `json:"name"`
	Source       string  `json:"source"`
	Transactions int     `json:"transactions"`
	NumItems     int     `json:"numItems"`
	AvgLen       float64 `json:"avgLen"`
	SizeBytes    int64   `json:"sizeBytes"`
}

// index is the index.json document. BundleBytes is the bundle's
// committed extent. CreateDataset writes it once; nothing appends to a
// bundle after that, but older builds appended spilled records past it
// and could crash mid-append, so bytes past BundleBytes are a torn tail
// that Open truncates.
type index struct {
	Version     int   `json:"version"`
	Meta        Meta  `json:"meta"`
	BundleBytes int64 `json:"bundleBytes"`
	// SegmentBytes is the v2 segment size the bundle was partitioned
	// with; 0 for an unsegmented v1 bundle.
	SegmentBytes int64    `json:"segmentBytes,omitempty"`
	Records      []Record `json:"records"`
}

// Dataset is one stored dataset opened for reading. The sparse tid-lists
// are views over the mapped bundle: immutable, safe for concurrent use,
// and valid until Close. Per the tidlist aliasing contract they may be
// kernel operands but never scratch.
type Dataset struct {
	dir string
	idx index

	data    []byte
	cleanup func() error

	sparse []tidlist.List // index = item; nil where no record
	// mined is the end of the last sparse record: the bytes a mine reads.
	// Past it lie only the packed records an older build spilled.
	mined int64

	horizOnce sync.Once
	horiz     *db.Database
	horizErr  error

	// segsOnce builds itemSegs, the residency segment index, on the
	// dataset's first budgeted mine; every Residency shares it read-only.
	segsOnce sync.Once
	itemSegs [][]int

	gaugeOnce sync.Once

	closeOnce sync.Once
	closeErr  error
}

// CreateDataset writes a complete dataset directory at path using the
// crash-safe protocol: everything lands in path+".partial" first, every
// file and the parent directory are fsynced, then one atomic rename
// publishes the dataset. A crash at any earlier point leaves only a
// partial directory, which Open sweeps away. lists is the per-item
// vertical transform of d (index = item, as built by one horizontal
// pass); items with empty lists get no record.
func CreateDataset(path string, meta Meta, d *db.Database, lists []tidlist.List) error {
	return CreateDatasetSeg(path, meta, d, lists, DefaultSegmentBytes)
}

// CreateDatasetSeg is CreateDataset with an explicit bundle segment
// size. segmentBytes > 0 (a multiple of 8, at least one record header
// plus 8 payload bytes) writes a v2 partitioned bundle whose physical
// records never cross a segment boundary; segmentBytes == 0 writes the
// legacy unsegmented v1 format.
func CreateDatasetSeg(path string, meta Meta, d *db.Database, lists []tidlist.List, segmentBytes int64) error {
	if len(lists) != meta.NumItems {
		return fmt.Errorf("store: %d lists for %d items", len(lists), meta.NumItems)
	}
	if segmentBytes != 0 && (segmentBytes%8 != 0 || segmentBytes < recordHeaderSize+8) {
		return fmt.Errorf("store: invalid segment size %d", segmentBytes)
	}
	tmp := partialPath(path)
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}

	version := uint32(bundleVersion)
	if segmentBytes > 0 {
		version = bundleVersion2
	}
	bundle := appendBundleHeader(nil, version)
	idx := index{Version: indexVersion, Meta: meta, SegmentBytes: segmentBytes}
	var payload []byte
	for item, l := range lists {
		if len(l) == 0 {
			continue
		}
		payload = tidlist.AppendListBytes(payload[:0], l)
		var rec Record
		bundle, rec = appendRecordSeg(bundle, int64(len(bundle)), segmentBytes, item, EncSparse, len(l), payload)
		idx.Records = append(idx.Records, rec)
	}
	idx.BundleBytes = int64(len(bundle))

	if err := writeFileSync(filepath.Join(tmp, bundleName), bundle); err != nil {
		return err
	}
	hf, err := os.Create(filepath.Join(tmp, horizontalName))
	if err != nil {
		return err
	}
	if err := d.Encode(hf); err != nil {
		hf.Close()
		return err
	}
	if err := hf.Sync(); err != nil {
		hf.Close()
		return err
	}
	if err := hf.Close(); err != nil {
		return err
	}
	ib, err := json.MarshalIndent(&idx, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFileSync(filepath.Join(tmp, indexName), append(ib, '\n')); err != nil {
		return err
	}
	if err := syncDir(tmp); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	storeBundles.Inc()
	return syncDir(filepath.Dir(path))
}

// OpenDataset opens the dataset directory at path: loads and checks the
// index against itself and against the horizontal database's header,
// maps the bundle's committed extent (truncating any torn tail an
// older build's crashed spill left behind), and checksum-verifies every
// record before its bytes can be aliased as tid-lists. A malformed index
// or corruption inside the committed extent returns an error matching
// ErrCorruptBundle and leaves the files untouched.
func OpenDataset(path string) (*Dataset, error) {
	start := time.Now()
	ds, err := openDataset(path)
	if err != nil {
		return nil, err
	}
	storeOpenNS.ObserveSince(start)
	storeBundles.Inc()
	return ds, nil
}

func openDataset(path string) (*Dataset, error) {
	ib, err := os.ReadFile(filepath.Join(path, indexName))
	if err != nil {
		return nil, err
	}
	ds := &Dataset{dir: path}
	if err := json.Unmarshal(ib, &ds.idx); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorruptBundle, indexName, err)
	}
	if ds.idx.Version != indexVersion {
		return nil, fmt.Errorf("%w: unsupported index version %d", ErrCorruptBundle, ds.idx.Version)
	}
	if err := ds.idx.check(); err != nil {
		return nil, err
	}
	if err := ds.idx.matchHorizontal(path); err != nil {
		return nil, err
	}

	bp := filepath.Join(path, bundleName)
	f, err := os.OpenFile(bp, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	switch {
	case fi.Size() < ds.idx.BundleBytes:
		return nil, fmt.Errorf("%w: bundle is %d bytes, index commits %d",
			ErrCorruptBundle, fi.Size(), ds.idx.BundleBytes)
	case fi.Size() > ds.idx.BundleBytes:
		// Torn tail from an older build's crashed spill append: the bytes
		// past the committed extent were never referenced by any index,
		// so they are dropped, not data loss.
		if err := f.Truncate(ds.idx.BundleBytes); err != nil {
			return nil, err
		}
		if err := f.Sync(); err != nil {
			return nil, err
		}
	}

	data, cleanup, err := mapFile(f, ds.idx.BundleBytes)
	if err != nil {
		return nil, err
	}
	ds.data, ds.cleanup = data, cleanup
	if err := ds.decode(); err != nil {
		cleanup()
		return nil, err
	}
	storeBytesMapped.Add(int64(len(ds.data)))
	return ds, nil
}

// check rejects an index whose figures would make Open misbehave before
// any record is verified: a negative item count would panic in decode,
// and a committed extent shorter than the header or than a listed record
// would let Open truncate committed bytes. Part ends are compared
// against the extent without overflow.
func (idx *index) check() error {
	if idx.Meta.NumItems < 0 {
		return fmt.Errorf("%w: index lists %d items", ErrCorruptBundle, idx.Meta.NumItems)
	}
	if idx.BundleBytes < bundleHeaderSize {
		return fmt.Errorf("%w: index commits %d bytes, less than the bundle header", ErrCorruptBundle, idx.BundleBytes)
	}
	for _, rec := range idx.Records {
		for _, p := range rec.parts() {
			// room cannot overflow once Offset is past the header, and
			// paddedLen cannot once Length fits in room.
			room := idx.BundleBytes - recordHeaderSize - p.Offset
			if p.Offset < bundleHeaderSize || p.Length < 0 || p.Length > room || paddedLen(p.Length) > room {
				return fmt.Errorf("%w: record for item %d at offset %d, length %d lies outside committed extent %d",
					ErrCorruptBundle, rec.Item, p.Offset, p.Length, idx.BundleBytes)
			}
		}
	}
	return nil
}

// matchHorizontal compares the index's item and transaction counts with
// the header of the horizontal database the same CreateDataset call
// wrote next to it, so that an index edited or damaged after the fact
// is refused before decode allocates one list per indexed item. It
// reads the header's 12 bytes and nothing else.
func (idx *index) matchHorizontal(dir string) error {
	f, err := os.Open(filepath.Join(dir, horizontalName))
	if err != nil {
		return err
	}
	defer f.Close()
	numItems, numTx, err := db.DecodeHeader(f)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorruptBundle, horizontalName, err)
	}
	if numItems != idx.Meta.NumItems || numTx != idx.Meta.Transactions {
		return fmt.Errorf("%w: index lists %d items and %d transactions, %s holds %d and %d",
			ErrCorruptBundle, idx.Meta.NumItems, idx.Meta.Transactions, horizontalName, numItems, numTx)
	}
	return nil
}

// decode verifies the header and every record, building the per-item
// sparse views. Bitset and roaring records, which older builds spilled
// after the sparse ones, are verified like every record and skipped.
func (ds *Dataset) decode() error {
	if err := checkBundleHeader(ds.data); err != nil {
		return err
	}
	ds.sparse = make([]tidlist.List, ds.idx.Meta.NumItems)
	ds.mined = bundleHeaderSize
	for _, rec := range ds.idx.Records {
		if rec.Item < 0 || rec.Item >= ds.idx.Meta.NumItems {
			return fmt.Errorf("%w: record for out-of-range item %d", ErrCorruptBundle, rec.Item)
		}
		payload, err := recordPayload(ds.data, rec)
		if err != nil {
			return err
		}
		switch rec.Enc {
		case EncSparse:
			l, err := tidlist.ListFromBytes(payload)
			if err != nil {
				return fmt.Errorf("%w: item %d: %v", ErrCorruptBundle, rec.Item, err)
			}
			if len(l) != rec.Support {
				return fmt.Errorf("%w: item %d has %d tids, index says %d",
					ErrCorruptBundle, rec.Item, len(l), rec.Support)
			}
			ds.sparse[rec.Item] = l
			for _, p := range rec.parts() {
				ds.mined = max(ds.mined, p.Offset+recordHeaderSize+paddedLen(p.Length))
			}
		case EncBitset, EncRoaring:
			// An older build's spill: verified above, never read.
		default:
			return fmt.Errorf("%w: item %d has unknown encoding %d", ErrCorruptBundle, rec.Item, rec.Enc)
		}
	}
	return nil
}

// Meta returns the dataset header.
func (ds *Dataset) Meta() Meta { return ds.idx.Meta }

// NumTransactions is |D|, read off the dataset header. Together with
// Horizontal and VerticalSets it makes *Dataset a repro.Source, so
// callers hand a stored dataset straight to repro.MineFrom.
func (ds *Dataset) NumTransactions() int { return ds.idx.Meta.Transactions }

// VerticalSets is the dataset's item view, Sets(tidlist.ReprAuto), with
// the repro.Source ok contract: the store always serves the vertical
// transform without a horizontal scan, so ok is always true.
func (ds *Dataset) VerticalSets() ([]tidlist.Set, bool) {
	return ds.Sets(tidlist.ReprAuto), true
}

// SparseLists returns the per-item sparse tid-lists as views over the
// mapping (index = item; nil for items with no transactions). The slice
// and the lists are immutable.
func (ds *Dataset) SparseLists() []tidlist.List { return ds.sparse }

// Sets returns the vertical transform as []tidlist.Set under the given
// representation (see tidlist.Encode): sparse items are views over the
// mapping, bitset and roaring items are encoded on the heap from them.
// The result is immutable.
func (ds *Dataset) Sets(r tidlist.Repr) []tidlist.Set { return tidlist.Encode(ds.sparse, r) }

// Horizontal lazily decodes the stored horizontal database. The vertical
// mining path never calls this; it exists for algorithms that still scan
// horizontally (apriori and friends) and costs one file read on first
// use.
func (ds *Dataset) Horizontal() (*db.Database, error) {
	ds.horizOnce.Do(func() {
		f, err := os.Open(filepath.Join(ds.dir, horizontalName))
		if err != nil {
			ds.horizErr = err
			return
		}
		defer f.Close()
		ds.horiz, ds.horizErr = db.Decode(f)
	})
	return ds.horiz, ds.horizErr
}

// BytesMapped returns the bytes of the mapping a mine reads, the figure
// a memory budget is compared with: the end of the last sparse record.
// For every bundle this build writes that is the whole committed extent;
// an older build's spilled records past it stay mapped but are never
// read.
func (ds *Dataset) BytesMapped() int64 { return ds.mined }

// SegmentBytes returns the bundle's segment size, or 0 for an
// unsegmented v1 bundle.
func (ds *Dataset) SegmentBytes() int64 { return ds.idx.SegmentBytes }

// releaseMapped retires this dataset's contribution to the
// store_bytes_mapped gauge. Idempotent. Called from Close and from
// Store.Remove — a removed dataset's mapping may outlive removal while
// orphaned views drain, but it no longer counts as live store footprint.
func (ds *Dataset) releaseMapped() {
	ds.gaugeOnce.Do(func() {
		storeBytesMapped.Add(-int64(len(ds.data)))
	})
}

// Close releases the mapping. Every view handed out becomes invalid;
// callers must drop their Dataset references first.
func (ds *Dataset) Close() error {
	ds.closeOnce.Do(func() {
		if ds.cleanup != nil {
			ds.releaseMapped()
			ds.closeErr = ds.cleanup()
		}
		ds.data, ds.sparse, ds.mined = nil, nil, 0
	})
	return ds.closeErr
}

// DatasetMeta derives the stored header for d.
func DatasetMeta(name, source string, d *db.Database) Meta {
	return Meta{
		Name:         name,
		Source:       source,
		Transactions: d.Len(),
		NumItems:     d.NumItems,
		AvgLen:       d.AvgLen(),
		SizeBytes:    d.SizeBytes(),
	}
}

// VerticalLists builds the per-item vertical transform of d, the slice
// CreateDataset persists: one horizontal pass counts each item's
// transactions, and tidlist.ItemLists fills the presized lists in a
// second.
func VerticalLists(d *db.Database) []tidlist.List {
	counts := make([]int, d.NumItems)
	for _, tx := range d.Transactions {
		for _, it := range tx.Items {
			counts[it]++
		}
	}
	lists, _ := tidlist.ItemLists(nil, nil, d, counts)
	return lists
}

// partialPath is the temporary directory name CreateDataset stages into.
func partialPath(path string) string {
	if strings.HasSuffix(path, datasetSuffix) {
		return strings.TrimSuffix(path, datasetSuffix) + partialSuffix
	}
	return path + ".partial"
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames and creates inside it are
// durable. Some filesystems reject directory fsync; that is loss of
// durability, not correctness, so unsupported errors are ignored.
func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return err
	}
	return nil
}
