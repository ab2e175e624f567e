package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro"
	"repro/internal/db"
	"repro/internal/itemset"
	"repro/internal/paircount"
	"repro/internal/store"
	"repro/internal/tidlist"
)

// Registered datasets are repro.Sources: runJob hands them straight to
// repro.MineFrom, which picks the vertical or horizontal path itself.
var _ repro.Source = (*Dataset)(nil)

// ErrUnknownDataset is returned for dataset names not in the registry.
var ErrUnknownDataset = errors.New("service: unknown dataset")

// ErrDatasetExists is returned by Add for names already registered.
var ErrDatasetExists = errors.New("service: dataset already registered")

// Dataset is one registered database, backed either by in-memory
// horizontal data or by the persistent store's mapping. The vertical
// tid-list transformation (one tid-list per item) is computed lazily on
// first use and memoized — once per representation — so repeated
// item-level queries never rescan the horizontal data and never
// re-encode a transform they already have. For store-backed datasets the
// sparse transform is served zero-copy from the mapped bundle (no
// horizontal pass at all), the dense transform is served from the
// mapping when a previous process spilled it, and the horizontal data is
// loaded from disk only if an algorithm actually scans it.
type Dataset struct {
	// Name is the registry key.
	Name string
	// Source describes where the data came from (file path, "generated",
	// "stored", ...), for /v1/datasets.
	Source string

	// info carries the dataset-shape figures; always available without
	// touching horizontal data.
	info DatasetInfo

	// Exactly one of memDB (in-memory registration) and stored
	// (store-backed) is non-nil at construction; memDB may be filled
	// later by a lazy Database() load.
	memDB  *db.Database
	stored *store.Dataset

	dbOnce sync.Once
	dbErr  error

	// logf receives spill warnings (nil: discarded).
	logf func(format string, args ...any)

	verticalOnce sync.Once
	vertical     []tidlist.List // index = item; nil until first use

	bitsetOnce sync.Once
	bitsets    []*tidlist.Bitset // index = item; nil until first use

	roaringOnce sync.Once
	roarings    []*tidlist.Roaring // index = item; nil until first use

	// The four VerticalSets slices, memoized per representation so jobs
	// never rebuild them (ReprAuto in particular re-ran EncodedSize over
	// every item on each call before this cache existed).
	sparseSetsOnce  sync.Once
	sparseSets      []tidlist.Set
	bitsetSetsOnce  sync.Once
	bitsetSets      []tidlist.Set
	roaringSetsOnce sync.Once
	roaringSets     []tidlist.Set
	autoSetsOnce    sync.Once
	autoSets        []tidlist.Set

	// pairs is the dataset's L2 memo, at the lowest support any job on
	// it counted; it goes with the dataset on Remove.
	pairs paircount.Memo
}

// StoreBacked reports whether this dataset serves its vertical transform
// from the persistent store's mapping.
func (ds *Dataset) StoreBacked() bool { return ds.stored != nil }

// BytesMapped reports the bytes of bundle data this dataset's mapping
// pins (0 for in-memory datasets) — the figure a job's MemoryBudget is
// compared against. Together with NewResidency it makes a store-backed
// *Dataset satisfy repro's optional residencySource interface, so
// MineFrom can pick the out-of-core path.
func (ds *Dataset) BytesMapped() int64 {
	if ds.stored == nil {
		return 0
	}
	return ds.stored.BytesMapped()
}

// NewResidency forwards to the stored dataset's residency constructor;
// nil for in-memory datasets or budgets the mapping already fits.
func (ds *Dataset) NewResidency(budget int64) *store.Residency {
	if ds.stored == nil {
		return nil
	}
	return ds.stored.NewResidency(budget)
}

// PairMemo returns the dataset's L2 memo. It makes *Dataset satisfy
// repro's optional pairMemoSource interface, so a job at or above the
// lowest support counted on this dataset filters its frequent pairs
// instead of counting them.
func (ds *Dataset) PairMemo() *paircount.Memo { return &ds.pairs }

// Info returns the dataset-shape summary without loading any data.
func (ds *Dataset) Info() DatasetInfo { return ds.info }

// NumTransactions is |D|, read off the registered shape metadata.
// Together with Horizontal and VerticalSets it makes *Dataset a
// repro.Source: runJob hands datasets straight to repro.MineFrom without
// branching on where the data lives.
func (ds *Dataset) NumTransactions() int { return ds.info.Transactions }

// Horizontal returns the horizontal database (repro.Source spelling of
// Database).
func (ds *Dataset) Horizontal() (*db.Database, error) { return ds.Database() }

// Database returns the horizontal database, loading it from the store on
// first use for store-backed datasets. The vertical mining path never
// calls this; it exists for the algorithms that genuinely scan
// horizontal data (Apriori, the cluster simulations, ...).
func (ds *Dataset) Database() (*db.Database, error) {
	ds.dbOnce.Do(func() {
		if ds.memDB != nil {
			return
		}
		ds.memDB, ds.dbErr = ds.stored.Horizontal()
	})
	return ds.memDB, ds.dbErr
}

// Vertical returns the memoized per-item tid-lists of the dataset — the
// paper's vertical layout at the 1-itemset level. In-memory datasets pay
// one pass over the horizontal data on first call; store-backed datasets
// return views over the mapped bundle and never scan. The returned slice
// and its lists are shared and must not be mutated (store-backed lists
// alias read-only mapped memory).
func (ds *Dataset) Vertical() []tidlist.List {
	ds.verticalOnce.Do(func() {
		if ds.stored != nil {
			ds.vertical = ds.stored.SparseLists()
			return
		}
		ds.vertical = store.VerticalLists(ds.memDB)
	})
	return ds.vertical
}

// VerticalBitsets returns the memoized dense encoding of the vertical
// transform (one Bitset per item; empty items get an empty Bitset).
// Store-backed datasets serve it from the mapping when a previous
// process spilled it; otherwise the transform is computed once and then
// spilled to the store so the next open of the dataset gets it for free.
// Shared — must not be mutated.
func (ds *Dataset) VerticalBitsets() []*tidlist.Bitset {
	ds.bitsetOnce.Do(func() {
		if ds.stored != nil {
			if stored, ok := ds.stored.Bitsets(); ok {
				sets := make([]*tidlist.Bitset, len(stored))
				for it, b := range stored {
					if b == nil {
						b = tidlist.NewBitset(nil)
					}
					sets[it] = b
				}
				ds.bitsets = sets
				return
			}
		}
		vert := ds.Vertical()
		sets := make([]*tidlist.Bitset, len(vert))
		for it, l := range vert {
			sets[it] = tidlist.NewBitset(l)
		}
		ds.bitsets = sets
		if ds.stored != nil {
			if err := ds.stored.AppendBitsets(sets); err != nil && ds.logf != nil {
				ds.logf("service: spilling dense transform of %q failed: %v", ds.Name, err)
			}
		}
	})
	return ds.bitsets
}

// VerticalRoarings returns the memoized containerized encoding of the
// vertical transform (one Roaring per item; empty items get an empty
// Roaring). Store-backed datasets serve it from the mapping when a
// previous process spilled it; otherwise the transform is computed once
// and spilled so the next open gets it for free. Shared — must not be
// mutated.
func (ds *Dataset) VerticalRoarings() []*tidlist.Roaring {
	ds.roaringOnce.Do(func() {
		if ds.stored != nil {
			if stored, ok := ds.stored.Roarings(); ok {
				sets := make([]*tidlist.Roaring, len(stored))
				for it, r := range stored {
					if r == nil {
						r = tidlist.NewRoaring(nil)
					}
					sets[it] = r
				}
				ds.roarings = sets
				return
			}
		}
		vert := ds.Vertical()
		sets := make([]*tidlist.Roaring, len(vert))
		for it, l := range vert {
			sets[it] = tidlist.NewRoaring(l)
		}
		ds.roarings = sets
		if ds.stored != nil {
			if err := ds.stored.AppendRoarings(sets); err != nil && ds.logf != nil {
				ds.logf("service: spilling containerized transform of %q failed: %v", ds.Name, err)
			}
		}
	})
	return ds.roarings
}

// VerticalSets returns the memoized vertical transform under the given
// representation as []tidlist.Set (ReprAuto picks per item by density —
// each item's list in whichever encoding is smaller, mixing
// representations within one dataset). Each representation's slice is
// built once and shared — must not be mutated. ok is always true (the
// repro.Source contract): store-backed datasets serve views over the
// mapping, in-memory datasets pay one memoized transform pass, so every
// local Eclat job mines scan-free from here.
func (ds *Dataset) VerticalSets(r tidlist.Repr) ([]tidlist.Set, bool) {
	switch r {
	case tidlist.ReprBitset:
		ds.bitsetSetsOnce.Do(func() {
			dense := ds.VerticalBitsets()
			out := make([]tidlist.Set, len(dense))
			for it, b := range dense {
				out[it] = b
			}
			ds.bitsetSets = out
		})
		return ds.bitsetSets, true
	case tidlist.ReprSparse:
		ds.sparseSetsOnce.Do(func() {
			vert := ds.Vertical()
			out := make([]tidlist.Set, len(vert))
			for it, l := range vert {
				out[it] = l
			}
			ds.sparseSets = out
		})
		return ds.sparseSets, true
	case tidlist.ReprRoaring:
		ds.roaringSetsOnce.Do(func() {
			roarings := ds.VerticalRoarings()
			out := make([]tidlist.Set, len(roarings))
			for it, r := range roarings {
				out[it] = r
			}
			ds.roaringSets = out
		})
		return ds.roaringSets, true
	default: // ReprAuto: per-item cheapest encoding
		ds.autoSetsOnce.Do(func() {
			vert := ds.Vertical()
			out := make([]tidlist.Set, len(vert))
			var dense []*tidlist.Bitset
			var roarings []*tidlist.Roaring
			for it, l := range vert {
				switch _, enc := tidlist.EncodedSize(l, tidlist.ReprAuto); enc {
				case tidlist.ReprBitset:
					if dense == nil {
						dense = ds.VerticalBitsets()
					}
					out[it] = dense[it]
				case tidlist.ReprRoaring:
					if roarings == nil {
						roarings = ds.VerticalRoarings()
					}
					out[it] = roarings[it]
				default:
					out[it] = l
				}
			}
			ds.autoSets = out
		})
		return ds.autoSets, true
	}
}

// VerticalSizes reports the encoded size of the whole vertical transform
// under each representation — the dataset-detail figures that let a
// caller see which encoding its tid-lists favor.
func (ds *Dataset) VerticalSizes() (sparse, dense, roaring, auto int64) {
	for _, l := range ds.Vertical() {
		s, _ := tidlist.EncodedSize(l, tidlist.ReprSparse)
		d, _ := tidlist.EncodedSize(l, tidlist.ReprBitset)
		r, _ := tidlist.EncodedSize(l, tidlist.ReprRoaring)
		a, _ := tidlist.EncodedSize(l, tidlist.ReprAuto)
		sparse, dense, roaring, auto = sparse+s, dense+d, roaring+r, auto+a
	}
	return sparse, dense, roaring, auto
}

// ItemSupport is one item with its support count.
type ItemSupport struct {
	Item    itemset.Item `json:"item"`
	Support int          `json:"support"`
}

// TopItems returns the n most frequent items, by support descending then
// item ascending, computed from the memoized vertical transform.
func (ds *Dataset) TopItems(n int) []ItemSupport {
	vert := ds.Vertical()
	out := make([]ItemSupport, 0, len(vert))
	for it, l := range vert {
		if len(l) > 0 {
			out = append(out, ItemSupport{Item: itemset.Item(it), Support: l.Support()})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].Item < out[j].Item
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// DatasetInfo is the /v1/datasets summary of one dataset.
type DatasetInfo struct {
	Name         string  `json:"name"`
	Source       string  `json:"source"`
	Transactions int     `json:"transactions"`
	NumItems     int     `json:"numItems"`
	AvgLen       float64 `json:"avgLen"`
	SizeBytes    int64   `json:"sizeBytes"`
	// Stored reports whether the dataset is persisted in the daemon's
	// data directory (and therefore survives restarts).
	Stored bool `json:"stored,omitempty"`
}

// Registry holds the registered datasets. Registration happens at daemon
// startup and over HTTP; lookups are concurrent. With a store attached,
// Add persists new datasets and Remove evicts them from disk.
type Registry struct {
	mu    sync.RWMutex
	byKey map[string]*Dataset
	names []string
	st    *store.Store
	logf  func(format string, args ...any)
}

// NewRegistry returns an empty registry with no persistence.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*Dataset)}
}

// AttachStore wires the persistent store into the registry: every
// dataset the store already holds is registered store-backed (in sorted
// name order), and subsequent Add/Remove calls persist through it. logf
// receives spill warnings; nil discards them.
func (r *Registry) AttachStore(st *store.Store, logf func(format string, args ...any)) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.st != nil {
		return fmt.Errorf("service: registry already has a store attached")
	}
	r.st = st
	r.logf = logf
	for _, name := range st.Names() {
		if _, ok := r.byKey[name]; ok {
			return fmt.Errorf("service: stored dataset %q collides with a registered one", name)
		}
		sd, err := st.Get(name)
		if err != nil {
			return err
		}
		r.insertLocked(storeBackedDataset(sd, logf))
	}
	return nil
}

// storeBackedDataset wraps an opened stored dataset for the registry.
func storeBackedDataset(sd *store.Dataset, logf func(format string, args ...any)) *Dataset {
	m := sd.Meta()
	return &Dataset{
		Name:   m.Name,
		Source: m.Source,
		info: DatasetInfo{
			Name:         m.Name,
			Source:       m.Source,
			Transactions: m.Transactions,
			NumItems:     m.NumItems,
			AvgLen:       m.AvgLen,
			SizeBytes:    m.SizeBytes,
			Stored:       true,
		},
		stored: sd,
		logf:   logf,
	}
}

// Add registers d under name; duplicate names are ErrDatasetExists. With
// a store attached the dataset is persisted first (crash-safe) and
// registered store-backed, so even the registering process mines from
// the mapping.
func (r *Registry) Add(name, source string, d *db.Database) (*Dataset, error) {
	if name == "" {
		return nil, fmt.Errorf("service: empty dataset name")
	}
	if d == nil || d.Len() == 0 {
		return nil, fmt.Errorf("service: dataset %q is empty", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byKey[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDatasetExists, name)
	}
	var ds *Dataset
	if r.st != nil {
		sd, err := r.st.Register(store.DatasetMeta(name, source, d), d, store.VerticalLists(d))
		if err != nil {
			return nil, err
		}
		ds = storeBackedDataset(sd, r.logf)
	} else {
		ds = &Dataset{
			Name:   name,
			Source: source,
			info: DatasetInfo{
				Name:         name,
				Source:       source,
				Transactions: d.Len(),
				NumItems:     d.NumItems,
				AvgLen:       d.AvgLen(),
				SizeBytes:    d.SizeBytes(),
			},
			memDB: d,
		}
	}
	r.insertLocked(ds)
	return ds, nil
}

// insertLocked adds ds to the map and name order; r.mu must be held.
func (r *Registry) insertLocked(ds *Dataset) {
	r.byKey[ds.Name] = ds
	r.names = append(r.names, ds.Name)
}

// Remove unregisters name, deleting it from the persistent store when
// the dataset is store-backed. Views already handed out stay valid until
// the store is closed. Unknown names are ErrUnknownDataset. Whether the
// dataset is safe to remove (no jobs referencing it) is the caller's
// check — the registry has no job visibility.
func (r *Registry) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	ds, ok := r.byKey[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	if ds.stored != nil && r.st != nil {
		if err := r.st.Remove(name); err != nil {
			return err
		}
	}
	delete(r.byKey, name)
	for i, n := range r.names {
		if n == name {
			r.names = append(r.names[:i], r.names[i+1:]...)
			break
		}
	}
	return nil
}

// Get looks a dataset up by name.
func (r *Registry) Get(name string) (*Dataset, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ds, ok := r.byKey[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	return ds, nil
}

// List returns summaries of all datasets in registration order.
func (r *Registry) List() []DatasetInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]DatasetInfo, 0, len(r.names))
	for _, name := range r.names {
		out = append(out, r.byKey[name].info)
	}
	return out
}
