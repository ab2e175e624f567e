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
// horizontal data or by the persistent store's mapping. Its one item
// view — the vertical transform (one tid-set per item), each item in
// its smallest encoding — is built lazily on first use and memoized, so
// repeated jobs never rescan the horizontal data or re-encode it,
// whatever representation they mine in. For store-backed datasets the
// view's sparse items are served zero-copy from the mapped bundle (no
// horizontal pass at all), its packed items are built on the heap from
// them once, and the horizontal data is loaded from disk only if an
// algorithm actually scans it.
type Dataset struct {
	// Name is the registry key.
	Name string

	// info carries the dataset-shape figures; always available without
	// touching horizontal data.
	info DatasetInfo

	// Exactly one of memDB (in-memory registration) and stored
	// (store-backed) is non-nil.
	memDB  *db.Database
	stored *store.Dataset

	// sets is the memoized item view.
	sets func() []tidlist.Set

	// pairs is the dataset's L2 memo, at the lowest support any job on
	// it counted; it goes with the dataset on Remove.
	pairs paircount.Memo
}

// newDataset wraps one registration: memDB for an in-memory dataset,
// stored for a store-backed one.
func newDataset(info DatasetInfo, memDB *db.Database, stored *store.Dataset) *Dataset {
	ds := &Dataset{Name: info.Name, info: info, memDB: memDB, stored: stored}
	ds.sets = sync.OnceValue(func() []tidlist.Set {
		if stored != nil {
			sets, _ := stored.VerticalSets()
			return sets
		}
		return tidlist.Encode(store.VerticalLists(memDB), tidlist.ReprAuto)
	})
	return ds
}

// BytesMapped reports the bytes of bundle data a mine of this dataset
// reads (0 for in-memory datasets) — the figure a job's MemoryBudget is
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

// Horizontal returns the horizontal database, loaded from the store on
// first use for store-backed datasets. The vertical mining path never
// calls this; it exists for the algorithms that genuinely scan
// horizontal data (Apriori, the cluster simulations, ...).
func (ds *Dataset) Horizontal() (*db.Database, error) {
	if ds.stored != nil {
		return ds.stored.Horizontal()
	}
	return ds.memDB, nil
}

// VerticalSets returns the memoized item view (tidlist.Encode under
// ReprAuto), built once and shared — must not be mutated. ok is always
// true (the repro.Source contract): store-backed datasets serve views
// over the mapping, in-memory datasets pay one memoized transform pass,
// so every local Eclat job mines scan-free from here, in whatever
// representation.
func (ds *Dataset) VerticalSets() ([]tidlist.Set, bool) { return ds.sets(), true }

// VerticalSizes reports the encoded size of the whole vertical transform
// under each representation — the dataset-detail figures that let a
// caller see which encoding its tid-lists favor.
func (ds *Dataset) VerticalSizes() (sparse, dense, roaring, auto int64) {
	for _, s := range ds.sets() {
		if s == nil {
			continue
		}
		l := tidlist.TIDsOf(s)
		sp, _ := tidlist.EncodedSize(l, tidlist.ReprSparse)
		de, _ := tidlist.EncodedSize(l, tidlist.ReprBitset)
		ro, _ := tidlist.EncodedSize(l, tidlist.ReprRoaring)
		au, _ := tidlist.EncodedSize(l, tidlist.ReprAuto)
		sparse, dense, roaring, auto = sparse+sp, dense+de, roaring+ro, auto+au
	}
	return sparse, dense, roaring, auto
}

// ItemSupport is one item with its support count.
type ItemSupport struct {
	Item    itemset.Item `json:"item"`
	Support int          `json:"support"`
}

// TopItems returns the n most frequent items, by support descending then
// item ascending, computed from the memoized item view.
func (ds *Dataset) TopItems(n int) []ItemSupport {
	sets := ds.sets()
	out := make([]ItemSupport, 0, len(sets))
	for it, s := range sets {
		if s != nil {
			out = append(out, ItemSupport{Item: itemset.Item(it), Support: s.Support()})
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

// DatasetInfo is the /v1/datasets summary of one dataset: the shape
// figures the store keeps in its index, for in-memory datasets too.
type DatasetInfo struct {
	store.Meta
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
}

// NewRegistry returns an empty registry with no persistence.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*Dataset)}
}

// AttachStore wires the persistent store into the registry: every
// dataset the store already holds is registered store-backed (in sorted
// name order), and subsequent Add/Remove calls persist through it.
func (r *Registry) AttachStore(st *store.Store) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.st != nil {
		return fmt.Errorf("service: registry already has a store attached")
	}
	r.st = st
	for _, name := range st.Names() {
		if _, ok := r.byKey[name]; ok {
			return fmt.Errorf("service: stored dataset %q collides with a registered one", name)
		}
		sd, err := st.Get(name)
		if err != nil {
			return err
		}
		r.insertLocked(storeBackedDataset(sd))
	}
	return nil
}

// storeBackedDataset wraps an opened stored dataset for the registry.
func storeBackedDataset(sd *store.Dataset) *Dataset {
	return newDataset(DatasetInfo{Meta: sd.Meta(), Stored: true}, nil, sd)
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
		ds = storeBackedDataset(sd)
	} else {
		ds = newDataset(DatasetInfo{Meta: store.DatasetMeta(name, source, d)}, d, nil)
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
