package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/db"
	"repro/internal/tidlist"
)

// ErrDatasetExists is returned by Register when the store already holds
// a dataset with that name.
var ErrDatasetExists = errors.New("store: dataset already exists")

// ErrNotFound is returned by Get and Remove for names the store does not
// hold.
var ErrNotFound = errors.New("store: dataset not found")

// Store manages a root directory of dataset directories
// (<root>/<name>.ds). Open sweeps crash leftovers and maps every healthy
// dataset; corrupt ones are skipped with a warning instead of failing
// the whole store, so one bad dataset can never keep a daemon from
// starting.
type Store struct {
	root string
	logf func(format string, args ...any)

	mu sync.Mutex
	ds map[string]*Dataset
	// orphans are removed datasets whose mappings stay alive until Close:
	// views handed out before Remove must outlive the unlink (safe on
	// unix, where the kernel keeps unlinked mapped pages valid).
	orphans []*Dataset
}

// Open opens (creating if needed) the store rooted at root. logf
// receives warnings about skipped corrupt datasets; nil discards them.
func Open(root string, logf func(format string, args ...any)) (*Store, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	s := &Store{root: root, logf: logf, ds: make(map[string]*Dataset)}

	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		switch {
		case strings.HasSuffix(e.Name(), partialSuffix):
			// A crashed registration never published; sweep it.
			if err := os.RemoveAll(filepath.Join(root, e.Name())); err != nil {
				return nil, err
			}
		case strings.HasSuffix(e.Name(), datasetSuffix):
			name := strings.TrimSuffix(e.Name(), datasetSuffix)
			ds, err := OpenDataset(filepath.Join(root, e.Name()))
			if err != nil {
				if errors.Is(err, ErrCorruptBundle) || errors.Is(err, fs.ErrNotExist) {
					logf("store: skipping dataset %q: %v", name, err)
					continue
				}
				s.Close()
				return nil, fmt.Errorf("store: open dataset %q: %w", name, err)
			}
			if ds.Meta().Name != name {
				logf("store: skipping dataset %q: index names it %q", name, ds.Meta().Name)
				ds.Close()
				continue
			}
			s.ds[name] = ds
		}
	}
	return s, nil
}

// Names returns the stored dataset names, sorted.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.ds))
	for n := range s.ds {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Get returns the opened dataset for name, or ErrNotFound.
func (s *Store) Get(name string) (*Dataset, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ds, ok := s.ds[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return ds, nil
}

// Register persists meta/d/lists as a new dataset directory (crash-safe:
// staged under a partial name, fsynced, atomically renamed) and returns
// it opened for reading. The returned dataset serves views over the
// freshly written bundle, so registration immediately switches callers
// to the same mapped path a restart would use.
func (s *Store) Register(meta Meta, d *db.Database, lists []tidlist.List) (*Dataset, error) {
	if err := validName(meta.Name); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.ds[meta.Name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDatasetExists, meta.Name)
	}
	path := filepath.Join(s.root, meta.Name+datasetSuffix)
	if err := CreateDataset(path, meta, d, lists); err != nil {
		return nil, err
	}
	ds, err := OpenDataset(path)
	if err != nil {
		return nil, err
	}
	s.ds[meta.Name] = ds
	return ds, nil
}

// Remove deletes name's dataset directory. The mapping is intentionally
// left alive until Close so views already handed out stay valid; on unix
// the unlinked files' pages remain readable through the mapping.
func (s *Store) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ds, ok := s.ds[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if err := os.RemoveAll(filepath.Join(s.root, name+datasetSuffix)); err != nil {
		return err
	}
	delete(s.ds, name)
	// The orphaned mapping stays alive until Close so outstanding views
	// keep working, but a removed dataset no longer counts as mapped
	// store footprint.
	ds.releaseMapped()
	s.orphans = append(s.orphans, ds)
	return syncDir(s.root)
}

// Close unmaps every dataset, including ones removed earlier. All views
// become invalid.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, ds := range s.ds {
		if err := ds.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, ds := range s.orphans {
		if err := ds.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.ds, s.orphans = map[string]*Dataset{}, nil
	return first
}

// validName rejects names that would escape the root or collide with the
// store's suffix conventions.
func validName(name string) error {
	if name == "" || name != filepath.Base(name) || strings.ContainsAny(name, "/\\") ||
		name == "." || name == ".." || strings.Contains(name, datasetSuffix) {
		return fmt.Errorf("store: invalid dataset name %q", name)
	}
	return nil
}
