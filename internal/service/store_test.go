package service

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/store"
)

// newStoreService builds a service over a persistent store rooted at
// dir. The returned service owns the manager; the caller's t owns the
// store (closed after shutdown, as in the daemon).
func newStoreService(t testing.TB, dir string, cfg Config) *Service {
	t.Helper()
	st, err := store.Open(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	cfg.Store = st
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return s
}

// mineBytes submits req, waits, and returns the serialized result.
func mineBytes(t *testing.T, s *Service, req Request) ([]byte, View) {
	t.Helper()
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Wait(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusDone {
		t.Fatalf("job %s ended %s: %s", v.ID, v.Status, v.Error)
	}
	res, err := s.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := repro.WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), v
}

// TestServiceStoreBackedMiningMatchesInMemory is the service-level
// differential contract: a store-backed dataset mined from the mmap
// bundle yields byte-identical results to the same data registered
// in-memory, across representations and worker counts, and the
// store-backed jobs never run the horizontal transformation phase.
//
// Every variant takes the scan-free path: maximal and closed jobs mine
// from the mapping as all-frequent ones do, so the store-backed registry
// entry never decodes its horizontal data.
func TestServiceStoreBackedMiningMatchesInMemory(t *testing.T) {
	d := genDataset(t, 800)
	mem := newTestService(t, Config{Workers: 2, QueueDepth: 16, ParallelBudget: 8}, 800)
	st := newStoreService(t, t.TempDir(), Config{Workers: 2, QueueDepth: 16, ParallelBudget: 8})
	if _, err := st.RegisterDataset("t10", "generated", d); err != nil {
		t.Fatal(err)
	}
	ds, err := st.Dataset("t10")
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Info().Stored {
		t.Fatal("dataset registered through a store-backed service is not stored")
	}

	for _, variant := range []repro.Output{repro.OutputAll, repro.OutputMaximal, repro.OutputClosed} {
		for _, repr := range []repro.Representation{repro.ReprAuto, repro.ReprSparse, repro.ReprBitset, repro.ReprRoaring} {
			for _, workers := range []int{1, 2, 4} {
				// Distinct minsup per worker count keeps every run a cache miss
				// (the cache key deliberately omits parallelism).
				req := Request{Dataset: "t10", MineOptions: repro.MineOptions{
					Algorithm:      repro.AlgoEclat,
					Output:         variant,
					SupportCount:   4 + 2*workers,
					Representation: repr,
					Parallelism:    workers,
				}}
				name := fmt.Sprintf("variant=%s/repr=%v/workers=%d", variant, repr, workers)
				want, _ := mineBytes(t, mem, req)
				got, v := mineBytes(t, st, req)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: store-backed result differs from in-memory", name)
				}
				for _, sp := range v.Phases {
					if sp.Name == "transformation" {
						t.Fatalf("%s: store-backed job ran the horizontal transformation phase", name)
					}
				}
				if scans := jobScans(t, st, v.ID); scans != 0 {
					t.Fatalf("%s: store-backed job scanned horizontal data %d times", name, scans)
				}
			}
		}
	}
	if ds.memDB != nil {
		t.Fatal("store-backed dataset decoded its horizontal data")
	}
}

// jobScans returns the horizontal scans the finished job id reported.
func jobScans(t *testing.T, s *Service, id string) int {
	t.Helper()
	j, err := s.mgr.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.info == nil {
		t.Fatalf("job %s has no run info", id)
	}
	return j.info.Scans
}

// TestServiceStoreRestartServesWithoutRebuild closes a store-backed
// service, reopens the same directory in a fresh service, and mines —
// the dataset must be served from disk (no re-registration) with
// byte-identical results.
func TestServiceStoreRestartServesWithoutRebuild(t *testing.T) {
	dir := t.TempDir()
	d := genDataset(t, 600)
	req := Request{Dataset: "t10", MineOptions: repro.MineOptions{Algorithm: repro.AlgoEclat, SupportCount: 6}}

	s1 := newStoreService(t, dir, Config{Workers: 1, QueueDepth: 4})
	if _, err := s1.RegisterDataset("t10", "generated", d); err != nil {
		t.Fatal(err)
	}
	want, _ := mineBytes(t, s1, req)
	s1.Shutdown(context.Background())

	s2 := newStoreService(t, dir, Config{Workers: 1, QueueDepth: 4})
	infos := s2.Datasets()
	if len(infos) != 1 || infos[0].Name != "t10" || !infos[0].Stored {
		t.Fatalf("restarted service datasets = %+v, want stored t10", infos)
	}
	got, v := mineBytes(t, s2, req)
	if !bytes.Equal(got, want) {
		t.Fatal("result after restart differs from the original run")
	}
	for _, sp := range v.Phases {
		if sp.Name == "transformation" {
			t.Fatal("restarted service re-ran the horizontal transformation")
		}
	}
}

// TestServiceRemoveDataset covers the eviction contract: busy datasets
// are refused with ErrDatasetBusy, removal drops cached results, and
// removed store-backed datasets stay gone after a restart.
func TestServiceRemoveDataset(t *testing.T) {
	dir := t.TempDir()
	s := newStoreService(t, dir, Config{Workers: 1, QueueDepth: 4})
	if _, err := s.RegisterDataset("t10", "generated", genDataset(t, 400)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterDataset("big", "generated", genDataset(t, 30000)); err != nil {
		t.Fatal(err)
	}

	if err := s.RemoveDataset("nope"); !strings.Contains(err.Error(), "unknown dataset") {
		t.Fatalf("removing unknown dataset: %v", err)
	}

	// A long-running job holds its dataset busy.
	slow, err := s.Submit(Request{Dataset: "big", MineOptions: repro.MineOptions{Algorithm: repro.AlgoEclat, SupportPct: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveDataset("big"); err == nil || !strings.Contains(err.Error(), "dataset busy") {
		t.Fatalf("removing busy dataset: %v, want ErrDatasetBusy", err)
	}
	if _, err := s.Cancel(slow.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), slow.ID); err != nil {
		t.Fatal(err)
	}

	// Terminal jobs release the dataset; removal also drops its cache
	// entries so a later same-named dataset cannot serve stale results.
	if _, _ = mineBytes(t, s, Request{Dataset: "t10", MineOptions: repro.MineOptions{Algorithm: repro.AlgoEclat, SupportCount: 4}}); s.Cache().Len() == 0 {
		t.Fatal("mining did not populate the cache")
	}
	if err := s.RemoveDataset("t10"); err != nil {
		t.Fatal(err)
	}
	if got := s.Cache().Len(); got != 0 {
		t.Fatalf("cache still holds %d entries after RemoveDataset", got)
	}
	if err := s.RemoveDataset("big"); err != nil {
		t.Fatal(err)
	}
	if len(s.Datasets()) != 0 {
		t.Fatalf("datasets after removal: %+v", s.Datasets())
	}
	s.Shutdown(context.Background())

	// The removal persisted: a fresh service over the same directory has
	// nothing to register.
	s2 := newStoreService(t, dir, Config{Workers: 1, QueueDepth: 4})
	if got := s2.Datasets(); len(got) != 0 {
		t.Fatalf("removed datasets reappeared after restart: %+v", got)
	}
}

// TestServiceStoreJobsLeaveBundleUntouched serves a job under every
// representation on a store-backed dataset, restarts, and serves them
// again: the results are byte-identical across the restart, and no job
// writes to the dataset's bundle or index.
func TestServiceStoreJobsLeaveBundleUntouched(t *testing.T) {
	dir := t.TempDir()
	s1 := newStoreService(t, dir, Config{Workers: 1, QueueDepth: 4})
	if _, err := s1.RegisterDataset("t10", "generated", genDataset(t, 300)); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, name := range []string{"vertical.bundle", "index.json"} {
		b, err := os.ReadFile(filepath.Join(dir, "t10.ds", name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = b
	}
	assertUntouched := func(when string) {
		t.Helper()
		for name, want := range files {
			got, err := os.ReadFile(filepath.Join(dir, "t10.ds", name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: %s changed (%d bytes, registered with %d)", when, name, len(got), len(want))
			}
		}
	}
	reprs := []repro.Representation{repro.ReprAuto, repro.ReprSparse, repro.ReprBitset, repro.ReprRoaring}
	want := make([][]byte, len(reprs))
	for i, repr := range reprs {
		want[i], _ = mineBytes(t, s1, Request{Dataset: "t10", MineOptions: repro.MineOptions{Algorithm: repro.AlgoEclat, SupportCount: 3, Representation: repr}})
		assertUntouched(fmt.Sprintf("%v job", repr))
	}
	s1.Shutdown(context.Background())

	s2 := newStoreService(t, dir, Config{Workers: 1, QueueDepth: 4})
	for i, repr := range reprs {
		got, _ := mineBytes(t, s2, Request{Dataset: "t10", MineOptions: repro.MineOptions{Algorithm: repro.AlgoEclat, SupportCount: 3, Representation: repr}})
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("%v: result after restart differs", repr)
		}
		assertUntouched(fmt.Sprintf("%v job after restart", repr))
	}
}
