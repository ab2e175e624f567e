package service

import (
	"bytes"
	"errors"
	"testing"

	"repro"
)

// TestServiceMemoryBudgetedJobMatchesInMemory wires the out-of-core path
// end to end: a store-backed job with a tiny memory budget must mine
// out-of-core, report so in its view, and still produce byte-identical
// results to an unbudgeted in-memory service.
func TestServiceMemoryBudgetedJobMatchesInMemory(t *testing.T) {
	d := genDataset(t, 800)
	mem := newTestService(t, Config{Workers: 2, QueueDepth: 16}, 800)
	st := newStoreService(t, t.TempDir(), Config{Workers: 2, QueueDepth: 16})
	if _, err := st.RegisterDataset("t10", "generated", d); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4} {
		req := Request{Dataset: "t10", MineOptions: repro.MineOptions{
			Algorithm:    repro.AlgoEclat,
			SupportCount: 4 + 2*workers, // distinct minsup → every run a cache miss
			Parallelism:  workers,
		}}
		want, _ := mineBytes(t, mem, req)
		req.MemoryBudget = 4096 // far below the mapped bundle size
		got, v := mineBytes(t, st, req)
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: budgeted store-backed result differs from in-memory", workers)
		}
		if v.MemoryBudget != 4096 {
			t.Fatalf("workers=%d: view budget %d, want 4096", workers, v.MemoryBudget)
		}
		if !v.OutOfCore {
			t.Fatalf("workers=%d: job under a %dB budget did not mine out-of-core", workers, v.MemoryBudget)
		}
	}

	// An unbudgeted job on the same service stays in-core.
	_, v := mineBytes(t, st, Request{Dataset: "t10", MineOptions: repro.MineOptions{Algorithm: repro.AlgoEclat, SupportCount: 3}})
	if v.OutOfCore || v.MemoryBudget != 0 {
		t.Fatalf("unbudgeted job reported budget=%d outOfCore=%v", v.MemoryBudget, v.OutOfCore)
	}
}

// TestServiceResidencyBudgetDefault checks the daemon-level default: a
// service configured with ResidencyBudget applies it to jobs that set no
// budget of their own, and reports it in Stats.
func TestServiceResidencyBudgetDefault(t *testing.T) {
	st := newStoreService(t, t.TempDir(), Config{Workers: 1, QueueDepth: 4, ResidencyBudget: 4096})
	if _, err := st.RegisterDataset("t10", "generated", genDataset(t, 800)); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().ResidencyBudget; got != 4096 {
		t.Fatalf("Stats().ResidencyBudget = %d, want 4096", got)
	}
	_, v := mineBytes(t, st, Request{Dataset: "t10", MineOptions: repro.MineOptions{Algorithm: repro.AlgoEclat, SupportCount: 4}})
	if !v.OutOfCore {
		t.Fatal("job did not inherit the service residency budget")
	}
	if v.MemoryBudget != 4096 {
		t.Fatalf("view budget %d, want the service default 4096", v.MemoryBudget)
	}
}

// TestServiceNegativeMemoryBudgetRejected pins submit-time validation.
func TestServiceNegativeMemoryBudgetRejected(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4}, 100)
	_, err := s.Submit(Request{Dataset: "t10", MineOptions: repro.MineOptions{Algorithm: repro.AlgoEclat, SupportCount: 2, MemoryBudget: -1}})
	if !errors.Is(err, repro.ErrInvalidMemoryBudget) {
		t.Fatalf("negative budget submit: %v, want ErrInvalidMemoryBudget", err)
	}
}

// TestServiceMemoryBudgetSharesCacheEntry pins the cache-key decision: a
// budgeted mine is byte-identical to an in-core one, so both budgets
// share one entry (like parallelism).
func TestServiceMemoryBudgetSharesCacheEntry(t *testing.T) {
	st := newStoreService(t, t.TempDir(), Config{Workers: 1, QueueDepth: 4})
	if _, err := st.RegisterDataset("t10", "generated", genDataset(t, 400)); err != nil {
		t.Fatal(err)
	}
	req := Request{Dataset: "t10", MineOptions: repro.MineOptions{Algorithm: repro.AlgoEclat, SupportCount: 4}}
	mineBytes(t, st, req)
	hitsBefore := st.Cache().Stats().Hits
	req.MemoryBudget = 4096
	_, v := mineBytes(t, st, req)
	if st.Cache().Stats().Hits != hitsBefore+1 {
		t.Fatal("budgeted request missed the cache entry of the unbudgeted run")
	}
	// A cache hit never re-mines, so the view reports no out-of-core run.
	if v.OutOfCore {
		t.Fatal("cache hit claims an out-of-core run")
	}
}
