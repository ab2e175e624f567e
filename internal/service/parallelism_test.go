package service

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro"
)

func TestServiceParallelBudgetSplit(t *testing.T) {
	s := newTestService(t, Config{Workers: 4, QueueDepth: 8, ParallelBudget: 8}, 200)
	st := s.Stats()
	if st.ParallelBudget != 8 || st.JobParallelism != 2 {
		t.Fatalf("budget/jobParallelism = %d/%d, want 8/2", st.ParallelBudget, st.JobParallelism)
	}
	if st.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Fatalf("GOMAXPROCS = %d", st.GOMAXPROCS)
	}

	// Asking for more than the per-job share is clamped; zero takes the
	// share; a modest ask passes through.
	for requested, want := range map[int]int{0: 2, 1: 1, 2: 2, 64: 2} {
		if got := s.effectiveParallelism(requested); got != want {
			t.Fatalf("effectiveParallelism(%d) = %d, want %d", requested, got, want)
		}
	}
}

func TestServiceParallelBudgetDefaults(t *testing.T) {
	// Budget defaults to GOMAXPROCS; a worker pool wider than the budget
	// still gives each job at least one goroutine.
	s := newTestService(t, Config{Workers: 2 * runtime.GOMAXPROCS(0), QueueDepth: 8}, 200)
	st := s.Stats()
	if st.ParallelBudget != runtime.GOMAXPROCS(0) {
		t.Fatalf("default budget = %d, want GOMAXPROCS", st.ParallelBudget)
	}
	if st.JobParallelism != 1 {
		t.Fatalf("jobParallelism = %d, want 1", st.JobParallelism)
	}
}

func TestServiceJobViewReportsParallelism(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 8, ParallelBudget: 4}, 500)
	j, err := s.Submit(Request{Dataset: "t10", MineOptions: repro.MineOptions{SupportPct: 1.0, Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Wait(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusDone {
		t.Fatalf("job: %+v", v)
	}
	if v.Parallelism != 2 {
		t.Fatalf("view parallelism = %d, want 2", v.Parallelism)
	}
}

func TestServiceNegativeParallelismRejected(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 8}, 200)
	_, err := s.Submit(Request{Dataset: "t10", MineOptions: repro.MineOptions{SupportPct: 1.0, Parallelism: -1}})
	if !errors.Is(err, repro.ErrInvalidParallelism) {
		t.Fatalf("err = %v, want ErrInvalidParallelism", err)
	}
}

func TestServiceParallelismSharesCacheEntry(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueDepth: 8, ParallelBudget: 4}, 500)
	j1, err := s.Submit(Request{Dataset: "t10", MineOptions: repro.MineOptions{SupportPct: 1.0, Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), j1.ID); err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(Request{Dataset: "t10", MineOptions: repro.MineOptions{SupportPct: 1.0, Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Wait(context.Background(), j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Cached {
		t.Fatalf("different parallelism should share one cache entry, got %+v", v2)
	}
}
