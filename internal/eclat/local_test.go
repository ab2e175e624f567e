package eclat

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/mining"
	"repro/internal/tidlist"
)

// byteIdentical reports whether two sorted results are exactly equal —
// same itemsets with the same supports in the same order — which is the
// determinism contract MineParallelLocal makes, stronger than the
// order-insensitive mining.Equal.
func byteIdentical(a, b *mining.Result) bool {
	return a.MinSup == b.MinSup &&
		a.NumTransactions == b.NumTransactions &&
		reflect.DeepEqual(a.Itemsets, b.Itemsets)
}

func TestParallelLocalMatchesSequentialExactly(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(2000))
	minsup := d.MinSupCount(0.6)
	for _, repr := range []tidlist.Repr{tidlist.ReprAuto, tidlist.ReprSparse, tidlist.ReprBitset} {
		opts := Options{Representation: repr, Workers: 1}
		want, wantSt, err := MineParallelLocal(context.Background(), d, minsup, opts)
		if err != nil {
			t.Fatal(err)
		}
		for workers := 1; workers <= 8; workers++ {
			opts.Workers = workers
			got, st, err := MineParallelLocal(context.Background(), d, minsup, opts)
			if err != nil {
				t.Fatalf("repr=%v workers=%d: %v", repr, workers, err)
			}
			if !byteIdentical(got, want) {
				t.Fatalf("repr=%v workers=%d: output differs from sequential:\n%s",
					repr, workers, mining.Diff(got, want))
			}
			if st.Workers != workers {
				t.Fatalf("repr=%v workers=%d: Stats.Workers = %d", repr, workers, st.Workers)
			}
			// The intersection totals are interleaving-independent sums, so
			// any worker count must report exactly the sequential work.
			if st.Intersections != wantSt.Intersections ||
				st.ShortCircuited != wantSt.ShortCircuited ||
				st.IntersectOps != wantSt.IntersectOps ||
				st.Classes != wantSt.Classes ||
				st.Scans != wantSt.Scans {
				t.Fatalf("repr=%v workers=%d: stats diverge: par=%+v seq=%+v", repr, workers, st, wantSt)
			}
		}
	}
}

func TestParallelLocalRepeatRunsDeterministic(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(1500))
	minsup := d.MinSupCount(0.6)
	opts := Options{Workers: 8}
	first, _, err := MineParallelLocal(context.Background(), d, minsup, opts)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 5; run++ {
		got, _, err := MineParallelLocal(context.Background(), d, minsup, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !byteIdentical(got, first) {
			t.Fatalf("run %d differs from run 0 despite identical inputs", run)
		}
	}
}

func TestParallelLocalDefaultWorkers(t *testing.T) {
	d := gen.MustGenerate(gen.T5I2(300))
	minsup := d.MinSupCount(1.0)
	_, st, err := MineParallelLocal(context.Background(), d, minsup, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := runtime.GOMAXPROCS(0); st.Workers != want {
		t.Fatalf("Workers = %d, want GOMAXPROCS = %d", st.Workers, want)
	}
}

// cancelAfterN is a context whose Err starts reporting context.Canceled
// after the n-th call, which lands cancellation deterministically in the
// middle of the class recursion (real timers land wherever the scheduler
// happens to be).
type cancelAfterN struct {
	context.Context
	calls atomic.Int64
	n     int64
}

func (c *cancelAfterN) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

func TestParallelLocalCancellation(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(2000))
	minsup := d.MinSupCount(0.6)
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		for _, n := range []int64{0, 1, 10, 100, 1000} {
			ctx := &cancelAfterN{Context: context.Background(), n: n}
			res, _, err := MineParallelLocal(ctx, d, minsup, Options{Workers: workers})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d n=%d: err = %v, want context.Canceled", workers, n, err)
			}
			if res != nil {
				t.Fatalf("workers=%d n=%d: canceled run returned a result", workers, n)
			}
		}
	}
	// Workers join before MineParallelLocal returns, so the goroutine
	// count must settle back to the baseline (allow the runtime a moment
	// to retire exiting goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestParallelLocalAlreadyCanceled(t *testing.T) {
	d := gen.MustGenerate(gen.T5I2(200))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := MineParallelLocal(ctx, d, 2, Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("canceled mine returned a result")
	}
}
