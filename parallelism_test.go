package repro

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

func TestMineParallelismMatchesSequential(t *testing.T) {
	d := smallDB(t)
	seq, seqInfo, err := Mine(context.Background(), d, MineOptions{SupportPct: 1.0, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seqInfo.Parallelism != 1 {
		t.Fatalf("sequential info = %+v", seqInfo)
	}
	for _, par := range []int{2, 4, 8} {
		res, info, err := Mine(context.Background(), d, MineOptions{SupportPct: 1.0, Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(res.Itemsets, seq.Itemsets) {
			t.Fatalf("parallelism %d: result differs from sequential", par)
		}
		if info.Parallelism != par {
			t.Fatalf("parallelism %d: info.Parallelism = %d", par, info.Parallelism)
		}
		if info.Scans != 2 {
			t.Fatalf("parallelism %d: scans = %d, want 2", par, info.Scans)
		}
	}
}

func TestMineParallelismDefaultsToGOMAXPROCS(t *testing.T) {
	d := smallDB(t)
	_, info, err := Mine(context.Background(), d, MineOptions{SupportPct: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if want := runtime.GOMAXPROCS(0); info.Parallelism != want {
		t.Fatalf("info.Parallelism = %d, want GOMAXPROCS = %d", info.Parallelism, want)
	}
}

func TestMineNegativeParallelismRejected(t *testing.T) {
	d := smallDB(t)
	_, _, err := Mine(context.Background(), d, MineOptions{SupportPct: 1.0, Parallelism: -1})
	if !errors.Is(err, ErrInvalidParallelism) {
		t.Fatalf("err = %v, want ErrInvalidParallelism", err)
	}
	if _, _, err := MineMaximal(context.Background(), d, MineOptions{SupportPct: 1.0, Parallelism: -2}); !errors.Is(err, ErrInvalidParallelism) {
		t.Fatalf("MineMaximal err = %v, want ErrInvalidParallelism", err)
	}
	if _, _, err := MineClosed(context.Background(), d, MineOptions{SupportPct: 1.0, Parallelism: -3}); !errors.Is(err, ErrInvalidParallelism) {
		t.Fatalf("MineClosed err = %v, want ErrInvalidParallelism", err)
	}
}

func TestMineParallelCancellation(t *testing.T) {
	d := smallDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Mine(ctx, d, MineOptions{SupportPct: 1.0, Parallelism: 4})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

func TestWorkersResolution(t *testing.T) {
	if _, err := (MineOptions{Parallelism: -5}).Workers(); !errors.Is(err, ErrInvalidParallelism) {
		t.Fatalf("negative Parallelism: err = %v", err)
	}
	if n, err := (MineOptions{}).Workers(); err != nil || n != runtime.GOMAXPROCS(0) {
		t.Fatalf("zero Parallelism resolved to (%d, %v)", n, err)
	}
	if n, err := (MineOptions{Parallelism: 3}).Workers(); err != nil || n != 3 {
		t.Fatalf("Parallelism 3 resolved to (%d, %v)", n, err)
	}
}
