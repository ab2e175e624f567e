package repro

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"
)

// entryPoint is one public way into the mining pipeline.
type entryPoint struct {
	name string
	mine func(ctx context.Context, opts MineOptions) (*Result, *RunInfo, error)
}

// entryPoints returns Mine, MineFrom on a store-backed (vertical) copy of
// d, MineMaximal and MineClosed — the four entry points that must share
// one validation and one RunInfo.
func entryPoints(t *testing.T, d *Database) []entryPoint {
	ds := storeSource(t, d, 256)
	return []entryPoint{
		{"Mine", func(ctx context.Context, o MineOptions) (*Result, *RunInfo, error) { return Mine(ctx, d, o) }},
		{"MineFrom/vertical", func(ctx context.Context, o MineOptions) (*Result, *RunInfo, error) { return MineFrom(ctx, ds, o) }},
		{"MineMaximal", func(ctx context.Context, o MineOptions) (*Result, *RunInfo, error) { return MineMaximal(ctx, d, o) }},
		{"MineClosed", func(ctx context.Context, o MineOptions) (*Result, *RunInfo, error) { return MineClosed(ctx, d, o) }},
	}
}

// TestPipelineValidatesAndEchoesAlike pins the one-pipeline contract:
// every entry point rejects each bad option with the same sentinel, and
// for good options echoes the same RunInfo request fields.
func TestPipelineValidatesAndEchoesAlike(t *testing.T) {
	d := smallDB(t)
	eps := entryPoints(t, d)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	bad := []struct {
		name string
		ctx  context.Context
		opts MineOptions
		want error
	}{
		{"no-support", context.Background(), MineOptions{}, ErrInvalidSupport},
		{"negative-support", context.Background(), MineOptions{SupportPct: -1}, ErrInvalidSupport},
		{"negative-budget", context.Background(), MineOptions{SupportCount: 4, MemoryBudget: -1}, ErrInvalidMemoryBudget},
		{"negative-parallelism", context.Background(), MineOptions{SupportCount: 4, Parallelism: -1}, ErrInvalidParallelism},
		{"negative-topk", context.Background(), MineOptions{SupportCount: 4, TopK: -1}, ErrInvalidTopK},
		{"negative-item", context.Background(), MineOptions{SupportCount: 4, MustContain: []int{-1}}, ErrInvalidMustContain},
		{"canceled", canceled, MineOptions{SupportCount: 4}, ErrCanceled},
	}
	for _, tc := range bad {
		for _, ep := range eps {
			if _, _, err := ep.mine(tc.ctx, tc.opts); !errors.Is(err, tc.want) {
				t.Errorf("%s %s: err = %v, want %v", ep.name, tc.name, err, tc.want)
			}
		}
	}

	good := MineOptions{SupportCount: 4, Parallelism: 2, MemoryBudget: 1 << 30}
	want := RunInfo{Algorithm: AlgoEclat, MinSup: 4, Parallelism: 2, EffectiveMinSup: 4, MemoryBudget: 1 << 30}
	for _, ep := range eps {
		_, info, err := ep.mine(context.Background(), good)
		if err != nil {
			t.Fatalf("%s: %v", ep.name, err)
		}
		got := RunInfo{Algorithm: info.Algorithm, MinSup: info.MinSup, Parallelism: info.Parallelism,
			TopK: info.TopK, MustContain: info.MustContain, EffectiveMinSup: info.EffectiveMinSup,
			MemoryBudget: info.MemoryBudget}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: echoed %+v, want %+v", ep.name, got, want)
		}
	}
}

// TestPhaseSpansPartitionWallTime checks the span accounting of every
// output on both layouts: the wall-clock spans never overlap, they sum
// to at most WallNS, and the final reduction is its own phase.
func TestPhaseSpansPartitionWallTime(t *testing.T) {
	d := smallDB(t)
	ds := storeSource(t, d, 0)
	for _, output := range []Output{OutputAll, OutputMaximal, OutputClosed} {
		for _, src := range []Source{HorizontalSource(d), ds} {
			opts := MineOptions{SupportPct: 0.5, Output: output, Parallelism: 2}
			_, info, err := MineFrom(context.Background(), src, opts)
			if err != nil {
				t.Fatal(err)
			}
			spans := append([]PhaseSpan(nil), info.Phases...)
			sort.Slice(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
			var sum, end int64
			names := map[string]bool{}
			for _, sp := range spans {
				if sp.StartNS < end {
					t.Fatalf("output %d scans %d: span %q starts at %d, inside the previous span (ends %d): %v",
						output, info.Scans, sp.Name, sp.StartNS, end, spans)
				}
				end = sp.StartNS + sp.DurationNS
				sum += sp.DurationNS
				names[sp.Name] = true
			}
			if sum > info.WallNS {
				t.Fatalf("output %d scans %d: spans sum to %d > WallNS %d: %v", output, info.Scans, sum, info.WallNS, spans)
			}
			for _, name := range []string{"initialization", "asynchronous", "reduction"} {
				if !names[name] {
					t.Fatalf("output %d scans %d: phase %q missing: %v", output, info.Scans, name, spans)
				}
			}
		}
	}
}
