package eclat

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/mining"
	"repro/internal/tidlist"
)

// buildVertical and buildVerticalFromSets build a run's vertical in a
// scratch of its own, for the tests that inspect one.
func buildVertical(ctx context.Context, d *db.Database, minsup int, st *Stats, opts Options) *vertical {
	return new(runScratch).buildVertical(ctx, d, minsup, st, opts)
}

func buildVerticalFromSets(ctx context.Context, in VerticalInput, minsup int, st *Stats, opts Options) *vertical {
	return new(runScratch).buildVerticalFromSets(ctx, in, minsup, st, opts)
}

// ownedBytes is what a result owns: its itemset slice, and each
// itemset's item array rounded up to the allocator's size class
// (multiples of 8 bytes up to 32, of 16 above). The L1 and L2 itemsets
// share one array, which this counts as its parts.
func ownedBytes(res *mining.Result) uint64 {
	n := uint64(cap(res.Itemsets)) * uint64(unsafe.Sizeof(mining.FrequentItemset{}))
	for _, f := range res.Itemsets {
		b := uint64(len(f.Set)) * 4
		if b <= 32 {
			n += (b + 7) &^ 7
		} else {
			n += (b + 15) &^ 15
		}
	}
	return n
}

// steadySlack is what a mine may allocate besides its result: the
// per-run headers (the Result, the vertical, the engine, each worker's
// goroutine, closures and Stats), the class schedule (some 40 bytes per
// class), and the allocator's page rounding of the result's two large
// arrays. It is far below what the run scratch holds: the heap mine's
// N=1000 triangle alone is 0.95 MiB, the vertical mine's rows 160 KiB
// and its seeds some 260 KiB.
const steadySlack = 64 << 10

// boxBytes is what Go allocates to box a sparse tid-list into the
// tidlist.Set interface: a sparse kernel call boxes its result, and a
// surviving member's arena clone boxes its copy. No fixed slack covers
// these on a sparse search, so the budget adds two per sparse kernel
// call; packed kernels return pointers and box nothing.
const boxBytes = 24

// TestSecondMineAllocatesOnlyItsResult pins the pooled run scratch
// (DESIGN.md §8): once a first mine has grown it, a second mine of the
// same data allocates its result, plus steadySlack and the boxes of its
// sparse kernel calls, at one worker and at two, from horizontal and
// from vertical input. A closed mine of the same data may allocate what
// the all-frequent mine did plus steadySlack: the closure filter's
// marks and its output, never a per-itemset key. The best of five
// tries is kept, as TestMemberStackFirstChunkSmall keeps it: a
// sync.Pool can miss (after two GCs, or when the put sits in another
// P's private slot), and a mine that misses rebuilds its scratch.
func TestSecondMineAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a quarter of sync.Pool's puts")
	}
	t10 := gen.MustGenerate(gen.T10I6(2000))
	cfg := gen.T10I6(2000)
	cfg.AvgTxLen, cfg.NumItems = 20, 200
	dense := gen.MustGenerate(cfg)
	in := VerticalInput{NumTransactions: dense.Len(), Items: verticalSets(dense, tidlist.ReprBitset)}
	ctx := context.Background()
	for _, workers := range []int{1, 2} {
		for _, c := range []struct {
			name string
			mine func(Options) (*mining.Result, Stats, error)
		}{
			{"heap", func(opts Options) (*mining.Result, Stats, error) {
				return MineParallelLocal(ctx, t10, t10.MinSupCount(0.5), opts)
			}},
			{"vertical", func(opts Options) (*mining.Result, Stats, error) {
				return MineVerticalLocal(ctx, in, dense.MinSupCount(1.25), opts)
			}},
		} {
			// allBest is what the all-frequent mine allocated, the closed
			// row's budget.
			var allBest uint64
			for _, policy := range []Policy{PolicyAll, PolicyClosed} {
				name := fmt.Sprintf("%s/workers=%d", c.name, workers)
				if policy == PolicyClosed {
					name = fmt.Sprintf("%s-closed/workers=%d", c.name, workers)
				}
				opts := Options{Workers: workers, Policy: policy}
				t.Run(name, func(t *testing.T) {
					if _, _, err := c.mine(opts); err != nil {
						t.Fatal(err)
					}
					var ms runtime.MemStats
					best := uint64(1 << 62)
					var res *mining.Result
					var st Stats
					for try := 0; try < 5; try++ {
						runtime.ReadMemStats(&ms)
						before := ms.TotalAlloc
						r, s, err := c.mine(opts)
						runtime.ReadMemStats(&ms)
						if err != nil {
							t.Fatal(err)
						}
						best, res, st = min(best, ms.TotalAlloc-before), r, s
					}
					if policy == PolicyClosed {
						t.Logf("%d closed itemsets: mine allocated %d bytes; the all-frequent mine %d", len(res.Itemsets), best, allBest)
						if allBest == 0 || best > allBest+steadySlack {
							t.Fatalf("closed mine allocated %d bytes, want at most the all-frequent mine's %d plus %d", best, allBest, steadySlack)
						}
						return
					}
					allBest = best
					owned := ownedBytes(res)
					sparse := st.Intersections - st.Kernel.DenseIntersections() - st.Kernel.RoaringIntersections()
					boxes := 2 * boxBytes * uint64(sparse)
					t.Logf("%d itemsets: mine allocated %d bytes; result owns %d, %d sparse kernel calls", len(res.Itemsets), best, owned, sparse)
					if best > owned+boxes+steadySlack {
						t.Fatalf("second mine allocated %d bytes, want at most its result's %d plus %d of boxes plus %d", best, owned, boxes, steadySlack)
					}
				})
			}
		}
	}
}

// TestPooledScratchAcrossUniverses mines datasets of different item
// universes, from horizontal and vertical input, concurrently from four
// goroutines, with one mine cancelled mid-run, so mines are handed
// pooled triangles, rows, lists and arenas sized for other data and left
// by a cut-short run. Every finished output must be byte-identical to a
// sequential mine of the same data, and an empty result nil.
func TestPooledScratchAcrossUniverses(t *testing.T) {
	type job struct {
		name string
		mine func(ctx context.Context) (*mining.Result, error)
	}
	var jobs []job
	for i, ds := range []struct {
		items int
		pct   float64
	}{{40, 2}, {200, 0.5}, {1000, 0.5}, {1000, 4}} {
		cfg := gen.T10I6(1500)
		cfg.NumItems, cfg.Seed = ds.items, int64(11+i)
		d := gen.MustGenerate(cfg)
		minsup := d.MinSupCount(ds.pct)
		in := VerticalInput{NumTransactions: d.Len(), Items: verticalSets(d, tidlist.ReprBitset)}
		workers := 1 + i%2
		jobs = append(jobs,
			job{fmt.Sprintf("heap/N=%d/%v%%", ds.items, ds.pct), func(ctx context.Context) (*mining.Result, error) {
				res, _, err := MineParallelLocal(ctx, d, minsup, Options{Workers: workers})
				return res, err
			}},
			job{fmt.Sprintf("vertical/N=%d/%v%%", ds.items, ds.pct), func(ctx context.Context) (*mining.Result, error) {
				res, _, err := MineVerticalLocal(ctx, in, minsup, Options{Workers: 3 - workers})
				return res, err
			}})
	}
	want := make([][]byte, len(jobs))
	empty := make([]bool, len(jobs))
	for j, jb := range jobs {
		res, err := jb.mine(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want[j], empty[j] = resultBytes(t, res), len(res.Itemsets) == 0
	}
	if !empty[len(jobs)-1] {
		t.Fatalf("%s: want an empty result", jobs[len(jobs)-1].name)
	}

	// encoded is resultBytes for the mining goroutines, which must not
	// call t.Fatal: a failed write returns nil, which matches no output.
	encoded := func(res *mining.Result) []byte {
		var buf bytes.Buffer
		if mining.Write(&buf, res) != nil {
			return nil
		}
		return buf.Bytes()
	}

	const goroutines, rounds = 4, 2
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range jobs {
					j := (k + g) % len(jobs)
					if g == 0 && r == 0 && k == 0 {
						// Cancelled inside the class recursion: its scratch
						// goes back to the pool mid-state.
						ctx := &cancelAfterN{Context: context.Background(), n: 40}
						if _, err := jobs[j].mine(ctx); !errors.Is(err, context.Canceled) {
							errs <- fmt.Errorf("%s: cancelled mine returned %v", jobs[j].name, err)
							return
						}
						continue
					}
					res, err := jobs[j].mine(context.Background())
					switch {
					case err != nil:
						errs <- fmt.Errorf("%s: %v", jobs[j].name, err)
					case empty[j] && res.Itemsets != nil:
						errs <- fmt.Errorf("%s: empty result is %#v, want nil", jobs[j].name, res.Itemsets)
					case !bytes.Equal(encoded(res), want[j]):
						errs <- fmt.Errorf("%s (goroutine %d, round %d): output differs from the sequential mine", jobs[j].name, g, r)
					default:
						continue
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
