package eclat

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/tidlist"
)

// benchTx sizes the T10.I6-style benchmark dataset (generation is
// deterministic in the seed, so every sub-benchmark mines the same data).
const benchTx = 20000

func BenchmarkMineParallelLocal(b *testing.B) {
	d := gen.MustGenerate(gen.T10I6(benchTx))
	minsup := d.MinSupCount(0.25)
	for _, repr := range []tidlist.Repr{tidlist.ReprSparse, tidlist.ReprBitset} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("repr=%s/workers=%d", repr, workers), func(b *testing.B) {
				opts := Options{Representation: repr, Workers: workers}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := MineParallelLocal(context.Background(), d, minsup, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMineVariants is the engine-scaling grid for the maximal and
// closed policies at 1/2/4 workers (workers=1 is the sequential driver),
// plus a top-k row showing what the adaptive threshold saves against
// mining everything at the same floor.
func BenchmarkMineVariants(b *testing.B) {
	d := gen.MustGenerate(gen.T10I6(benchTx))
	minsup := d.MinSupCount(0.25)
	bench := func(name string, opts Options) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := MineParallelLocal(context.Background(), d, minsup, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, workers := range []int{1, 2, 4} {
		bench(fmt.Sprintf("variant=maximal/workers=%d", workers), Options{Workers: workers, Policy: PolicyMaximal})
		bench(fmt.Sprintf("variant=closed/workers=%d", workers), Options{Workers: workers, Policy: PolicyClosed})
	}
	bench("variant=topk100/workers=1", Options{Workers: 1, TopK: 100})
}

// BenchmarkMineSequentialAlloc measures the scratch arena's effect on the
// one-worker recursion: arena=off is the pre-arena behaviour (every
// sub-class member slice and surviving tid-set clone hits the heap),
// arena=on the stack-disciplined reuse path every one-worker mine takes.
func BenchmarkMineSequentialAlloc(b *testing.B) {
	d := gen.MustGenerate(gen.T10I6(benchTx))
	minsup := d.MinSupCount(0.25)
	build := horizontalBuild(context.Background(), d)
	for _, mode := range []string{"off", "on"} {
		b.Run("arena="+mode, func(b *testing.B) {
			var ar *arena
			if mode == "on" {
				ar = &arena{}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := mineLocal(context.Background(), minsup, Options{Workers: 1}, ar, build); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
