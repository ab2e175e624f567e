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

// benchReprs is every encoding the end-to-end rows measure, auto last.
var benchReprs = []tidlist.Repr{tidlist.ReprSparse, tidlist.ReprBitset, tidlist.ReprRoaring, tidlist.ReprAuto}

func BenchmarkMineParallelLocal(b *testing.B) {
	d := gen.MustGenerate(gen.T10I6(benchTx))
	minsup := d.MinSupCount(0.25)
	for _, repr := range benchReprs {
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

// BenchmarkMineVerticalLocal mines the dense family of the repository
// benchmark's mine_dense workload (D5K, |T|=20, N=200 items, support
// 1.25%) from item sets, the store-backed path, under every encoding at
// 1 and 2 workers. The item sets are encoded as the store serves them:
// all in the requested encoding, or under auto each in its smallest.
func BenchmarkMineVerticalLocal(b *testing.B) {
	cfg := gen.T10I6(5000)
	cfg.AvgTxLen, cfg.NumItems = 20, 200
	d := gen.MustGenerate(cfg)
	minsup := d.MinSupCount(1.25)
	for _, repr := range benchReprs {
		in := VerticalInput{NumTransactions: d.Len(), Items: verticalSets(d, repr)}
		if repr == tidlist.ReprAuto {
			var ks tidlist.KernelStats
			for it, s := range in.Items {
				if l, ok := s.(tidlist.List); ok {
					_, enc := tidlist.EncodedSize(l, tidlist.ReprAuto)
					in.Items[it] = tidlist.Convert(l, enc, &ks)
				}
			}
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("repr=%s/workers=%d", repr, workers), func(b *testing.B) {
				opts := Options{Representation: repr, Workers: workers}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := MineVerticalLocal(context.Background(), in, minsup, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMineVariants is the engine-scaling grid for the maximal and
// closed policies at 1/2/4 workers, plus a top-k row showing what the
// adaptive threshold saves against mining everything at the same floor.
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
