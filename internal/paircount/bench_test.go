package paircount

import (
	"testing"

	"repro/internal/gen"
)

// BenchmarkCounterAddPartition counts every pair of a database into a
// fresh counter, the initialization scan of section 5.1: T10.I6 D20K
// (N=1000 items, the family of the repository benchmark's mine_t10
// workload) and the dense family D5K (|T|=20, N=200, mine_dense's). B/op
// is the counter's own footprint; neither database crosses a fold.
func BenchmarkCounterAddPartition(b *testing.B) {
	dense := gen.T10I6(5000)
	dense.AvgTxLen, dense.NumItems = 20, 200
	for _, c := range []struct {
		name string
		cfg  gen.Config
	}{
		{"data=T10.I6.D20K", gen.T10I6(20000)},
		{"data=dense.D5K", dense},
	} {
		d := gen.MustGenerate(c.cfg)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				New(d.NumItems).AddPartition(d)
			}
		})
	}
}
