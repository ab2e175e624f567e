package repro

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (section 8), plus ablation benches for the design choices
// the paper calls out (short-circuited intersections, greedy class
// scheduling, the pass-2 counting structure, and the
// horizontal-vs-vertical L2 analysis of section 4.2), and
// micro-benchmarks of the core primitives.
//
// The table/figure benches run the simulated cluster; the interesting
// output is the deterministic *virtual* time, reported through
// b.ReportMetric as vsec (virtual seconds) alongside the usual real
// ns/op. Benchmark databases are scaled down further than
// cmd/experiments' suite so that `go test -bench=.` completes quickly;
// cmd/experiments regenerates the full-scale tables.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/countdist"
	"repro/internal/eclat"
	"repro/internal/itemset"
	"repro/internal/paircount"
	"repro/internal/store"
	"repro/internal/tidlist"
)

// benchDB caches the benchmark databases across benchmarks.
var benchDB = struct {
	sync.Mutex
	m map[string]*Database
}{m: map[string]*Database{}}

func getDB(b *testing.B, numTx int, seed int64) *Database {
	b.Helper()
	key := fmt.Sprintf("%d/%d", numTx, seed)
	benchDB.Lock()
	defer benchDB.Unlock()
	if d, ok := benchDB.m[key]; ok {
		return d
	}
	cfg := StandardConfig(numTx)
	cfg.Seed = seed
	d, err := Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	benchDB.m[key] = d
	return d
}

func benchCluster(h, p int) *cluster.Cluster {
	cfg := cluster.Default(h, p)
	cfg.HostMemBytes = 8 << 20 // memory scaled with the benchmark databases
	return cluster.New(cfg)
}

// ---------------------------------------------------------------------
// Table 1: database properties (generation throughput and the reported
// |D| / |T| / size columns).

func BenchmarkTable1DatabaseProperties(b *testing.B) {
	for _, numTx := range []int{10_000, 25_000} {
		b.Run(StandardConfig(numTx).Name(), func(b *testing.B) {
			var sizeMB float64
			for i := 0; i < b.N; i++ {
				cfg := StandardConfig(numTx)
				cfg.Seed = int64(i) + 1
				d, err := Generate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				sizeMB = float64(d.SizeBytes()) / 1e6
			}
			b.ReportMetric(sizeMB, "MB")
		})
	}
}

// ---------------------------------------------------------------------
// Figure 6: number of frequent k-itemsets by size.

func BenchmarkFigure6FrequentItemsetsBySize(b *testing.B) {
	d := getDB(b, 25_000, 999)
	minsup := d.MinSupCount(0.25)
	var total, maxK int
	for i := 0; i < b.N; i++ {
		res, _, err := Mine(context.Background(), d, MineOptions{SupportCount: minsup})
		if err != nil {
			b.Fatal(err)
		}
		total, maxK = res.Len(), res.MaxK()
	}
	b.ReportMetric(float64(total), "itemsets")
	b.ReportMetric(float64(maxK), "maxK")
}

// ---------------------------------------------------------------------
// Table 2: Eclat vs Count Distribution across cluster configurations.
// Virtual elapsed seconds are the table's cells.

func BenchmarkTable2EclatVsCountDistribution(b *testing.B) {
	d := getDB(b, 25_000, 999)
	minsup := d.MinSupCount(0.25)
	configs := []struct{ p, h int }{{1, 1}, {1, 2}, {2, 2}, {1, 4}, {2, 4}}
	for _, hp := range configs {
		b.Run(fmt.Sprintf("Eclat/P=%d,H=%d", hp.p, hp.h), func(b *testing.B) {
			var vsec, setup float64
			for i := 0; i < b.N; i++ {
				cl := benchCluster(hp.h, hp.p)
				_, rep := eclat.MineOpts(cl, d, minsup, eclat.Options{})
				vsec = float64(rep.ElapsedNS) / 1e9
				setup = float64(rep.PhaseMaxNS(eclat.PhaseInit)+rep.PhaseMaxNS(eclat.PhaseTransform)) / 1e9
			}
			b.ReportMetric(vsec, "vsec")
			b.ReportMetric(setup, "vsec-setup")
		})
		b.Run(fmt.Sprintf("CountDist/P=%d,H=%d", hp.p, hp.h), func(b *testing.B) {
			var vsec float64
			for i := 0; i < b.N; i++ {
				cl := benchCluster(hp.h, hp.p)
				_, rep := countdist.Mine(cl, d, minsup)
				vsec = float64(rep.ElapsedNS) / 1e9
			}
			b.ReportMetric(vsec, "vsec")
		})
	}
}

// ---------------------------------------------------------------------
// Figure 7: Eclat speedup over its own uniprocessor run.

func BenchmarkFigure7EclatSpeedup(b *testing.B) {
	d := getDB(b, 25_000, 999)
	minsup := d.MinSupCount(0.25)
	base := func() float64 {
		cl := benchCluster(1, 1)
		_, rep := eclat.MineOpts(cl, d, minsup, eclat.Options{})
		return float64(rep.ElapsedNS)
	}()
	for _, hp := range []struct{ p, h int }{{1, 2}, {2, 2}, {1, 4}, {1, 8}, {2, 4}} {
		b.Run(fmt.Sprintf("P=%d,H=%d,T=%d", hp.p, hp.h, hp.p*hp.h), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				cl := benchCluster(hp.h, hp.p)
				_, rep := eclat.MineOpts(cl, d, minsup, eclat.Options{})
				speedup = base / float64(rep.ElapsedNS)
			}
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// ---------------------------------------------------------------------
// Ablations.

// The short-circuit mechanism of section 5.3: same results, fewer
// element comparisons.
func BenchmarkAblationShortCircuit(b *testing.B) {
	d := getDB(b, 25_000, 999)
	minsup := d.MinSupCount(0.25)
	for _, off := range []bool{false, true} {
		name := "on"
		if off {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			var ops float64
			for i := 0; i < b.N; i++ {
				_, st, _ := eclat.MineParallelLocal(context.Background(), d, minsup, eclat.Options{Workers: 1, NoShortCircuit: off})
				ops = float64(st.IntersectOps)
			}
			b.ReportMetric(ops/1e6, "Mops")
		})
	}
}

// Greedy weighted scheduling (section 5.2.1) vs naive round-robin:
// the metric is the virtual elapsed time, which grows with the
// asynchronous-phase imbalance.
func BenchmarkAblationScheduling(b *testing.B) {
	d := getDB(b, 25_000, 999)
	minsup := d.MinSupCount(0.25)
	variants := []struct {
		name string
		opts eclat.Options
	}{
		{"greedy", eclat.Options{}},
		{"roundrobin", eclat.Options{RoundRobinSchedule: true}},
		{"support-weighted", eclat.Options{SupportWeightedSchedule: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var vsec, async float64
			for i := 0; i < b.N; i++ {
				cl := benchCluster(4, 1)
				_, rep := eclat.MineOpts(cl, d, minsup, v.opts)
				vsec = float64(rep.ElapsedNS) / 1e9
				async = float64(rep.PhaseMaxNS(eclat.PhaseAsync)) / 1e9
			}
			b.ReportMetric(vsec, "vsec")
			b.ReportMetric(async, "vsec-async")
		})
	}
}

// Count Distribution's pass 2: the faithful hash-tree count vs the
// CCPD-style triangular array (the structure Eclat's own initialization
// uses).
func BenchmarkAblationPass2Structure(b *testing.B) {
	d := getDB(b, 25_000, 999)
	minsup := d.MinSupCount(0.25)
	for _, tri := range []bool{false, true} {
		name := "hashtree"
		if tri {
			name = "triangular"
		}
		b.Run(name, func(b *testing.B) {
			var vsec float64
			for i := 0; i < b.N; i++ {
				cl := benchCluster(2, 1)
				_, rep := countdist.MineOpts(cl, d, minsup, countdist.Options{TriangularPass2: tri})
				vsec = float64(rep.ElapsedNS) / 1e9
			}
			b.ReportMetric(vsec, "vsec")
		})
	}
}

// Section 4.2's operation-count analysis: computing L2 from 1-item
// tid-list intersections versus horizontal pair counting. The paper
// estimates ~10^9 vs ~4.5x10^7 operations for its workload and concludes
// Eclat should use the horizontal layout for L2; this bench measures the
// same two quantities on the benchmark database.
func BenchmarkAblationVerticalL2VsHorizontal(b *testing.B) {
	d := getDB(b, 10_000, 999)
	b.Run("horizontal-paircount", func(b *testing.B) {
		var ops float64
		for i := 0; i < b.N; i++ {
			pc := paircount.New(d.NumItems)
			ops = float64(pc.AddPartition(d))
		}
		b.ReportMetric(ops/1e6, "Mops")
	})
	b.Run("vertical-1item-intersect", func(b *testing.B) {
		lists := store.VerticalLists(d)
		b.ResetTimer()
		var ops float64
		for i := 0; i < b.N; i++ {
			var total int64
			// Intersect every pair of non-empty item lists, as a vertical
			// L2 computation would.
			for a := 0; a < d.NumItems; a++ {
				if len(lists[a]) == 0 {
					continue
				}
				for bb := a + 1; bb < d.NumItems; bb++ {
					if len(lists[bb]) == 0 {
						continue
					}
					total += int64(len(lists[a]) + len(lists[bb]))
				}
			}
			ops = float64(total)
		}
		b.ReportMetric(ops/1e6, "Mops")
	})
}

// The external-memory transformation (the paper's in-progress
// improvement) vs the memory-mapped transformation, in the regime where
// the mapped regions overflow host memory and page.
func BenchmarkAblationTransformStrategy(b *testing.B) {
	d := getDB(b, 25_000, 999)
	minsup := d.MinSupCount(0.25)
	mk := func(mem int64) *cluster.Cluster {
		cfg := cluster.Default(1, 1)
		cfg.HostMemBytes = mem
		return cluster.New(cfg)
	}
	for _, tc := range []struct {
		name string
		mem  int64
		ext  bool
	}{
		{"mmap/ample-memory", 256 << 20, false},
		{"external/ample-memory", 256 << 20, true},
		{"mmap/tight-memory", 512 << 10, false},
		{"external/tight-memory", 512 << 10, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var vsec float64
			for i := 0; i < b.N; i++ {
				_, rep := eclat.MineOpts(mk(tc.mem), d, minsup, eclat.Options{ExternalTransform: tc.ext})
				vsec = float64(rep.ElapsedNS) / 1e9
			}
			b.ReportMetric(vsec, "vsec")
		})
	}
}

// CCPD's shared candidate tree within a host vs Count Distribution's
// per-processor replicas, on a memory-tight 1x4 host.
func BenchmarkAblationSharedTreeCCPD(b *testing.B) {
	d := getDB(b, 25_000, 999)
	minsup := d.MinSupCount(0.25)
	for _, shared := range []bool{false, true} {
		name := "replicated"
		if shared {
			name = "shared-ccpd"
		}
		b.Run(name, func(b *testing.B) {
			var vsec float64
			for i := 0; i < b.N; i++ {
				cfg := cluster.Default(1, 4)
				cfg.HostMemBytes = 8 << 20
				_, rep := countdist.MineOpts(cluster.New(cfg), d, minsup,
					countdist.Options{SharedTree: shared})
				vsec = float64(rep.ElapsedNS) / 1e9
			}
			b.ReportMetric(vsec, "vsec")
		})
	}
}

// Scan counts of the related-work sequential algorithms (the I/O
// comparison framing the paper's introduction: Apriori scans per level,
// Partition twice, Sampling typically once plus the sample, Eclat's
// vertical layout twice in-memory / three times on the testbed).
func BenchmarkRelatedWorkScans(b *testing.B) {
	// The regular-seed database (not the itemset-rich instance): the
	// sampling algorithm's one-scan property is a statistical claim about
	// typical data.
	d := getDB(b, 25_000, 1997)
	minsup := d.MinSupCount(0.25)
	for _, algo := range []Algorithm{AlgoApriori, AlgoPartition, AlgoSampling, AlgoDHP, AlgoEclat} {
		b.Run(algo.String(), func(b *testing.B) {
			var scans int
			for i := 0; i < b.N; i++ {
				_, info, err := Mine(context.Background(), d, MineOptions{
					Algorithm:       algo,
					SupportCount:    minsup,
					PartitionChunks: 4,
					SampleSize:      8000,
					SampleLowerBy:   0.6,
				})
				if err != nil {
					b.Fatal(err)
				}
				scans = info.Scans
			}
			b.ReportMetric(float64(scans), "scans")
		})
	}
}

// MaxEclat's lookahead: maximal mining vs enumerating the full lattice.
func BenchmarkMaximalVsFull(b *testing.B) {
	d := getDB(b, 25_000, 999)
	minsup := d.MinSupCount(0.25)
	b.Run("full", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			res, _, _ := eclat.MineParallelLocal(context.Background(), d, minsup, eclat.Options{Workers: 1})
			n = res.Len()
		}
		b.ReportMetric(float64(n), "itemsets")
	})
	b.Run("maximal", func(b *testing.B) {
		var n int
		var hits int64
		for i := 0; i < b.N; i++ {
			res, st, _ := eclat.MineParallelLocal(context.Background(), d, minsup, eclat.Options{Workers: 1, Policy: eclat.PolicyMaximal})
			n = res.Len()
			hits = st.LookaheadHits
		}
		b.ReportMetric(float64(n), "itemsets")
		b.ReportMetric(float64(hits), "lookahead-hits")
	})
}

// ---------------------------------------------------------------------
// Micro-benchmarks of the core primitives.

func randomTidList(rng *rand.Rand, n, universe int) tidlist.List {
	seen := map[itemset.TID]bool{}
	for len(seen) < n {
		seen[itemset.TID(rng.Intn(universe))] = true
	}
	out := make(tidlist.List, 0, n)
	for t := range seen {
		out = append(out, t)
	}
	// Sort via insertion into a fresh slice (small n); keep it simple.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func BenchmarkIntersect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomTidList(rng, 2000, 100_000)
	y := randomTidList(rng, 2000, 100_000)
	buf := make(tidlist.List, 0, 2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = tidlist.IntersectInto(buf, x, y)
	}
}

func BenchmarkIntersectShortCircuit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomTidList(rng, 2000, 100_000)
	y := randomTidList(rng, 2000, 100_000)
	buf := make(tidlist.List, 0, 2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _, _ = tidlist.IntersectShortCircuit(buf, x, y, 500)
	}
}

func BenchmarkPairCounting(b *testing.B) {
	d := getDB(b, 10_000, 1997)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pc := paircount.New(d.NumItems)
		pc.AddPartition(d)
	}
}

func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := StandardConfig(5000)
		cfg.Seed = int64(i + 1)
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequentialEclat(b *testing.B) {
	d := getDB(b, 10_000, 1997)
	minsup := d.MinSupCount(0.5)
	for i := 0; i < b.N; i++ {
		eclat.MineParallelLocal(context.Background(), d, minsup, eclat.Options{Workers: 1})
	}
}

func BenchmarkSequentialApriori(b *testing.B) {
	d := getDB(b, 10_000, 1997)
	minsup := d.MinSupCount(0.5)
	for i := 0; i < b.N; i++ {
		if _, _, err := Mine(context.Background(), d, MineOptions{Algorithm: AlgoApriori, SupportCount: minsup}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRuleGeneration(b *testing.B) {
	d := getDB(b, 10_000, 1997)
	res, _, err := Mine(context.Background(), d, MineOptions{SupportPct: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(Rules(res, 0.9))
	}
	b.ReportMetric(float64(n), "rules")
}
