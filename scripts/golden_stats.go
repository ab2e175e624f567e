//go:build ignore

// Command golden_stats regenerates internal/eclat/testdata/golden_stats.json,
// the frozen work-counter profile of the class-task engine on the seed
// datasets: every engine policy mined on one worker, plus the two
// simulated-cluster forms' output fingerprints and virtual times. The
// committed file was captured from the pre-engine variants and the
// equivalence suite asserts the engine reproduces it exactly at every
// policy, representation and worker count — regenerate only when a
// counter or virtual-time change is intentional and understood, never
// to paper over a divergence. CI regenerates it and diffs it against
// the committed copy.
//
// Usage (from the repository root):
//
//	go run scripts/golden_stats.go [-o internal/eclat/testdata/golden_stats.json]
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/eclat"
	"repro/internal/gen"
	"repro/internal/mining"
	"repro/internal/tidlist"
)

// KernelGold mirrors the exported accessors of tidlist.KernelStats.
type KernelGold struct {
	SparseOps      int64 `json:"sparseOps"`
	WordsTouched   int64 `json:"wordsTouched"`
	RoaringElemOps int64 `json:"roaringElemOps"`
	RoaringWords   int64 `json:"roaringWords"`
	Conversions    int64 `json:"conversions"`
}

// StatsGold freezes the work counters of one all-frequent run.
type StatsGold struct {
	Scans          int        `json:"scans"`
	Intersections  int64      `json:"intersections"`
	ShortCircuited int64      `json:"shortCircuited"`
	IntersectOps   int64      `json:"intersectOps"`
	Classes        int        `json:"classes"`
	Kernel         KernelGold `json:"kernel"`
}

// MaxGold freezes the counters of one maximal (MaxEclat) run.
type MaxGold struct {
	StatsGold
	Lookaheads    int64 `json:"lookaheads"`
	LookaheadHits int64 `json:"lookaheadHits"`
	Candidates    int   `json:"candidates"`
}

// VirtualGold freezes one simulated-cluster run's virtual time: the
// elapsed time and every phase's maximum per-processor time
// (cluster.Report.PhaseMaxima), in nanoseconds.
type VirtualGold struct {
	ElapsedNS   int64            `json:"elapsedNS"`
	PhaseMaxima map[string]int64 `json:"phaseMaxima"`
}

// Entry is the golden record of one (dataset, minsup, representation)
// cell across the two stat-bearing variants, plus an output
// fingerprint per mining variant (FNV-64a over the canonical sorted
// itemset/support stream — byte-identity across the refactor is asserted
// against these, not just against a same-binary re-run). Cluster
// fingerprints and virtual times are taken on a 2×2 simulated cluster.
type Entry struct {
	Dataset      string                 `json:"dataset"`
	MinSup       int                    `json:"minsup"`
	Repr         string                 `json:"repr"`
	Stats        StatsGold              `json:"stats"`
	Max          MaxGold                `json:"max"`
	Fingerprints map[string]uint64      `json:"fingerprints"`
	Virtual      map[string]VirtualGold `json:"virtual"`
}

// fingerprint hashes a canonical (sorted) result stream.
func fingerprint(res *mining.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(res.MinSup))
	put(int64(res.NumTransactions))
	for _, f := range res.Itemsets {
		put(int64(f.Set.K()))
		for _, it := range f.Set {
			put(int64(it))
		}
		put(int64(f.Support))
	}
	return h.Sum64()
}

func kernelGold(k *tidlist.KernelStats) KernelGold {
	return KernelGold{
		SparseOps:      k.SparseOps(),
		WordsTouched:   k.WordsTouched(),
		RoaringElemOps: k.RoaringElemOps(),
		RoaringWords:   k.RoaringWords(),
		Conversions:    k.Conversions(),
	}
}

// statsGold freezes the counters an all-frequent-shaped run reports.
func statsGold(st eclat.Stats) StatsGold {
	return StatsGold{
		Scans:          st.Scans,
		Intersections:  st.Intersections,
		ShortCircuited: st.ShortCircuited,
		IntersectOps:   st.IntersectOps,
		Classes:        st.Classes,
		Kernel:         kernelGold(&st.Kernel),
	}
}

// virtualGold freezes a cluster report's virtual-time figures.
func virtualGold(rep cluster.Report) VirtualGold {
	v := VirtualGold{ElapsedNS: rep.ElapsedNS, PhaseMaxima: map[string]int64{}}
	for _, pm := range rep.PhaseMaxima() {
		v.PhaseMaxima[pm.Name] = pm.NS
	}
	return v
}

func main() {
	out := flag.String("o", "internal/eclat/testdata/golden_stats.json", "output path")
	flag.Parse()

	type ds struct {
		name   string
		d      *db.Database
		minsup int
	}
	t10 := gen.MustGenerate(gen.T10I6(2000))
	t5 := gen.MustGenerate(gen.T5I2(800))
	// Dense: 12 items, |T|=8, |I|=4, where at 30 % support figure 3
	// counts classes and runs deep in the lattice.
	denseCfg := gen.T10I6(800)
	denseCfg.NumItems, denseCfg.AvgTxLen, denseCfg.AvgPatternLen = 12, 8, 4
	dense := gen.MustGenerate(denseCfg)
	datasets := []ds{
		{"T10I6-2000", t10, t10.MinSupCount(0.6)},
		{"T5I2-800", t5, t5.MinSupCount(1.0)},
		{"T8I4N12-800", dense, dense.MinSupCount(30)},
	}
	reprs := []tidlist.Repr{tidlist.ReprAuto, tidlist.ReprSparse, tidlist.ReprBitset, tidlist.ReprRoaring}

	var entries []Entry
	for _, d := range datasets {
		for _, repr := range reprs {
			e := Entry{Dataset: d.name, MinSup: d.minsup, Repr: repr.String(),
				Fingerprints: map[string]uint64{}, Virtual: map[string]VirtualGold{}}
			mine := func(key string, policy eclat.Policy) eclat.Stats {
				res, st, err := eclat.MineParallelLocal(context.Background(), d.d, d.minsup,
					eclat.Options{Representation: repr, Workers: 1, Policy: policy})
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				e.Fingerprints[key] = fingerprint(res)
				return st
			}

			e.Stats = statsGold(mine("all", eclat.PolicyAll))
			mst := mine("maximal", eclat.PolicyMaximal)
			e.Max = MaxGold{
				StatsGold:     statsGold(mst),
				Lookaheads:    mst.Lookaheads,
				LookaheadHits: mst.LookaheadHits,
				Candidates:    mst.Candidates,
			}
			mine("closed", eclat.PolicyClosed)

			opts := eclat.Options{Representation: repr}
			clRes, clRep := eclat.MineOpts(cluster.New(cluster.Default(2, 2)), d.d, d.minsup, opts)
			e.Fingerprints["cluster"] = fingerprint(clRes)
			e.Virtual["cluster"] = virtualGold(clRep)
			hyRes, hyRep := eclat.MineHybridOpts(cluster.New(cluster.Default(2, 2)), d.d, d.minsup, opts)
			e.Fingerprints["hybrid"] = fingerprint(hyRes)
			e.Virtual["hybrid"] = virtualGold(hyRep)

			entries = append(entries, e)
		}
	}

	buf, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d entries to %s\n", len(entries), *out)
}
