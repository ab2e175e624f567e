package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"

	"repro"
	"repro/internal/itemset"
	"repro/internal/mining"
)

// Dataset families. The seed of dataset j of a run with seed s is
// s*1000+j, so a workload's datasets differ from each other and from
// every other seed's.
func genConfig(family string, n int, seed int64, j int) repro.GeneratorConfig {
	cfg := repro.StandardConfig(n) // T10.I6, N=1000 items
	switch family {
	case "dense": // long baskets over few items: the vertical, kernel-bound regime
		cfg.AvgTxLen, cfg.NumItems = 20, 200
	case "hot": // few items, short patterns: large results, cheap to mine, stable in size across seeds
		cfg.NumItems, cfg.AvgPatternLen = 100, 4
	}
	cfg.Seed = seed*1000 + int64(j)
	return cfg
}

func generate(family string, n int, seed int64, count int) ([]*repro.Database, error) {
	out := make([]*repro.Database, count)
	for j := range out {
		d, err := repro.Generate(genConfig(family, n, seed, j))
		if err != nil {
			return nil, err
		}
		out[j] = d
	}
	return out, nil
}

// countWriter counts the bytes written to it.
type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// fingerprint is FNV-64a over res in the mining.Write format: the bytes
// the daemon serves at /v1/jobs/{id}/result.
func fingerprint(res *repro.Result) uint64 {
	h := fnv.New64a()
	if err := mining.Write(h, res); err != nil {
		panic(err) // a hash never fails a write
	}
	return h.Sum64()
}

func fingerprintBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b) // a hash never fails a write
	return h.Sum64()
}

// reference mines d sequentially with the paper's sparse tid-lists at
// minsup — a path no workload measures — as the base every expected
// output is derived from.
func reference(ctx context.Context, d *repro.Database, minsup int) (*repro.Result, error) {
	res, _, err := repro.Mine(ctx, d, repro.MineOptions{SupportCount: minsup, Parallelism: 1, Representation: repro.ReprSparse})
	if err != nil {
		return nil, fmt.Errorf("reference mine: %w", err)
	}
	return res, nil
}

// expected returns the output spec asks of dataset d. A maximal or closed
// spec is mined by repro.MineMaximal or repro.MineClosed, sequentially on
// sparse tid-lists. Any other spec is derived from base, the reference
// mine of d at a support no higher than spec's: filtered by support and
// must-contain, then truncated to the top k.
func expected(ctx context.Context, d *repro.Database, base *repro.Result, spec jobSpec) (*repro.Result, error) {
	opts := repro.MineOptions{SupportCount: spec.SupportCount, Parallelism: 1, Representation: repro.ReprSparse}
	var res *repro.Result
	var err error
	switch spec.Variant {
	case "maximal":
		res, _, err = repro.MineMaximal(ctx, d, opts)
	case "closed":
		res, _, err = repro.MineClosed(ctx, d, opts)
	default:
		res = &repro.Result{MinSup: spec.SupportCount, NumTransactions: base.NumTransactions}
		for _, f := range base.Itemsets {
			if f.Support >= spec.SupportCount && containsAll(f.Set, spec.MustContain) {
				res.Itemsets = append(res.Itemsets, f)
			}
		}
		res.TruncateTopK(spec.TopK)
	}
	if err != nil {
		return nil, fmt.Errorf("reference %s mine: %w", spec.Variant, err)
	}
	return res, nil
}

func containsAll(set itemset.Itemset, items []int) bool {
	for _, it := range items {
		if !set.Contains(itemset.Item(it)) {
			return false
		}
	}
	return true
}

// topItems returns the n most frequent items of d (support descending,
// item ascending).
func topItems(d *repro.Database, n int) []int {
	counts := make([]int, d.NumItems)
	for _, tx := range d.Transactions {
		for _, it := range tx.Items {
			counts[it]++
		}
	}
	items := make([]int, d.NumItems)
	for i := range items {
		items[i] = i
	}
	sort.SliceStable(items, func(a, b int) bool { return counts[items[a]] > counts[items[b]] })
	return items[:min(n, len(items))]
}
