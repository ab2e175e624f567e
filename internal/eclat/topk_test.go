package eclat

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/testutil"
	"repro/internal/tidlist"
)

// cloneResult deep-copies a result so oracle truncation/filtering cannot
// alias the mined slice.
func cloneResult(r *mining.Result) *mining.Result {
	out := &mining.Result{MinSup: r.MinSup, NumTransactions: r.NumTransactions}
	out.Itemsets = append([]mining.FrequentItemset(nil), r.Itemsets...)
	return out
}

// filterContains is the targeted-query oracle: the full mine post-filtered
// to the itemsets containing every queried item.
func filterContains(r *mining.Result, must []itemset.Item) *mining.Result {
	canon := canonMust(must)
	out := &mining.Result{MinSup: r.MinSup, NumTransactions: r.NumTransactions}
	for _, f := range r.Itemsets {
		if containsAll(f.Set, canon) {
			out.Itemsets = append(out.Itemsets, f)
		}
	}
	return out
}

// TestTopKMatchesTruncatedFullMine is the headline top-k contract: the
// adaptive mine (support heap raising the effective threshold mid-run)
// returns byte-identical output to mining everything at the caller's
// floor and truncating afterwards — at every k, representation, and
// worker count, ties at the kth support included.
func TestTopKMatchesTruncatedFullMine(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(1500))
	minsup := d.MinSupCount(0.6)
	for _, repr := range []tidlist.Repr{tidlist.ReprAuto, tidlist.ReprSparse, tidlist.ReprRoaring} {
		full, _, err := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1, Representation: repr})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 5, 17, 100, full.Len(), full.Len() + 50} {
			want := cloneResult(full)
			want.TruncateTopK(k)
			opts := Options{Representation: repr, TopK: k, Workers: 1}
			got, st, err := MineParallelLocal(context.Background(), d, minsup, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !byteIdentical(got, want) {
				t.Fatalf("repr=%v k=%d: top-k mine differs from truncated full mine:\n%s",
					repr, k, mining.Diff(got, want))
			}
			if st.EffectiveMinSup < minsup {
				t.Fatalf("repr=%v k=%d: EffectiveMinSup %d below floor %d", repr, k, st.EffectiveMinSup, minsup)
			}
			if k < full.Len() && st.EffectiveMinSup == minsup {
				t.Errorf("repr=%v k=%d: threshold never rose above the floor on a truncating query", repr, k)
			}
			for workers := 1; workers <= 8; workers *= 2 {
				o := opts
				o.Workers = workers
				pgot, pst, err := MineParallelLocal(context.Background(), d, minsup, o)
				if err != nil {
					t.Fatal(err)
				}
				if !byteIdentical(pgot, want) {
					t.Fatalf("repr=%v k=%d workers=%d: parallel top-k differs:\n%s",
						repr, k, workers, mining.Diff(pgot, want))
				}
				if pst.EffectiveMinSup < minsup {
					t.Fatalf("repr=%v k=%d workers=%d: EffectiveMinSup %d below floor",
						repr, k, workers, pst.EffectiveMinSup)
				}
			}
		}
	}
}

// TestTopKRandomDatabases anchors the equivalence on the brute-force
// oracle over random databases, so the property does not secretly depend
// on the generator's distribution.
func TestTopKRandomDatabases(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		d := testutil.RandomDB(rng, 60+rng.Intn(60), 12, 8)
		minsup := 2 + rng.Intn(3)
		brute := testutil.BruteForce(d, minsup)
		k := 1 + rng.Intn(brute.Len()+3)
		want := cloneResult(brute)
		want.TruncateTopK(k)
		got, _, err := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1, TopK: k})
		if err != nil {
			t.Fatal(err)
		}
		if !byteIdentical(got, want) {
			t.Fatalf("trial=%d minsup=%d k=%d: top-k differs from brute force:\n%s",
				trial, minsup, k, mining.Diff(got, want))
		}
	}
}

// TestTargetedMatchesPostFilter: a MustContain query returns exactly the
// full mine post-filtered to supersets of the queried items, in the same
// order — at every worker count, including queries over infrequent or
// unknown items (empty result).
func TestTargetedMatchesPostFilter(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(1500))
	minsup := d.MinSupCount(0.6)
	full, _, err := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Pick anchors from real output: a frequent singleton, a frequent
	// pair's items, and an item that never appears.
	var single itemset.Item = -1
	var pair itemset.Itemset
	for _, f := range full.Itemsets {
		if f.Set.K() == 1 && single < 0 {
			single = f.Set[0]
		}
		if f.Set.K() == 2 && pair == nil {
			pair = f.Set
		}
	}
	if single < 0 || pair == nil {
		t.Fatal("seed dataset produced no singleton or pair — test setup broken")
	}
	queries := [][]itemset.Item{
		{single},
		{pair[0], pair[1]},
		{pair[1], pair[0], pair[1]}, // unsorted with duplicates: canonicalization
		{9999},                      // unknown item: empty result
	}
	for qi, must := range queries {
		want := filterContains(full, must)
		for _, workers := range []int{1, 2, 4} {
			opts := Options{MustContain: must, Workers: workers}
			got, _, err := MineParallelLocal(context.Background(), d, minsup, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !byteIdentical(got, want) {
				t.Fatalf("query=%d workers=%d: targeted mine differs from post-filter:\n%s",
					qi, workers, mining.Diff(got, want))
			}
		}
	}
}

// TestTopKTargetedCompose: TopK and MustContain together mean "the k
// best itemsets containing these items" — the oracle filters first, then
// truncates.
func TestTopKTargetedCompose(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(1500))
	minsup := d.MinSupCount(0.6)
	full, _, err := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var single itemset.Item = -1
	for _, f := range full.Itemsets {
		if f.Set.K() == 1 {
			single = f.Set[0]
			break
		}
	}
	must := []itemset.Item{single}
	for _, k := range []int{1, 3, 10} {
		want := filterContains(full, must)
		want.TruncateTopK(k)
		for _, workers := range []int{1, 4} {
			opts := Options{TopK: k, MustContain: must, Workers: workers}
			got, _, err := MineParallelLocal(context.Background(), d, minsup, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !byteIdentical(got, want) {
				t.Fatalf("k=%d workers=%d: composed query differs from filter-then-truncate:\n%s",
					k, workers, mining.Diff(got, want))
			}
		}
	}
}

// TestTopKTargetedCancellation lands cancellation deterministically in
// the middle of top-k and targeted runs. A run either surfaces
// context.Canceled with no result, or — when the (possibly
// class-pruned) mine finished before the nth ctx check — returns the
// exact oracle answer; nothing in between. At least one n must land
// mid-mine per configuration or the test isn't exercising cancellation.
func TestTopKTargetedCancellation(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(1500))
	minsup := d.MinSupCount(0.6)
	full, _, err := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var single itemset.Item = -1
	for _, f := range full.Itemsets {
		if f.Set.K() == 1 {
			single = f.Set[0]
			break
		}
	}
	for _, opts := range []Options{
		{TopK: 5, Workers: 1},
		{MustContain: []itemset.Item{single}, Workers: 1},
		{TopK: 5, MustContain: []itemset.Item{single}, Workers: 1},
	} {
		want := filterContains(full, opts.MustContain)
		want.TruncateTopK(opts.TopK)
		canceled := 0
		for _, n := range []int64{0, 3, 50, 500} {
			ctx := &cancelAfterN{Context: context.Background(), n: n}
			res, _, err := MineParallelLocal(ctx, d, minsup, opts)
			switch {
			case errors.Is(err, context.Canceled):
				canceled++
				if res != nil {
					t.Fatalf("sequential opts=%+v n=%d: canceled run returned a result", opts, n)
				}
			case err == nil:
				if !byteIdentical(res, want) {
					t.Fatalf("sequential opts=%+v n=%d: uncanceled run returned wrong output:\n%s",
						opts, n, mining.Diff(res, want))
				}
			default:
				t.Fatalf("sequential opts=%+v n=%d: err = %v", opts, n, err)
			}
			pctx := &cancelAfterN{Context: context.Background(), n: n}
			popts := opts
			popts.Workers = 4
			pres, _, perr := MineParallelLocal(pctx, d, minsup, popts)
			switch {
			case errors.Is(perr, context.Canceled):
				if pres != nil {
					t.Fatalf("parallel opts=%+v n=%d: canceled run returned a result", opts, n)
				}
			case perr == nil:
				if !byteIdentical(pres, want) {
					t.Fatalf("parallel opts=%+v n=%d: uncanceled run returned wrong output:\n%s",
						opts, n, mining.Diff(pres, want))
				}
			default:
				t.Fatalf("parallel opts=%+v n=%d: err = %v", opts, n, perr)
			}
		}
		if canceled == 0 {
			t.Fatalf("opts=%+v: no n landed mid-mine — cancellation untested", opts)
		}
	}
}

// FuzzTopKHeap fuzzes the concurrent support heap against the sort-based
// oracle: after offering any support sequence, the effective threshold
// must equal the kth-largest support seen (0 while fewer than k seen),
// and must never exceed it — the soundness condition that makes top-k
// pruning lossless.
func FuzzTopKHeap(f *testing.F) {
	f.Add(uint8(3), []byte{5, 1, 9, 9, 2, 7})
	f.Add(uint8(1), []byte{4})
	f.Add(uint8(8), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, kRaw uint8, data []byte) {
		k := int(kRaw)%16 + 1
		sh := newSupportHeap(k)
		var seen []int
		for _, b := range data {
			sup := int(b) + 1 // supports are always ≥ 1
			sh.offer(sup)
			seen = append(seen, sup)
			sort.Sort(sort.Reverse(sort.IntSlice(seen)))
			want := 0
			if len(seen) >= k {
				want = seen[k-1]
			}
			if got := int(sh.eff.Load()); got != want {
				t.Fatalf("k=%d after %d offers: eff = %d, want kth-largest %d (seen %v)",
					k, len(seen), got, want, seen)
			}
		}
	})
}
