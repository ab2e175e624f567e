package repro_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro"
)

// TestMineTopKFacade: the public TopK option returns exactly the K
// highest-support itemsets of the equivalent full mine, and RunInfo
// reports the query and the effective threshold the heap ended at.
func TestMineTopKFacade(t *testing.T) {
	d, err := repro.Generate(repro.StandardConfig(800))
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := repro.Mine(context.Background(), d, repro.MineOptions{SupportPct: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	want := &repro.Result{MinSup: full.MinSup, NumTransactions: full.NumTransactions}
	want.Itemsets = append(want.Itemsets, full.Itemsets...)
	want.TruncateTopK(10)

	got, info, err := repro.Mine(context.Background(), d, repro.MineOptions{SupportPct: 1.0, TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Itemsets, want.Itemsets) {
		t.Fatalf("TopK=10 mine returned %d itemsets differing from truncated full mine (%d)", got.Len(), want.Len())
	}
	if info.TopK != 10 {
		t.Fatalf("info.TopK = %d, want 10", info.TopK)
	}
	if info.EffectiveMinSup < full.MinSup {
		t.Fatalf("info.EffectiveMinSup = %d, below the floor %d", info.EffectiveMinSup, full.MinSup)
	}

	// With no support threshold at all, TopK alone is a valid query: the
	// floor defaults to support 1 and the heap does all the pruning.
	floorless, info1, err := repro.Mine(context.Background(), d, repro.MineOptions{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if floorless.Len() != 3 {
		t.Fatalf("floorless TopK=3 returned %d itemsets", floorless.Len())
	}
	if floorless.MinSup != 1 {
		t.Fatalf("floorless TopK mine used MinSup = %d, want 1", floorless.MinSup)
	}
	if info1.EffectiveMinSup < 1 {
		t.Fatalf("info.EffectiveMinSup = %d", info1.EffectiveMinSup)
	}
}

// TestMineTargetedFacade: MustContain returns the full mine post-filtered
// to supersets of the queried items, with the query echoed in RunInfo.
func TestMineTargetedFacade(t *testing.T) {
	d, err := repro.Generate(repro.StandardConfig(800))
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := repro.Mine(context.Background(), d, repro.MineOptions{SupportPct: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	// Anchor on an item that actually appears in the output.
	anchor := int(full.Itemsets[0].Set[0])
	got, info, err := repro.Mine(context.Background(), d, repro.MineOptions{SupportPct: 1.0, MustContain: []int{anchor}})
	if err != nil {
		t.Fatal(err)
	}
	want := &repro.Result{MinSup: full.MinSup, NumTransactions: full.NumTransactions}
	for _, f := range full.Itemsets {
		for _, it := range f.Set {
			if int(it) == anchor {
				want.Itemsets = append(want.Itemsets, f)
				break
			}
		}
	}
	if !reflect.DeepEqual(got.Itemsets, want.Itemsets) {
		t.Fatalf("targeted mine returned %d itemsets, post-filter oracle has %d", got.Len(), want.Len())
	}
	if len(info.MustContain) != 1 || info.MustContain[0] != anchor {
		t.Fatalf("info.MustContain = %v, want [%d]", info.MustContain, anchor)
	}
	if got.Len() == 0 {
		t.Fatal("anchored targeted query returned nothing — anchor selection broken")
	}
}

// TestMineQueryOptionValidation: the typed sentinels gate every
// mis-routed or malformed query at the facade.
func TestMineQueryOptionValidation(t *testing.T) {
	d, err := repro.Generate(repro.StandardConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts repro.MineOptions
		want error
	}{
		{"negative topk", repro.MineOptions{SupportPct: 2.0, TopK: -1}, repro.ErrInvalidTopK},
		{"negative topk no support", repro.MineOptions{TopK: -1}, repro.ErrInvalidTopK},
		{"topk on apriori", repro.MineOptions{Algorithm: repro.AlgoApriori, SupportPct: 2.0, TopK: 5}, repro.ErrInvalidTopK},
		{"topk on cluster eclat", repro.MineOptions{SupportPct: 2.0, Hosts: 2, ProcsPerHost: 2, TopK: 5}, repro.ErrInvalidTopK},
		{"negative contains item", repro.MineOptions{SupportPct: 2.0, MustContain: []int{1, -2}}, repro.ErrInvalidMustContain},
		{"contains item 2^31", repro.MineOptions{SupportPct: 2.0, MustContain: []int{math.MaxInt32 + 1}}, repro.ErrInvalidMustContain},
		{"contains item 2^32+1", repro.MineOptions{SupportPct: 2.0, MustContain: []int{1<<32 + 1}}, repro.ErrInvalidMustContain},
		{"contains item 2^40", repro.MineOptions{SupportPct: 2.0, MustContain: []int{1 << 40}}, repro.ErrInvalidMustContain},
		{"contains on partition", repro.MineOptions{Algorithm: repro.AlgoPartition, SupportPct: 2.0, MustContain: []int{1}}, repro.ErrInvalidMustContain},
	} {
		if _, _, err := repro.Mine(context.Background(), d, tc.opts); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// The maximal/closed variants reject the query options too: a
	// truncated or filtered result would break their subsumption filters.
	if _, _, err := repro.MineMaximal(context.Background(), d, repro.MineOptions{SupportPct: 2.0, TopK: 5}); !errors.Is(err, repro.ErrInvalidTopK) {
		t.Fatalf("MineMaximal TopK: err = %v, want ErrInvalidTopK", err)
	}
	if _, _, err := repro.MineClosed(context.Background(), d, repro.MineOptions{SupportPct: 2.0, MustContain: []int{1}}); !errors.Is(err, repro.ErrInvalidMustContain) {
		t.Fatalf("MineClosed MustContain: err = %v, want ErrInvalidMustContain", err)
	}
}
