package eclat

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/db"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/testutil"
	"repro/internal/tidlist"
)

// verticalSets builds the per-item tid-sets of d in the requested
// representation — the shape the persistent store and the service
// registry hand to MineVerticalLocal.
func verticalSets(d *db.Database, repr tidlist.Repr) []tidlist.Set {
	lists := make([]tidlist.List, d.NumItems)
	for _, tx := range d.Transactions {
		for _, it := range tx.Items {
			lists[it] = append(lists[it], tx.TID)
		}
	}
	sets := make([]tidlist.Set, d.NumItems)
	for it, l := range lists {
		if len(l) == 0 {
			continue
		}
		switch repr {
		case tidlist.ReprBitset:
			var bs tidlist.Bitset
			bs.SetTIDs(l)
			sets[it] = &bs
		case tidlist.ReprRoaring:
			sets[it] = tidlist.NewRoaring(l)
		default:
			sets[it] = l
		}
	}
	return sets
}

// offsetTIDs renumbers d's transactions to base, base+stride, ... — a
// partition whose TIDs start far from 0 and leave gaps. A stride large
// enough makes the TID span dwarf the data, the sparse-row path of the
// vertical L2 count.
func offsetTIDs(d *db.Database, base, stride int) *db.Database {
	out := &db.Database{NumItems: d.NumItems, Transactions: make([]db.Transaction, len(d.Transactions))}
	for i, tx := range d.Transactions {
		out.Transactions[i] = db.Transaction{TID: itemset.TID(base + i*stride), Items: tx.Items}
	}
	return out
}

func resultBytes(t *testing.T, res *mining.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := mining.Write(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMineVerticalLocalMatchesHorizontal is the differential contract of
// the vertical path: for every dataset shape, query or policy, input
// representation, mining representation and worker count,
// MineVerticalLocal's serialized result is byte-identical to the
// horizontal sequential miner's, and it never scans horizontal data.
//
// It also bounds the vertical path's work: both paths count L2 in a
// triangle and derive each class member's pair tid-list from item sets
// when the class is mined, so in the same encoding the vertical path runs
// exactly the horizontal path's intersections under every policy. A
// return of the pairwise O(F²) L2 pass fails this. On the dense golden
// dataset figure 3's diffset switch must fire in every such run, so the
// diffset recursion is held to the same contract.
func TestMineVerticalLocalMatchesHorizontal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type dataset struct {
		name     string
		d        *db.Database
		minsup   int
		diffsets bool // figure 3's runs must switch sub-classes to diffsets
	}
	var datasets []dataset
	for _, numTx := range []int{60, 250} {
		datasets = append(datasets, dataset{fmt.Sprintf("tx=%d", numTx), testutil.RandomDB(rng, numTx, 30, 8), 3, false})
	}
	base := testutil.RandomDB(rng, 200, 30, 8)
	dense := goldenDB(t, goldenDense)
	datasets = append(datasets,
		dataset{"offset-gaps", offsetTIDs(base, 1_000_000, 3), 3, false},
		dataset{"offset-scattered", offsetTIDs(base, 70_000, 5_000), 3, false},
		dataset{goldenDense, dense, dense.MinSupCount(30), true})
	queries := []struct {
		name string
		opts Options
	}{
		{"all", Options{}},
		{"must", Options{MustContain: []itemset.Item{3}}},
		{"topk", Options{TopK: 25}},
		{"maximal", Options{Policy: PolicyMaximal}},
		{"closed", Options{Policy: PolicyClosed}},
	}

	for _, ds := range datasets {
		minsup := ds.minsup
		for _, q := range queries {
			var wantBytes []byte
			wantSts := map[tidlist.Repr]Stats{}
			for _, r := range allReprs {
				wantOpts := q.opts
				wantOpts.Workers, wantOpts.Representation = 1, r
				want, wantSt, err := MineParallelLocal(context.Background(), ds.d, minsup, wantOpts)
				if err != nil {
					t.Fatal(err)
				}
				wantSts[r] = wantSt
				if r == tidlist.ReprAuto {
					wantBytes = resultBytes(t, want)
				}
			}

			for _, inputRepr := range []tidlist.Repr{tidlist.ReprSparse, tidlist.ReprBitset, tidlist.ReprRoaring} {
				in := VerticalInput{NumTransactions: ds.d.Len(), Items: verticalSets(ds.d, inputRepr)}
				for _, mineRepr := range []tidlist.Repr{tidlist.ReprAuto, tidlist.ReprSparse, tidlist.ReprBitset, tidlist.ReprRoaring} {
					wantSt := wantSts[mineRepr]
					var oneWorker Stats
					for _, workers := range []int{1, 2, 4} {
						name := fmt.Sprintf("%s/%s/input=%v/repr=%v/workers=%d", ds.name, q.name, inputRepr, mineRepr, workers)
						opts := q.opts
						opts.Representation, opts.Workers = mineRepr, workers
						res, st, err := MineVerticalLocal(context.Background(), in, minsup, opts)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if got := resultBytes(t, res); !bytes.Equal(got, wantBytes) {
							t.Fatalf("%s: vertical result differs from horizontal", name)
						}
						if st.Scans != 0 {
							t.Fatalf("%s: vertical mine reported %d horizontal scans", name, st.Scans)
						}
						if st.Workers != workers {
							t.Fatalf("%s: st.Workers = %d, want %d", name, st.Workers, workers)
						}
						if ds.diffsets && (q.name == "all" || q.name == "closed") && st.DiffsetClasses == 0 {
							t.Fatalf("%s: no sub-class switched to diffsets", name)
						}
						// A top-k threshold rises in emission order, which
						// only a sequential run shares with the reference.
						if q.opts.TopK > 0 && workers > 1 {
							continue
						}
						if workers == 1 {
							oneWorker = st
						}
						// A class's encoding prices its counted expansion.
						// Under auto, packed item sets can resolve a class
						// to another encoding than the horizontal mine's
						// sparse pair lists, so where either one-worker run
						// counted a class the reference is the vertical
						// one-worker run of this input and encoding: the
						// choice must not depend on scheduling.
						if mineRepr == tidlist.ReprAuto && inputRepr != tidlist.ReprSparse &&
							(oneWorker.CountedClasses != 0 || wantSt.CountedClasses != 0) {
							if got, want := schedulingFree(st), schedulingFree(oneWorker); got != want {
								t.Fatalf("%s: counters %+v, one worker %+v", name, got, want)
							}
							continue
						}
						if extra := st.Intersections - wantSt.Intersections; extra != 0 {
							t.Fatalf("%s: vertical ran %d intersections beyond the horizontal path, want 0", name, extra)
						}
						if st.ShortCircuited != wantSt.ShortCircuited || st.Lookaheads != wantSt.Lookaheads {
							t.Fatalf("%s: short-circuited %d and lookaheads %d, horizontal %d and %d", name,
								st.ShortCircuited, st.Lookaheads, wantSt.ShortCircuited, wantSt.Lookaheads)
						}
						if st.CountedClasses != wantSt.CountedClasses || st.CountOps != wantSt.CountOps {
							t.Fatalf("%s: counted %d classes with %d increments, horizontal %d and %d", name,
								st.CountedClasses, st.CountOps, wantSt.CountedClasses, wantSt.CountOps)
						}
					}
				}
			}
		}
	}
}

// TestMineVerticalLocalCancel proves the vertical path honors an
// already-canceled ctx.
func TestMineVerticalLocalCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := testutil.RandomDB(rng, 200, 25, 8)
	in := VerticalInput{NumTransactions: d.Len(), Items: verticalSets(d, tidlist.ReprSparse)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := MineVerticalLocal(ctx, in, 2, Options{Workers: 1}); err == nil {
		t.Fatal("canceled vertical mine returned nil error")
	}
}

// TestMineVerticalLocalEmpty covers the degenerate inputs a store can
// legitimately serve: no items frequent, and an empty dataset.
func TestMineVerticalLocalEmpty(t *testing.T) {
	res, st, err := MineVerticalLocal(context.Background(),
		VerticalInput{NumTransactions: 4, Items: []tidlist.Set{tidlist.List{0}, nil, tidlist.List{1}}},
		3, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Itemsets) != 0 {
		t.Fatalf("infrequent input yielded %v", res.Itemsets)
	}
	if st.Classes != 0 {
		t.Fatalf("infrequent input yielded %d classes", st.Classes)
	}
	res, _, err = MineVerticalLocal(context.Background(), VerticalInput{}, 1, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Itemsets) != 0 {
		t.Fatalf("empty input yielded %v", res.Itemsets)
	}
}
