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

// classMemberCount is Σ members over the L2 classes the horizontal path
// mines for (d, minsup, opts) — the exact number of pair tid-lists the
// vertical path derives.
func classMemberCount(d *db.Database, minsup int, opts Options) int64 {
	var st Stats
	v := buildVertical(context.Background(), d, minsup, &st, opts)
	var n int64
	for _, c := range v.classes {
		n += int64(len(c.Members))
	}
	return n
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
// the vertical path: for every dataset shape, query, input
// representation, mining representation and worker count,
// MineVerticalLocal's serialized result is byte-identical to the
// horizontal sequential miner's, and it never scans horizontal data.
//
// It also bounds the vertical path's work: its L2 count runs no kernel,
// so its intersections exceed the horizontal path's by exactly the pair
// tid-lists it derives, one per class member. A return of the pairwise
// O(F²) L2 pass fails this.
func TestMineVerticalLocalMatchesHorizontal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type dataset struct {
		name string
		d    *db.Database
	}
	var datasets []dataset
	for _, numTx := range []int{60, 250} {
		datasets = append(datasets, dataset{fmt.Sprintf("tx=%d", numTx), testutil.RandomDB(rng, numTx, 30, 8)})
	}
	base := testutil.RandomDB(rng, 200, 30, 8)
	datasets = append(datasets,
		dataset{"offset-gaps", offsetTIDs(base, 1_000_000, 3)},
		dataset{"offset-scattered", offsetTIDs(base, 70_000, 5_000)})
	queries := []struct {
		name string
		opts Options
	}{
		{"all", Options{}},
		{"must", Options{MustContain: []itemset.Item{3}}},
		{"topk", Options{TopK: 25}},
	}
	const minsup = 3

	for _, ds := range datasets {
		for _, q := range queries {
			want, wantSt, err := MineSequentialOpts(context.Background(), ds.d, minsup, q.opts)
			if err != nil {
				t.Fatal(err)
			}
			wantBytes := resultBytes(t, want)
			derived := classMemberCount(ds.d, minsup, q.opts)

			for _, inputRepr := range []tidlist.Repr{tidlist.ReprSparse, tidlist.ReprBitset, tidlist.ReprRoaring} {
				in := VerticalInput{NumTransactions: ds.d.Len(), Items: verticalSets(ds.d, inputRepr)}
				for _, mineRepr := range []tidlist.Repr{tidlist.ReprAuto, tidlist.ReprSparse, tidlist.ReprBitset, tidlist.ReprRoaring} {
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
						// A top-k threshold rises in emission order, which
						// only a sequential run shares with the reference.
						if q.opts.TopK > 0 && workers > 1 {
							continue
						}
						if extra := st.Intersections - wantSt.Intersections; extra != derived {
							t.Fatalf("%s: vertical ran %d intersections beyond the horizontal path, want %d (one per class member)",
								name, extra, derived)
						}
						if st.ShortCircuited != wantSt.ShortCircuited {
							t.Fatalf("%s: short-circuited %d, horizontal %d", name, st.ShortCircuited, wantSt.ShortCircuited)
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
