package db_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/db"
	"repro/internal/itemset"
	"repro/internal/testutil"
)

// TestProducersLayout checks the flat layout (testutil.CheckLayout) on
// every producer in this package and on testutil.RandomDB, over enough
// transactions to fill several chunks.
func TestProducersLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	src := testutil.RandomDB(rng, 12000, 300, 12)
	if err := testutil.CheckLayout(src); err != nil {
		t.Fatalf("RandomDB: %v", err)
	}
	var bin, fimi bytes.Buffer
	if err := src.Encode(&bin); err != nil {
		t.Fatal(err)
	}
	if err := db.EncodeFIMI(&fimi, src); err != nil {
		t.Fatal(err)
	}
	fromBin, err := db.Decode(&bin)
	if err != nil {
		t.Fatal(err)
	}
	fromFIMI, err := db.DecodeFIMI(&fimi, src.NumItems)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*db.Database{"Decode": fromBin, "DecodeFIMI": fromFIMI} {
		if d.Len() != src.Len() {
			t.Fatalf("%s: %d transactions, want %d", name, d.Len(), src.Len())
		}
		for i, tx := range d.Transactions {
			if tx.TID != src.Transactions[i].TID || !tx.Items.Equal(src.Transactions[i].Items) {
				t.Fatalf("%s: transaction %d = %d %v, want %d %v", name, i, tx.TID, tx.Items,
					src.Transactions[i].TID, src.Transactions[i].Items)
			}
		}
		if err := testutil.CheckLayout(d); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestBuilderEdges: empty transactions, one longer than a chunk (storage
// of its own, so transaction 3 still follows 1 in their chunk), and one
// that exactly fills what is left of a chunk (so 5 starts the next).
func TestBuilderEdges(t *testing.T) {
	long := make([]itemset.Item, db.ChunkItems+5)
	for i := range long {
		long[i] = itemset.Item(i)
	}
	b := db.NewBuilder(len(long), 0)
	b.Append(0, nil)
	b.Append(1, long[:3])
	b.Append(2, long)
	b.Append(3, long[:db.ChunkItems-3])
	b.Append(4, nil)
	b.Append(5, long[:1])
	b.Append(6, long[:2])
	d := b.Database()
	if err := testutil.CheckLayout(d); err != nil {
		t.Fatal(err)
	}
	wantLen := []int{0, 3, len(long), db.ChunkItems - 3, 0, 1, 2}
	for i, tx := range d.Transactions {
		if tx.TID != itemset.TID(i) || len(tx.Items) != wantLen[i] || !tx.Items.Equal(itemset.Itemset(long[:wantLen[i]])) {
			t.Fatalf("transaction %d = %d, %d items", i, tx.TID, len(tx.Items))
		}
	}
	if b.Database().Len() != 0 {
		t.Fatal("Database did not reset the builder")
	}
}
