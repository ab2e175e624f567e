// Package testutil provides the brute-force mining oracle and random
// database builders shared by the test suites of every algorithm package.
// The oracle enumerates every subset of every transaction, so it is
// exponential in transaction length and only suitable for the small random
// databases the tests construct — which is exactly what makes it a
// trustworthy independent check.
package testutil

import (
	"fmt"
	"math/rand"
	"slices"
	"unsafe"

	"repro/internal/db"
	"repro/internal/itemset"
	"repro/internal/mining"
)

// BruteForce mines d exhaustively: the support of every itemset that
// appears as a subset of some transaction is counted via full subset
// enumeration, then thresholded at minsup.
func BruteForce(d *db.Database, minsup int) *mining.Result {
	if minsup < 1 {
		minsup = 1
	}
	counts := map[string]int{}
	for _, tx := range d.Transactions {
		n := len(tx.Items)
		if n > 20 {
			panic("testutil: transaction too long for brute force")
		}
		for mask := 1; mask < 1<<n; mask++ {
			var sub itemset.Itemset
			for b := 0; b < n; b++ {
				if mask&(1<<b) != 0 {
					sub = append(sub, tx.Items[b])
				}
			}
			counts[sub.Key()]++
		}
	}
	res := &mining.Result{MinSup: minsup, NumTransactions: d.Len()}
	for key, c := range counts {
		if c < minsup {
			continue
		}
		set, err := itemset.ParseKey(key)
		if err != nil {
			panic(err)
		}
		res.Add(set, c)
	}
	res.Sort()
	return res
}

// RandomDB builds a random database of numTx transactions over numItems
// items with transaction sizes in [1, maxLen]. Item draws are skewed
// (favouring small item ids) so that frequent itemsets of size >= 3
// actually occur, as in real basket data.
func RandomDB(rng *rand.Rand, numTx, numItems, maxLen int) *db.Database {
	b := db.NewBuilder(numItems, numTx)
	var items []itemset.Item
	for i := 0; i < numTx; i++ {
		n := 1 + rng.Intn(maxLen)
		items = items[:0]
		for j := 0; j < n; j++ {
			// Square the uniform draw to skew towards low item ids.
			u := rng.Float64()
			items = append(items, itemset.Item(int(u*u*float64(numItems))))
		}
		slices.Sort(items)
		b.Append(itemset.TID(i), slices.Compact(items))
	}
	return b.Database()
}

// CheckLayout reports the first departure of d from the layout every
// db.Builder produces: appending to a transaction's Items leaves the next
// transaction's items unchanged, and each Items is capped at its length;
// consecutive transactions that share a chunk of db.ChunkItems items are
// adjacent in memory, a transaction that does not fit in what is left of
// the chunk starting a new one; and d passes Validate. A violation found
// by the append check leaves the next transaction overwritten.
func CheckLayout(d *db.Database) error {
	const itemBytes = unsafe.Sizeof(itemset.Item(0))
	used := 0       // items of the current chunk taken so far
	var end uintptr // address just past the previous transaction in the chunk
	for i, tx := range d.Transactions {
		if i+1 < len(d.Transactions) {
			next := d.Transactions[i+1].Items.Clone()
			_ = append(tx.Items, -1)
			if !d.Transactions[i+1].Items.Equal(next) {
				return fmt.Errorf("tid %d: appending to its items changed the next transaction's", tx.TID)
			}
		}
		n := len(tx.Items)
		if cap(tx.Items) != n {
			return fmt.Errorf("tid %d: cap(Items) = %d, len %d", tx.TID, cap(tx.Items), n)
		}
		if n == 0 || n > db.ChunkItems {
			continue // nothing stored, or storage of its own
		}
		start := uintptr(unsafe.Pointer(unsafe.SliceData(tx.Items)))
		if end == 0 || used+n > db.ChunkItems {
			used = 0 // a new chunk
		} else if start != end {
			return fmt.Errorf("tid %d: items not adjacent to the previous transaction's in their chunk", tx.TID)
		}
		used += n
		end = start + uintptr(n)*itemBytes
	}
	return d.Validate()
}
