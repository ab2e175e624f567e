package paircount

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/db"
	"repro/internal/itemset"
)

// fuzzMaxTx caps the transactions one FuzzCounter input adds before its
// last one; a single transaction repeats at most 65,536 times.
const fuzzMaxTx = 200_000

// FuzzCounter checks the counter against the map oracle on byte-derived
// inputs. The universe holds 2–64 items. Each transaction is a two-byte
// header, then up to seven item bytes taken modulo the universe: the
// header's low three bits give the length, its second byte a repeat
// count of 1–256, and its top bit multiplies the repeat by 256, so some
// inputs add more than math.MaxUint16 transactions and cross the fold.
//
// The counter under test is a reused one, as a pooled triangle is: it
// first counts the same transactions over another universe of 2–64
// items, folding when they do, and is then Reset to the fuzzed one. It
// checks every pair's count, Frequent's order and threshold, the Counts
// total and AddPartition's op count against the oracle, and every cell,
// Frequent and Counts against a New counter fed the same transactions.
func FuzzCounter(f *testing.F) {
	f.Add(uint8(0), []byte{2, 0, 0, 1}, uint32(1))
	f.Add(uint8(3), []byte{3, 1, 0, 1, 2, 2, 4, 1, 3, 0x81, 0, 2}, uint32(2))
	f.Add(uint8(62), []byte{0x87, 0xFF, 0, 9, 17, 33, 40, 50, 63, 5, 2, 9, 40, 1, 3, 0}, uint32(math.MaxUint16+1))
	f.Add(uint8(10), []byte{0x82, 0xFF, 1, 4, 0x83, 0x0F, 0, 1, 4, 7, 0}, uint32(70000))
	f.Fuzz(func(t *testing.T, mb uint8, data []byte, minsup uint32) {
		m := 2 + int(mb)%63
		other := 2 + (int(mb)+31)%63
		var raws [][]byte
		var repeats []int
		total := 0
		for len(data) >= 2 && total < fuzzMaxTx {
			hdr, rep := data[0], data[1]
			data = data[2:]
			raw := data[:min(int(hdr&7), len(data))]
			data = data[len(raw):]
			repeat := 1 + int(rep)
			if hdr&0x80 != 0 {
				repeat <<= 8
			}
			raws = append(raws, raw)
			repeats = append(repeats, repeat)
			total += repeat
		}
		over := func(raw []byte, m int) *db.Database {
			items := make([]itemset.Item, len(raw))
			for i, b := range raw {
				items[i] = itemset.Item(int(b) % m)
			}
			return &db.Database{NumItems: m, Transactions: []db.Transaction{{Items: itemset.New(items...)}}}
		}

		c := New(other)
		for i, raw := range raws {
			one := over(raw, other)
			for r := 0; r < repeats[i]; r++ {
				c.AddPartition(one)
			}
		}
		c.Reset(m)
		fresh := New(m)
		var txs []itemset.Itemset
		var ops, wantOps int64
		for i, raw := range raws {
			one := over(raw, m)
			for r := 0; r < repeats[i]; r++ {
				ops += c.AddPartition(one)
				fresh.AddPartition(one)
			}
			items := one.Transactions[0].Items
			l := int64(len(items))
			wantOps += int64(repeats[i]) * l * (l - 1) / 2
			txs = append(txs, items)
		}
		if ops != wantOps {
			t.Fatalf("AddPartition ops = %d, want %d", ops, wantOps)
		}
		oracle := pairOracle(txs, repeats)
		checkCounts(t, "counted", c, oracle)
		for a := itemset.Item(0); int(a) < m; a++ {
			for b := a + 1; int(b) < m; b++ {
				if got, want := c.Count(a, b), fresh.Count(a, b); got != want {
					t.Fatalf("reset counter: Count(%d,%d) = %d, New counter %d", a, b, got, want)
				}
			}
		}
		for _, s := range []int{1, int(minsup % (fuzzMaxTx + math.MaxUint16 + 2)), math.MaxUint16 + 1} {
			checkFrequent(t, "counted", c, oracle, s)
			if got, want := c.Frequent(s), fresh.Frequent(s); !slices.Equal(got, want) {
				t.Fatalf("reset counter: Frequent(%d) = %v, New counter %v", s, got, want)
			}
		}
		if got, want := sumCounts(c), oracleTotal(oracle); got != want {
			t.Fatalf("Counts sums to %d, oracle %d", got, want)
		}
		if got, want := c.Counts(), fresh.Counts(); !slices.Equal(got, want) {
			t.Fatalf("reset counter: Counts = %v, New counter %v", got, want)
		}
		checkCounts(t, "after Counts", c, oracle)
	})
}

// FuzzPairMemo drives one Memo with a byte-derived support sequence (each
// byte modulo 24, so 0 occurs) over a small random database drawn from
// seed. Every answer must equal a fresh Counter.Frequent(minsup); a
// query hits exactly when its support is at or above the lowest support
// stored so far, and counts exactly when it misses; the floor and its
// pair count follow the lowest support of 1 or more. Every answer is then
// scribbled over, which must not reach later answers.
func FuzzPairMemo(f *testing.F) {
	f.Add(int64(1), []byte{5, 3, 7, 3, 1, 9})
	f.Add(int64(2), []byte{0, 0, 4, 24, 2, 2, 1, 25})
	f.Add(int64(3), []byte{23, 22, 21, 20, 19, 1, 2, 3})
	f.Fuzz(func(t *testing.T, seed int64, supports []byte) {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(30)
		c := New(m)
		for n := 50 + rng.Intn(200); n > 0; n-- {
			raw := make([]itemset.Item, rng.Intn(9))
			for i := range raw {
				raw[i] = itemset.Item(rng.Intn(m))
			}
			c.AddTransaction(itemset.New(raw...))
		}
		var memo Memo
		lowest := 0
		for i, b := range supports {
			minsup := int(b) % 24
			counts := 0
			got, hit := memo.Frequent(minsup, func() []FrequentPair {
				counts++
				return c.Frequent(minsup)
			})
			if want := c.Frequent(minsup); !slices.Equal(got, want) {
				t.Fatalf("query %d at %d: memo answered %v, counter %v", i, minsup, got, want)
			}
			if wantHit := lowest > 0 && minsup >= lowest; hit != wantHit || counts != b2i(!hit) {
				t.Fatalf("query %d at %d (lowest %d): hit %v after %d counts", i, minsup, lowest, hit, counts)
			}
			for j := range got {
				got[j].Count = -1
			}
			if !hit && minsup >= 1 && (lowest == 0 || minsup < lowest) {
				lowest = minsup
			}
			wantPairs := 0
			if lowest > 0 {
				wantPairs = len(c.Frequent(lowest))
			}
			if floor, pairs := memo.Floor(); floor != lowest || pairs != wantPairs {
				t.Fatalf("query %d: floor %d with %d pairs, want %d with %d", i, floor, pairs, lowest, wantPairs)
			}
		}
	})
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
