package paircount

import (
	"math"
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
// It checks every pair's count, Frequent's order and threshold, the
// Counts total and AddPartition's op count.
func FuzzCounter(f *testing.F) {
	f.Add(uint8(0), []byte{2, 0, 0, 1}, uint32(1))
	f.Add(uint8(3), []byte{3, 1, 0, 1, 2, 2, 4, 1, 3, 0x81, 0, 2}, uint32(2))
	f.Add(uint8(62), []byte{0x87, 0xFF, 0, 9, 17, 33, 40, 50, 63, 5, 2, 9, 40, 1, 3, 0}, uint32(math.MaxUint16+1))
	f.Add(uint8(10), []byte{0x82, 0xFF, 1, 4, 0x83, 0x0F, 0, 1, 4, 7, 0}, uint32(70000))
	f.Fuzz(func(t *testing.T, mb uint8, data []byte, minsup uint32) {
		m := 2 + int(mb)%63
		c := New(m)
		var txs []itemset.Itemset
		var repeats []int
		var ops, wantOps int64
		total := 0
		for len(data) >= 2 && total < fuzzMaxTx {
			hdr, rep := data[0], data[1]
			data = data[2:]
			raw := make([]itemset.Item, min(int(hdr&7), len(data)))
			for i := range raw {
				raw[i] = itemset.Item(int(data[i]) % m)
			}
			data = data[len(raw):]
			items := itemset.New(raw...)
			repeat := 1 + int(rep)
			if hdr&0x80 != 0 {
				repeat <<= 8
			}
			one := &db.Database{NumItems: m, Transactions: []db.Transaction{{Items: items}}}
			for r := 0; r < repeat; r++ {
				ops += c.AddPartition(one)
			}
			l := int64(len(items))
			wantOps += int64(repeat) * l * (l - 1) / 2
			txs = append(txs, items)
			repeats = append(repeats, repeat)
			total += repeat
		}
		if ops != wantOps {
			t.Fatalf("AddPartition ops = %d, want %d", ops, wantOps)
		}
		oracle := pairOracle(txs, repeats)
		checkCounts(t, "counted", c, oracle)
		for _, s := range []int{1, int(minsup % (fuzzMaxTx + math.MaxUint16 + 2)), math.MaxUint16 + 1} {
			checkFrequent(t, "counted", c, oracle, s)
		}
		if got, want := sumCounts(c), oracleTotal(oracle); got != want {
			t.Fatalf("Counts sums to %d, oracle %d", got, want)
		}
		checkCounts(t, "after Counts", c, oracle)
	})
}
