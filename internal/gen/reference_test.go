package gen

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/db"
	"repro/internal/itemset"
	"repro/internal/testutil"
)

// referenceGenerate is the generator's transaction loop as it was before
// its databases were built through db.Builder: a map per transaction, a
// fresh slice per corrupted itemset, sort.Slice over the map's keys. It
// is kept verbatim (only names changed) as the oracle for Generate's
// PRNG consumption, with makePatterns as it was before its patterns were
// carved from one slice (referenceMakePatterns); it shares poisson and
// pickPattern with the code under test. Like the original, it never returns when a
// transaction's size exceeds the number of items the patterns cover.
func referenceGenerate(c Config) (*db.Database, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c = c.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed))

	patterns := referenceMakePatterns(c, rng)

	d := &db.Database{NumItems: c.NumItems}
	d.Transactions = make([]db.Transaction, 0, c.NumTransactions)

	// Itemsets that did not fit in the previous transaction and were
	// deferred to the next one (the "assigned to the next transaction"
	// overflow rule).
	var carry []itemset.Itemset

	for tid := 0; tid < c.NumTransactions; tid++ {
		size := poisson(rng, c.AvgTxLen)
		if size < 1 {
			size = 1
		}
		if size > c.NumItems {
			size = c.NumItems
		}
		tx := make(map[itemset.Item]bool, size)

		add := func(set itemset.Itemset) bool {
			// If the itemset overflows the transaction, keep it anyway half
			// the time; otherwise defer it.
			if len(tx)+len(set) > size && len(tx) > 0 {
				if rng.Float64() < 0.5 {
					carry = append(carry, set)
					return false
				}
			}
			for _, it := range set {
				tx[it] = true
			}
			return true
		}

		// Drain deferred itemsets first.
		pending := carry
		carry = nil
		for _, set := range pending {
			add(set)
		}

		for len(tx) < size {
			p := pickPattern(patterns, rng)
			set := referenceCorrupt(p, rng)
			if len(set) == 0 {
				continue
			}
			add(set)
		}

		items := make([]itemset.Item, 0, len(tx))
		for it := range tx {
			items = append(items, it)
		}
		sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
		d.Transactions = append(d.Transactions, db.Transaction{
			TID:   itemset.TID(tid),
			Items: itemset.Itemset(items),
		})
	}
	return d, nil
}

// referenceMakePatterns is makePatterns as it was: a map, an item slice
// and a sort.Slice swapper per pattern.
func referenceMakePatterns(c Config, rng *rand.Rand) []pattern {
	patterns := make([]pattern, c.NumPatterns)
	weights := make([]float64, c.NumPatterns)
	var totalWeight float64
	var prev itemset.Itemset

	for i := range patterns {
		size := poisson(rng, c.AvgPatternLen)
		if size < 1 {
			size = 1
		}
		if size > c.NumItems {
			size = c.NumItems
		}
		picked := make(map[itemset.Item]bool, size)

		// Fraction of items inherited from the previous pattern, drawn from
		// an exponential with mean Correlation and clamped to [0,1].
		if prev != nil {
			frac := rng.ExpFloat64() * c.Correlation
			if frac > 1 {
				frac = 1
			}
			inherit := int(frac * float64(size))
			for j := 0; j < inherit && j < len(prev); j++ {
				picked[prev[rng.Intn(len(prev))]] = true
			}
		}
		for len(picked) < size {
			picked[itemset.Item(rng.Intn(c.NumItems))] = true
		}

		items := make([]itemset.Item, 0, len(picked))
		for it := range picked {
			items = append(items, it)
		}
		sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })
		patterns[i].items = itemset.Itemset(items)
		prev = patterns[i].items

		weights[i] = rng.ExpFloat64()
		totalWeight += weights[i]

		corr := c.CorruptionMean + rng.NormFloat64()*c.CorruptionDev
		if corr < 0 {
			corr = 0
		}
		if corr > 0.95 {
			corr = 0.95
		}
		patterns[i].corruption = corr
	}

	// Normalize weights into a cumulative distribution.
	var cum float64
	for i := range patterns {
		cum += weights[i] / totalWeight
		patterns[i].cumWeight = cum
	}
	patterns[len(patterns)-1].cumWeight = 1 // guard against float drift
	return patterns
}

// referenceCorrupt is corrupt as it was, cloning the pattern per call.
func referenceCorrupt(p *pattern, rng *rand.Rand) itemset.Itemset {
	set := p.items.Clone()
	for len(set) > 0 && rng.Float64() < p.corruption {
		i := rng.Intn(len(set))
		set = append(set[:i], set[i+1:]...)
	}
	return set
}

// sameDatabase reports the first transaction where got and want differ
// in TID or items.
func sameDatabase(t *testing.T, name string, got, want *db.Database) {
	t.Helper()
	if got.NumItems != want.NumItems || got.Len() != want.Len() {
		t.Fatalf("%s: N=%d |D|=%d, reference N=%d |D|=%d", name, got.NumItems, got.Len(), want.NumItems, want.Len())
	}
	for i, tx := range got.Transactions {
		ref := want.Transactions[i]
		if tx.TID != ref.TID || !tx.Items.Equal(ref.Items) {
			t.Fatalf("%s: transaction %d is %d %v, reference %d %v", name, i, tx.TID, tx.Items, ref.TID, ref.Items)
		}
	}
}

// oracleConfigs are the families the oracle compares: the paper's three,
// the repository benchmark's dense and hot families, and a 12-item
// universe where sizes clamp and deferred itemsets are common.
func oracleConfigs(numTx int) map[string]Config {
	dense := T10I6(numTx)
	dense.AvgTxLen, dense.NumItems = 20, 200
	hot := T10I6(numTx)
	hot.NumItems, hot.AvgPatternLen = 100, 4
	small := T10I6(numTx)
	small.NumItems = 12
	return map[string]Config{
		"T5I2": T5I2(numTx), "T10I6": T10I6(numTx), "T20I6": T20I6(numTx),
		"dense": dense, "hot": hot, "N=12": small,
	}
}

func TestGenerateMatchesReference(t *testing.T) {
	for name, cfg := range oracleConfigs(1500) {
		for _, seed := range []int64{1997, 1, 2, 3} {
			cfg.Seed = seed
			got, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceGenerate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameDatabase(t, name, got, want)
		}
	}
}

// FuzzGenerate compares Generate with the reference loop on small
// byte-derived configs. Configs whose patterns leave some item uncovered
// are skipped: the reference may never return on them.
func FuzzGenerate(f *testing.F) {
	f.Add(int64(1997), uint16(200), uint8(20), uint8(12), uint8(12), uint8(60), uint8(0), uint8(0), uint8(0))
	f.Add(int64(7), uint16(300), uint8(40), uint8(4), uint8(30), uint8(5), uint8(200), uint8(30), uint8(10))
	f.Add(int64(-3), uint16(50), uint8(1), uint8(1), uint8(1), uint8(1), uint8(255), uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, numTx uint16, tLen, iLen, numItems, numPatterns, corrMean, corrDev, correlation uint8) {
		cfg := Config{
			NumTransactions: int(numTx % 400),
			AvgTxLen:        float64(1+tLen%64) / 2,
			AvgPatternLen:   float64(1+iLen%32) / 2,
			NumItems:        1 + int(numItems%64),
			NumPatterns:     1 + int(numPatterns%128),
			CorruptionMean:  float64(corrMean) / 255,
			CorruptionDev:   float64(corrDev) / 255,
			Correlation:     float64(correlation) / 64,
			Seed:            seed,
		}
		c := cfg.withDefaults()
		if coveredItems(makePatterns(c, rand.New(rand.NewSource(c.Seed))), c.NumItems) < c.NumItems {
			t.Skip("some item is in no pattern")
		}
		got, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceGenerate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameDatabase(t, "fuzz", got, want)
		if err := testutil.CheckLayout(got); err != nil {
			t.Fatal(err)
		}
	})
}

func TestGenerateLayout(t *testing.T) {
	for name, cfg := range oracleConfigs(3000) {
		if err := testutil.CheckLayout(MustGenerate(cfg)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestGenerateFewPatternsTerminates: with one short pattern over 1000
// items, most drawn sizes exceed the items the pattern covers. Each
// transaction is then the covered items, where the reference loop never
// returns.
func TestGenerateFewPatternsTerminates(t *testing.T) {
	cfg := Config{NumTransactions: 200, AvgTxLen: 10, AvgPatternLen: 3, NumPatterns: 1, Seed: 5}
	c := cfg.withDefaults()
	patterns := makePatterns(c, rand.New(rand.NewSource(c.Seed)))
	d := MustGenerate(cfg)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tx := range d.Transactions {
		if len(tx.Items) == 0 || !tx.Items.SubsetOf(patterns[0].items) {
			t.Fatalf("transaction %d = %v, pattern %v", tx.TID, tx.Items, patterns[0].items)
		}
	}
}

var benchDB *db.Database

// BenchmarkGenerate times Generate and the reference loop on the
// paper's T10.I6.D20K and on the repository benchmark's dense family at
// D5K, so one run shows the flat layout's gain in time and allocation.
func BenchmarkGenerate(b *testing.B) {
	dense := T10I6(5000)
	dense.AvgTxLen, dense.NumItems = 20, 200
	cases := []struct {
		name string
		cfg  Config
	}{{"T10.I6.D20K", T10I6(20000)}, {"dense.D5K", dense}}
	gens := []struct {
		name string
		fn   func(Config) (*db.Database, error)
	}{{"flat", Generate}, {"reference", referenceGenerate}}
	for _, c := range cases {
		for _, g := range gens {
			b.Run("data="+c.name+"/gen="+g.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d, err := g.fn(c.cfg)
					if err != nil {
						b.Fatal(err)
					}
					benchDB = d
				}
			})
		}
	}
}
