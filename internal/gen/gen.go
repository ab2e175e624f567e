// Package gen implements the IBM Quest synthetic basket-data generator of
// Agrawal & Srikant (VLDB'94, section 2.4.3), the procedure the paper uses
// for all its databases ("We used different synthetic databases ... which
// were generated using the procedure described in [4]").
//
// The generator first draws |L| "maximal potentially large itemsets"
// (patterns): pattern sizes are Poisson with mean |I|, successive patterns
// share an exponentially-sized fraction of items with their predecessor to
// model correlated purchases, each pattern carries an exponential weight
// (normalized to sum 1) and a corruption level drawn from N(0.5, 0.1^2).
// Transactions then have Poisson(|T|) sizes and are filled by repeatedly
// picking a pattern with probability proportional to its weight, dropping
// items from it while a uniform draw stays below its corruption level, and
// assigning itemsets that no longer fit to the next transaction half of
// the time.
//
// Everything is driven by a single seeded PRNG, so a Config generates the
// identical database on every run and platform.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/db"
	"repro/internal/itemset"
)

// Config holds the generator parameters in the paper's notation.
type Config struct {
	NumTransactions int     // |D|
	AvgTxLen        float64 // |T|: average transaction size
	AvgPatternLen   float64 // |I|: average size of maximal potentially frequent itemsets
	NumPatterns     int     // |L|: number of maximal potentially frequent itemsets (paper: 2000)
	NumItems        int     // N: number of items (paper: 1000)

	// CorruptionMean/Dev parameterize the per-pattern corruption level;
	// Correlation is the mean fraction of items a pattern inherits from its
	// predecessor. Zero values select the published defaults (0.5, 0.1, 0.5).
	CorruptionMean float64
	CorruptionDev  float64
	Correlation    float64

	Seed int64
}

// T10I6 returns the configuration family used throughout the paper's
// evaluation: |T|=10, |I|=6, |L|=2000, N=1000, varying only |D|.
func T10I6(numTransactions int) Config {
	return family(numTransactions, 10, 6)
}

// T5I2 returns the sparsest workload of the Agrawal-Srikant benchmark
// family (|T|=5, |I|=2): short baskets, short patterns.
func T5I2(numTransactions int) Config {
	return family(numTransactions, 5, 2)
}

// T20I6 returns the densest standard workload (|T|=20, |I|=6): long
// baskets with the paper's pattern length — the regime where vertical
// representations and diffsets pay off most.
func T20I6(numTransactions int) Config {
	return family(numTransactions, 20, 6)
}

func family(numTransactions int, t, i float64) Config {
	return Config{
		NumTransactions: numTransactions,
		AvgTxLen:        t,
		AvgPatternLen:   i,
		NumPatterns:     2000,
		NumItems:        1000,
		Seed:            1997, // SPAA'97
	}
}

// Name renders the configuration in the paper's naming scheme,
// e.g. "T10.I6.D800K".
func (c Config) Name() string {
	d := c.NumTransactions
	switch {
	case d >= 1_000_000 && d%1_000_000 == 0:
		return fmt.Sprintf("T%d.I%d.D%dM", int(c.AvgTxLen), int(c.AvgPatternLen), d/1_000_000)
	case d >= 1000 && d%1000 == 0:
		return fmt.Sprintf("T%d.I%d.D%dK", int(c.AvgTxLen), int(c.AvgPatternLen), d/1000)
	default:
		return fmt.Sprintf("T%d.I%d.D%d", int(c.AvgTxLen), int(c.AvgPatternLen), d)
	}
}

func (c Config) withDefaults() Config {
	if c.CorruptionMean == 0 {
		c.CorruptionMean = 0.5
	}
	if c.CorruptionDev == 0 {
		c.CorruptionDev = 0.1
	}
	if c.Correlation == 0 {
		c.Correlation = 0.5
	}
	if c.NumPatterns == 0 {
		c.NumPatterns = 2000
	}
	if c.NumItems == 0 {
		c.NumItems = 1000
	}
	return c
}

// Validate reports configuration errors before generation.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch {
	case c.NumTransactions < 0:
		return fmt.Errorf("gen: negative NumTransactions %d", c.NumTransactions)
	case c.NumItems < 1:
		return fmt.Errorf("gen: NumItems %d < 1", c.NumItems)
	case !positiveFinite(c.AvgTxLen):
		return fmt.Errorf("gen: AvgTxLen %v is not a positive finite number", c.AvgTxLen)
	case !positiveFinite(c.AvgPatternLen):
		return fmt.Errorf("gen: AvgPatternLen %v is not a positive finite number", c.AvgPatternLen)
	case c.NumPatterns < 1:
		return fmt.Errorf("gen: NumPatterns %d < 1", c.NumPatterns)
	case math.IsNaN(c.CorruptionMean), math.IsNaN(c.CorruptionDev), math.IsNaN(c.Correlation):
		return fmt.Errorf("gen: NaN corruption (%v, %v) or correlation (%v)", c.CorruptionMean, c.CorruptionDev, c.Correlation)
	}
	return nil
}

// positiveFinite reports whether x is a number in (0, +Inf): a NaN mean
// would never end poisson's loop.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// pattern is one maximal potentially large itemset.
type pattern struct {
	items      itemset.Itemset
	cumWeight  float64 // cumulative normalized weight, for coin tossing
	corruption float64
}

// poisson draws from a Poisson distribution with the given mean using
// Knuth's product method (means here are ~10, so this is fine).
func poisson(rng *rand.Rand, mean float64) int {
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Generate produces the synthetic database described by c.
//
// Golden outputs throughout the repository depend on the exact
// databases generated, so the PRNG draws and their order must stay
// those of the reference loop kept in this package's tests (DESIGN.md
// §14). The transaction loop allocates nothing per transaction: the
// items go into db.Builder's chunks, the transaction's item set is an
// epoch-stamped array over the N items, and corrupted and deferred
// itemsets live in reused buffers.
func Generate(c Config) (*db.Database, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c = c.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed))

	patterns := makePatterns(c, rng)
	// A transaction holds only items some pattern contains, so a size
	// above their union could never be filled.
	maxSize := coveredItems(patterns, c.NumItems)

	b := db.NewBuilder(c.NumItems, c.NumTransactions)
	tx := txState{rng: rng, inTx: make([]int32, c.NumItems)}
	var set []itemset.Item
	// Itemsets that did not fit in the previous transaction and were
	// deferred to this one (the "assigned to the next transaction"
	// overflow rule); tx.carry collects those deferred from this one.
	var pending setStore

	for tid := 0; tid < c.NumTransactions; tid++ {
		tx.size = min(max(poisson(rng, c.AvgTxLen), 1), maxSize)
		tx.reset()
		pending, tx.carry = tx.carry, pending
		tx.carry.reset()

		// Drain deferred itemsets first.
		start := 0
		for _, end := range pending.ends {
			tx.add(pending.items[start:end])
			start = end
		}

		for len(tx.items) < tx.size {
			p := pickPattern(patterns, rng)
			set = corrupt(p, rng, set)
			if len(set) == 0 {
				continue
			}
			tx.add(set)
		}

		slices.Sort(tx.items)
		b.Append(itemset.TID(tid), tx.items)
	}
	return b.Database(), nil
}

// txState is the transaction being filled, kept across transactions so
// that its buffers are reused.
type txState struct {
	rng   *rand.Rand
	size  int
	inTx  []int32 // inTx[it] == epoch: item it is in the transaction
	epoch int32
	items []itemset.Item // the transaction's distinct items, unsorted
	carry setStore       // itemsets deferred to the next transaction
}

// reset empties the transaction by advancing the epoch.
func (tx *txState) reset() {
	if tx.epoch == math.MaxInt32 {
		clear(tx.inTx)
		tx.epoch = 0
	}
	tx.epoch++
	tx.items = tx.items[:0]
}

// add puts set's items in the transaction. If set overflows a non-empty
// transaction, it is kept anyway half the time and otherwise deferred.
func (tx *txState) add(set []itemset.Item) {
	if len(tx.items)+len(set) > tx.size && len(tx.items) > 0 && tx.rng.Float64() < 0.5 {
		tx.carry.push(set)
		return
	}
	for _, it := range set {
		if tx.inTx[it] != tx.epoch {
			tx.inTx[it] = tx.epoch
			tx.items = append(tx.items, it)
		}
	}
}

// setStore is a sequence of itemsets copied into one buffer; itemset i
// is items[ends[i-1]:ends[i]].
type setStore struct {
	items []itemset.Item
	ends  []int
}

func (s *setStore) push(set []itemset.Item) {
	s.items = append(s.items, set...)
	s.ends = append(s.ends, len(s.items))
}

func (s *setStore) reset() {
	s.items = s.items[:0]
	s.ends = s.ends[:0]
}

// coveredItems returns how many of the n items some pattern contains.
func coveredItems(patterns []pattern, n int) int {
	seen := make([]bool, n)
	covered := 0
	for _, p := range patterns {
		for _, it := range p.items {
			if !seen[it] {
				seen[it] = true
				covered++
			}
		}
	}
	return covered
}

// MustGenerate is Generate for known-good configs (panics on error); used
// by tests and benchmarks.
func MustGenerate(c Config) *db.Database {
	d, err := Generate(c)
	if err != nil {
		panic(err)
	}
	return d
}

// makePatterns draws the |L| maximal potentially large itemsets. The
// PRNG draws and their order are those of the reference kept in this
// package's tests; the items are picked with an epoch-stamped array over
// the N items, as the transaction loop picks its own, and the patterns'
// items are carved from one growing backing slice (each capped, so no
// pattern can grow into the next).
func makePatterns(c Config, rng *rand.Rand) []pattern {
	patterns := make([]pattern, c.NumPatterns)
	weights := make([]float64, c.NumPatterns)
	var totalWeight float64
	var prev itemset.Itemset
	var backing []itemset.Item
	picked := make([]int32, c.NumItems) // picked[it] == epoch: it is in the pattern
	var epoch int32

	for i := range patterns {
		size := min(max(poisson(rng, c.AvgPatternLen), 1), c.NumItems)
		if epoch == math.MaxInt32 {
			clear(picked)
			epoch = 0
		}
		epoch++
		start := len(backing)
		pick := func(it itemset.Item) {
			if picked[it] != epoch {
				picked[it] = epoch
				backing = append(backing, it)
			}
		}

		// Fraction of items inherited from the previous pattern, drawn from
		// an exponential with mean Correlation and clamped to [0,1].
		if prev != nil {
			frac := min(rng.ExpFloat64()*c.Correlation, 1)
			inherit := int(frac * float64(size))
			for j := 0; j < inherit && j < len(prev); j++ {
				pick(prev[rng.Intn(len(prev))])
			}
		}
		for len(backing)-start < size {
			pick(itemset.Item(rng.Intn(c.NumItems)))
		}

		items := backing[start:len(backing):len(backing)]
		slices.Sort(items)
		patterns[i].items = items
		prev = items

		weights[i] = rng.ExpFloat64()
		totalWeight += weights[i]

		patterns[i].corruption = min(max(c.CorruptionMean+rng.NormFloat64()*c.CorruptionDev, 0), 0.95)
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

// pickPattern tosses the |L|-sided weighted coin.
func pickPattern(patterns []pattern, rng *rand.Rand) *pattern {
	x := rng.Float64()
	lo, hi := 0, len(patterns)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if patterns[mid].cumWeight < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return &patterns[lo]
}

// corrupt copies p's items into buf and drops items from the copy while
// successive uniform draws stay below the pattern's corruption level,
// modelling customers who buy only part of a frequent pattern.
func corrupt(p *pattern, rng *rand.Rand, buf []itemset.Item) []itemset.Item {
	set := append(buf[:0], p.items...)
	for len(set) > 0 && rng.Float64() < p.corruption {
		i := rng.Intn(len(set))
		set = append(set[:i], set[i+1:]...)
	}
	return set
}
