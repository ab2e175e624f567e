package gen

import (
	"math"
	"strings"
	"testing"
)

func TestName(t *testing.T) {
	cases := []struct {
		n    int
		want string
	}{
		{800_000, "T10.I6.D800K"},
		{6_400_000, "T10.I6.D6400K"},
		{2_000_000, "T10.I6.D2M"},
		{25_000, "T10.I6.D25K"},
		{1234, "T10.I6.D1234"},
	}
	for _, c := range cases {
		if got := T10I6(c.n).Name(); got != c.want {
			t.Errorf("Name(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := T10I6(100).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{NumTransactions: -1, AvgTxLen: 10, AvgPatternLen: 6},
		{NumTransactions: 10, AvgTxLen: -1, AvgPatternLen: 6},
		{NumTransactions: 10, AvgTxLen: 10, AvgPatternLen: -2},
		{NumTransactions: 10, AvgTxLen: 10, AvgPatternLen: 6, NumItems: -5},
		{NumTransactions: 10, AvgTxLen: 10, AvgPatternLen: 6, NumPatterns: -1},
		// Non-finite means: a NaN one never ends poisson's loop.
		{NumTransactions: 10, AvgTxLen: math.NaN(), AvgPatternLen: 6},
		{NumTransactions: 10, AvgTxLen: math.Inf(1), AvgPatternLen: 6},
		{NumTransactions: 10, AvgTxLen: 10, AvgPatternLen: math.NaN()},
		{NumTransactions: 10, AvgTxLen: 10, AvgPatternLen: math.Inf(1)},
		{NumTransactions: 10, AvgTxLen: 10, AvgPatternLen: 6, CorruptionMean: math.NaN()},
		{NumTransactions: 10, AvgTxLen: 10, AvgPatternLen: 6, CorruptionDev: math.NaN()},
		{NumTransactions: 10, AvgTxLen: 10, AvgPatternLen: 6, Correlation: math.NaN()},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		if _, err := Generate(c); err == nil {
			t.Errorf("Generate accepted bad config %d", i)
		}
	}
}

func TestGenerateStructure(t *testing.T) {
	cfg := T10I6(2000)
	d := MustGenerate(cfg)
	if d.Len() != 2000 {
		t.Fatalf("generated %d transactions, want 2000", d.Len())
	}
	if d.NumItems != 1000 {
		t.Fatalf("NumItems = %d", d.NumItems)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("generated database invalid: %v", err)
	}
}

func TestGenerateAvgTxLenNearTarget(t *testing.T) {
	d := MustGenerate(T10I6(5000))
	avg := d.AvgLen()
	// Poisson(10) sizes with dedup and overflow handling: allow a generous
	// band but require the mean to be in the right regime.
	if avg < 7 || avg > 13 {
		t.Fatalf("average transaction length %.2f far from |T|=10", avg)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(T10I6(500))
	b := MustGenerate(T10I6(500))
	if a.Len() != b.Len() {
		t.Fatal("nondeterministic length")
	}
	for i := range a.Transactions {
		if !a.Transactions[i].Items.Equal(b.Transactions[i].Items) {
			t.Fatalf("transaction %d differs between identical-seed runs", i)
		}
	}
	c := T10I6(500)
	c.Seed = 12345
	other := MustGenerate(c)
	same := true
	for i := range a.Transactions {
		if !a.Transactions[i].Items.Equal(other.Transactions[i].Items) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical databases")
	}
}

func TestGenerateUsesWholeItemUniverse(t *testing.T) {
	d := MustGenerate(T10I6(5000))
	seen := map[int]bool{}
	for _, tx := range d.Transactions {
		for _, it := range tx.Items {
			seen[int(it)] = true
		}
	}
	// With 5000 transactions of ~10 items drawn from 2000 patterns over
	// 1000 items, a large majority of the universe should appear.
	if len(seen) < 700 {
		t.Fatalf("only %d of 1000 items ever appear; generator too narrow", len(seen))
	}
}

func TestGenerateZeroTransactions(t *testing.T) {
	cfg := T10I6(0)
	d := MustGenerate(cfg)
	if d.Len() != 0 {
		t.Fatalf("want empty database, got %d", d.Len())
	}
}

func TestGenerateSkewedSupport(t *testing.T) {
	// The pattern weights are exponential, so item frequencies should be
	// visibly skewed: the most frequent item should occur much more often
	// than the median item.
	d := MustGenerate(T10I6(5000))
	counts := make([]int, d.NumItems)
	for _, tx := range d.Transactions {
		for _, it := range tx.Items {
			counts[it]++
		}
	}
	max, total, nonzero := 0, 0, 0
	for _, c := range counts {
		if c > max {
			max = c
		}
		total += c
		if c > 0 {
			nonzero++
		}
	}
	mean := float64(total) / float64(nonzero)
	if float64(max) < 3*mean {
		t.Fatalf("support not skewed: max=%d mean=%.1f", max, mean)
	}
}

func TestSmallUniverseClamps(t *testing.T) {
	// Degenerate config: universe smaller than |T| must still terminate and
	// produce valid transactions.
	c := Config{
		NumTransactions: 50,
		AvgTxLen:        10,
		AvgPatternLen:   6,
		NumPatterns:     10,
		NumItems:        5,
		Seed:            3,
	}
	d := MustGenerate(c)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tx := range d.Transactions {
		if len(tx.Items) > 5 {
			t.Fatalf("transaction larger than item universe: %v", tx.Items)
		}
		if len(tx.Items) == 0 {
			t.Fatal("empty transaction generated")
		}
	}
}

func TestWorkloadFamilies(t *testing.T) {
	cases := []struct {
		cfg  Config
		name string
		loT  float64
		hiT  float64
	}{
		{T5I2(3000), "T5.I2.D3K", 3, 7.5},
		{T10I6(3000), "T10.I6.D3K", 7, 14},
		{T20I6(3000), "T20.I6.D3K", 14, 27},
	}
	for _, c := range cases {
		if got := c.cfg.Name(); got != c.name {
			t.Errorf("Name = %q, want %q", got, c.name)
		}
		d := MustGenerate(c.cfg)
		if avg := d.AvgLen(); avg < c.loT || avg > c.hiT {
			t.Errorf("%s: avg |T| = %.2f outside [%v, %v]", c.name, avg, c.loT, c.hiT)
		}
	}
}

func TestNameMentionsTAndI(t *testing.T) {
	c := Config{NumTransactions: 100, AvgTxLen: 20, AvgPatternLen: 4}
	if got := c.Name(); !strings.HasPrefix(got, "T20.I4.") {
		t.Fatalf("Name = %q", got)
	}
}
