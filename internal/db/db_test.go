package db

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/itemset"
)

func sample() *Database {
	return &Database{
		NumItems: 10,
		Transactions: []Transaction{
			{TID: 0, Items: itemset.New(1, 3, 5)},
			{TID: 1, Items: itemset.New(2)},
			{TID: 2, Items: itemset.New(0, 9)},
			{TID: 5, Items: itemset.New(4, 5, 6, 7)},
		},
	}
}

func randomDB(rng *rand.Rand, numTx, numItems int) *Database {
	d := &Database{NumItems: numItems}
	for i := 0; i < numTx; i++ {
		n := 1 + rng.Intn(8)
		items := make([]itemset.Item, n)
		for j := range items {
			items[j] = itemset.Item(rng.Intn(numItems))
		}
		d.Transactions = append(d.Transactions, Transaction{
			TID:   itemset.TID(i),
			Items: itemset.New(items...),
		})
	}
	return d
}

func TestBasicStats(t *testing.T) {
	d := sample()
	if d.Len() != 4 {
		t.Fatalf("Len = %d", d.Len())
	}
	if got := d.AvgLen(); got != 2.5 {
		t.Fatalf("AvgLen = %v, want 2.5", got)
	}
	empty := &Database{NumItems: 3}
	if empty.AvgLen() != 0 {
		t.Fatal("empty AvgLen should be 0")
	}
}

func TestMinSupCount(t *testing.T) {
	d := &Database{Transactions: make([]Transaction, 1000)}
	cases := []struct {
		pct  float64
		want int
	}{
		{0.1, 1}, {1, 10}, {0.25, 3}, {100, 1000}, {0.0001, 1}, {0, 1},
	}
	for _, c := range cases {
		if got := d.MinSupCount(c.pct); got != c.want {
			t.Errorf("MinSupCount(%v) = %d, want %d", c.pct, got, c.want)
		}
	}
}

func TestPartitionCoversAndOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := randomDB(rng, 103, 20)
	for _, n := range []int{1, 2, 3, 4, 7, 16, 103, 200} {
		parts := d.Partition(n)
		if len(parts) != n {
			t.Fatalf("Partition(%d) returned %d parts", n, len(parts))
		}
		total := 0
		var prevTID itemset.TID = -1
		for _, p := range parts {
			total += p.Len()
			for _, tx := range p.Transactions {
				if tx.TID <= prevTID {
					t.Fatalf("Partition(%d): TID order broken across partitions", n)
				}
				prevTID = tx.TID
			}
		}
		if total != d.Len() {
			t.Fatalf("Partition(%d) covers %d of %d transactions", n, total, d.Len())
		}
		// Near-equal block sizes: max-min <= 1.
		min, max := parts[0].Len(), parts[0].Len()
		for _, p := range parts {
			if p.Len() < min {
				min = p.Len()
			}
			if p.Len() > max {
				max = p.Len()
			}
		}
		if max-min > 1 {
			t.Fatalf("Partition(%d): unbalanced blocks min=%d max=%d", n, min, max)
		}
	}
}

func TestPartitionPanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Partition(0) should panic")
		}
	}()
	sample().Partition(0)
}

func TestValidate(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatalf("sample should validate: %v", err)
	}
	bad := sample()
	bad.Transactions[1].TID = 0
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "TID") {
		t.Fatalf("duplicate TID should fail: %v", err)
	}
	bad = sample()
	bad.Transactions[0].Items = itemset.Itemset{3, 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("unsorted items should fail")
	}
	bad = sample()
	bad.Transactions[0].Items = itemset.Itemset{1, 99}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range item should fail")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := sample()
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != d.SizeBytes() {
		t.Fatalf("SizeBytes = %d, encoded = %d", d.SizeBytes(), buf.Len())
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumItems != d.NumItems || back.Len() != d.Len() {
		t.Fatalf("round trip header mismatch")
	}
	for i := range d.Transactions {
		if back.Transactions[i].TID != d.Transactions[i].TID ||
			!back.Transactions[i].Items.Equal(d.Transactions[i].Items) {
			t.Fatalf("transaction %d mismatch: %v vs %v", i, back.Transactions[i], d.Transactions[i])
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not a database file"))); err == nil {
		t.Fatal("Decode should reject bad magic")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Fatal("Decode should reject empty input")
	}
	// Truncated stream: encode then cut.
	var buf bytes.Buffer
	if err := sample().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	if _, err := Decode(bytes.NewReader(cut)); err == nil {
		t.Fatal("Decode should reject truncated input")
	}
	// A header claiming 2^32-1 transactions over a short body: rejected
	// once the body runs out, without first reserving room for them all.
	huge := bytes.Clone(buf.Bytes())
	binary.LittleEndian.PutUint32(huge[8:], math.MaxUint32)
	if _, err := Decode(bytes.NewReader(huge)); err == nil {
		t.Fatal("Decode should reject a transaction count beyond the input")
	}
}

// failWriter errors once its byte budget is exhausted, to exercise the
// encoders' error paths.
type failWriter struct{ budget int }

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.budget {
		n := w.budget
		w.budget = 0
		return n, errShort
	}
	w.budget -= len(p)
	return len(p), nil
}

var errShort = &shortErr{}

type shortErr struct{}

func (*shortErr) Error() string { return "short write" }

func TestEncodeWriteErrors(t *testing.T) {
	d := sample()
	for _, budget := range []int{0, 5, 13, 20} {
		if err := d.Encode(&failWriter{budget: budget}); err == nil {
			t.Errorf("Encode with budget %d should fail", budget)
		}
	}
	for _, budget := range []int{0, 3} {
		if err := EncodeFIMI(&failWriter{budget: budget}, d); err == nil {
			t.Errorf("EncodeFIMI with budget %d should fail", budget)
		}
	}
}

// Property: encode/decode round-trips arbitrary valid databases.
func TestEncodeDecodeQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDB(rng, int(n%60), 30)
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			return false
		}
		back, err := Decode(&buf)
		if err != nil || back.Len() != d.Len() {
			return false
		}
		for i := range d.Transactions {
			if !back.Transactions[i].Items.Equal(d.Transactions[i].Items) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestLoad pins Load's format choice: "" reads .fimi, .dat and .txt in
// any case as FIMI text and any other extension as binary, an explicit
// format overrides the extension, and an unknown format fails.
func TestLoad(t *testing.T) {
	d := sample()
	var bin, text bytes.Buffer
	if err := d.Encode(&bin); err != nil {
		t.Fatal(err)
	}
	if err := EncodeFIMI(&text, d); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		file, format string
		fimi         bool
	}{
		{"a.fimi", "", true},
		{"a.dat", "", true},
		{"a.txt", "", true},
		{"B.DAT", "", true},
		{"a.db", "", false},
		{"noext", "", false},
		{"a.db", "fimi", true},
		{"a.txt", "binary", false},
	}
	dir := t.TempDir()
	for _, c := range cases {
		// Binary keeps the stored TIDs, the last of which is 5; FIMI
		// numbers lines from 0, so the last TID names the decoder.
		data, lastTID := bin.Bytes(), itemset.TID(5)
		if c.fimi {
			data, lastTID = text.Bytes(), 3
		}
		path := filepath.Join(dir, c.file)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Load(path, c.format)
		if err != nil {
			t.Fatalf("Load(%s, %q): %v", c.file, c.format, err)
		}
		if got.Len() != d.Len() || got.Transactions[got.Len()-1].TID != lastTID {
			t.Fatalf("Load(%s, %q) = %d transactions ending at TID %d, want %d ending at %d",
				c.file, c.format, got.Len(), got.Transactions[got.Len()-1].TID, d.Len(), lastTID)
		}
	}
	_, err := Load(filepath.Join(dir, "a.db"), "csv")
	if err == nil || err.Error() != `unknown format "csv" (want binary or fimi)` {
		t.Fatalf("Load with format csv: err = %v", err)
	}
}
