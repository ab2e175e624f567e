package mining

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/itemset"
)

func TestWriteReadRoundTrip(t *testing.T) {
	res := sample()
	res.Sort()
	var buf bytes.Buffer
	if err := Write(&buf, res); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.MinSup != res.MinSup || back.NumTransactions != res.NumTransactions {
		t.Fatalf("header lost: %+v", back)
	}
	if !Equal(back, res) {
		t.Fatal(Diff(back, res))
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not a header\n",
		"# eclat-result minsup=2 transactions=5\nnot-a-support\t1 2\n",
		"# eclat-result minsup=2 transactions=5\n3 1 2\n",    // missing tab
		"# eclat-result minsup=2 transactions=5\n3\t2 1\n",   // unsorted
		"# eclat-result minsup=2 transactions=5\n3\t1 one\n", // bad item
		"# eclat-result minsup=2 transactions=5\n3\t\n",      // empty itemset
		"# eclat-result minsup=2 transactions=5\n3\t1 1\n",   // duplicate
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d should be rejected: %q", i, c)
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# eclat-result minsup=1 transactions=9\n\n# comment\n4\t1 2\n"
	res, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || !res.Itemsets[0].Set.Equal(itemset.New(1, 2)) {
		t.Fatalf("parsed %v", res.Itemsets)
	}
}

func TestWriteEmptyResult(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Result{MinSup: 3, NumTransactions: 7}); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil || back.Len() != 0 || back.MinSup != 3 {
		t.Fatalf("empty round trip: %v %v", back, err)
	}
}

// writeFmt is the fmt encoding Write replaced, kept as its reference:
// the header, then one "<support>\t<item> <item> ..." line per itemset.
func writeFmt(res *Result) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# eclat-result minsup=%d transactions=%d\n", res.MinSup, res.NumTransactions)
	for _, f := range res.Itemsets {
		fmt.Fprintf(&buf, "%d\t", f.Support)
		for i, it := range f.Set {
			if i > 0 {
				buf.WriteByte(' ')
			}
			fmt.Fprintf(&buf, "%d", it)
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// fuzzResult decodes a result from data: the header's minsup and
// transaction count, then itemsets of strictly increasing items, each a
// length byte (0 ends the result), a support and the item gaps.
// Supports and items reach the int32 range, the transaction count the
// int64 one.
func fuzzResult(data []byte) *Result {
	next := func(n int) uint64 {
		var v uint64
		for ; n > 0 && len(data) > 0; n-- {
			v = v<<8 | uint64(data[0])
			data = data[1:]
		}
		return v
	}
	res := &Result{MinSup: int(int32(next(4))), NumTransactions: int(next(8) >> 1)}
	for len(data) > 0 {
		n := int(next(1) % 8)
		if n == 0 {
			break
		}
		sup := int(int32(next(4)))
		set := make(itemset.Itemset, 0, n)
		item := int64(next(2)) - 1
		for k := 0; k < n; k++ {
			item += 1 + int64(next(3))
			if item > 1<<31-1 {
				break
			}
			set = append(set, itemset.Item(item))
		}
		if len(set) > 0 {
			res.Add(set, sup)
		}
	}
	return res
}

// FuzzWrite: on byte-derived results — empty ones, single items,
// supports and items up to the int32 range, negative supports — Write
// produces the bytes of the fmt encoding it replaced, Encode the same
// bytes in a slice of exactly their length, and Read gives the result
// back.
func FuzzWrite(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 10, 1, 0, 0, 0, 5, 0, 3, 0, 0, 0})
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 3, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xfe, 0, 0, 1, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 4, 2, 0x80, 0, 0, 0, 0, 7, 0, 0, 2, 0, 0, 9, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		res := fuzzResult(data)
		var buf bytes.Buffer
		if err := Write(&buf, res); err != nil {
			t.Fatal(err)
		}
		if want := writeFmt(res); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("Write:\n%q\nfmt encoding:\n%q", buf.Bytes(), want)
		}
		if enc := Encode(res); !bytes.Equal(enc, buf.Bytes()) || cap(enc) != len(enc) {
			t.Fatalf("Encode (capacity %d):\n%q\nWrite:\n%q", cap(enc), enc, buf.Bytes())
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		same := back.MinSup == res.MinSup && back.NumTransactions == res.NumTransactions && back.Len() == res.Len()
		for i := 0; same && i < res.Len(); i++ {
			a, b := back.Itemsets[i], res.Itemsets[i]
			same = a.Support == b.Support && a.Set.Equal(b.Set)
		}
		if !same {
			t.Fatalf("round trip: %+v, wrote %+v", back, res)
		}
	})
}

// TestEncodeSizesExtremes: Encode sizes the header and lines exactly at
// the ends of the int range and for an itemset with no items, which no
// miner emits but Write still encodes.
func TestEncodeSizesExtremes(t *testing.T) {
	for _, res := range []*Result{
		{MinSup: math.MinInt, NumTransactions: math.MaxInt},
		{MinSup: -1, NumTransactions: 0, Itemsets: []FrequentItemset{{Set: itemset.Itemset{}, Support: math.MinInt}}},
		{MinSup: 9, NumTransactions: 10, Itemsets: []FrequentItemset{{Set: itemset.New(0, 9, 10, math.MaxInt32), Support: 10}}},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, res); err != nil {
			t.Fatal(err)
		}
		if enc := Encode(res); !bytes.Equal(enc, buf.Bytes()) || cap(enc) != len(enc) {
			t.Errorf("Encode (capacity %d):\n%q\nWrite:\n%q", cap(enc), enc, buf.Bytes())
		}
	}
}

// TestWriteReusesItsLineBuffer: Write's allocations do not grow with
// the result, even when every line outgrows the line buffer's first
// capacity.
func TestWriteReusesItsLineBuffer(t *testing.T) {
	res := &Result{MinSup: 1, NumTransactions: 100_000}
	for i := 0; i < 1000; i++ {
		set := make(itemset.Itemset, 30)
		for k := range set {
			set[k] = itemset.Item(10_000 + 10*k + i%10)
		}
		res.Add(set, 50_000+i)
	}
	if allocs := testing.AllocsPerRun(5, func() { Write(io.Discard, res) }); allocs > 4 {
		t.Fatalf("Write made %v allocations for 1,000 lines of 30 items, want at most 4", allocs)
	}
}
