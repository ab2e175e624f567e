package db

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/itemset"
)

// DecodeFIMI reads the plain-text transaction format used by the FIMI
// repository datasets and most published association-mining tools: one
// transaction per line, items as space-separated non-negative integers.
// Lines are assigned consecutive TIDs; duplicate items within a line are
// deduplicated; blank lines and lines starting with '#' are skipped. The
// item universe is inferred as maxItem+1 unless numItems > 0 is given.
func DecodeFIMI(r io.Reader, numItems int) (*Database, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	b := NewBuilder(numItems, 0)
	var items []itemset.Item
	maxItem := -1
	lineNo := 0
	tid := itemset.TID(0)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		items = items[:0]
		for _, f := range strings.Fields(line) {
			v, err := strconv.ParseInt(f, 10, 32)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("db: line %d: bad item %q", lineNo, f)
			}
			if int(v) > maxItem {
				maxItem = int(v)
			}
			items = append(items, itemset.Item(v))
		}
		slices.Sort(items)
		b.Append(tid, slices.Compact(items))
		tid++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("db: reading FIMI input: %w", err)
	}
	d := b.Database()
	if d.NumItems <= maxItem {
		d.NumItems = maxItem + 1
	}
	if d.NumItems == 0 {
		d.NumItems = 1
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// EncodeFIMI writes the database in the FIMI text format.
func EncodeFIMI(w io.Writer, d *Database) error {
	bw := bufio.NewWriter(w)
	for _, tx := range d.Transactions {
		for i, it := range tx.Items {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.Itoa(int(it))); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
