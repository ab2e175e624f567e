// Package db implements the horizontal transaction database of the paper:
// each transaction is a unique TID followed by the sorted set of items it
// contains. It also provides the equal-sized block partitioning that all
// the parallel algorithms assume ("the database is partitioned among all
// the processors in equal-sized blocks, which reside on the local disk of
// each processor") and a compact binary encoding used both by the cmd/
// tools and by the simulated-disk cost model to size I/O transfers.
//
// Every producer of a database (the generator, both decoders, the tests'
// random builder) builds it through a Builder, which packs the
// transactions' items into fixed-size contiguous chunks, so a scan of
// the database reads its items front to back instead of chasing one
// heap object per transaction.
package db

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/itemset"
)

// Transaction is one row of basket data: a transaction identifier and the
// sorted itemset bought in it.
type Transaction struct {
	TID   itemset.TID
	Items itemset.Itemset
}

// Database is an in-memory horizontal database. Transactions are stored in
// increasing TID order; block partitioning therefore yields disjoint,
// monotonically increasing TID ranges per partition, the property Eclat's
// transformation phase exploits to keep global tid-lists sorted without a
// sort step (paper section 6.3).
type Database struct {
	// NumItems is the size of the item universe; items are in [0, NumItems).
	NumItems int
	// Transactions in increasing TID order.
	Transactions []Transaction
}

// ChunkItems is the size, in items, of one chunk of a built database's
// item storage (64 KiB). A transaction longer than a chunk gets storage
// of its own.
const ChunkItems = 1 << 14

// Builder appends transactions to a new Database. Each transaction's
// items are copied into the current chunk of ChunkItems items; one that
// does not fit in what is left of it starts a new chunk, so no
// transaction straddles two and consecutive transactions of a chunk are
// adjacent in memory. Each Items is a sub-slice capped at its length, so
// an append to one transaction's items copies them instead of
// overwriting the next transaction's. The builder's state stays in the
// Builder: a finished Database is the exported fields alone.
type Builder struct {
	d    Database
	free []itemset.Item // unused tail of the current chunk
}

// NewBuilder starts a database over numItems items with room for numTx
// transactions (a hint; more may be appended).
func NewBuilder(numItems, numTx int) *Builder {
	return &Builder{d: Database{NumItems: numItems, Transactions: make([]Transaction, 0, numTx)}}
}

// Append adds the transaction tid with a copy of items, which the caller
// may reuse once Append returns. Append checks nothing: the producer
// keeps TIDs increasing and items sorted, or validates the result.
func (b *Builder) Append(tid itemset.TID, items []itemset.Item) {
	n := len(items)
	var dst itemset.Itemset
	switch {
	case n > ChunkItems:
		dst = make(itemset.Itemset, n)
	case n > len(b.free):
		b.free = make([]itemset.Item, ChunkItems)
		fallthrough
	default:
		dst = b.free[:n:n]
		b.free = b.free[n:]
	}
	copy(dst, items)
	b.d.Transactions = append(b.d.Transactions, Transaction{TID: tid, Items: dst})
}

// Database returns the built database and resets b to an empty builder
// over no items.
func (b *Builder) Database() *Database {
	d := b.d
	*b = Builder{}
	return &d
}

// Len returns the number of transactions |D|.
func (d *Database) Len() int { return len(d.Transactions) }

// AvgLen returns the average transaction size |T|.
func (d *Database) AvgLen() float64 {
	if len(d.Transactions) == 0 {
		return 0
	}
	var total int
	for _, t := range d.Transactions {
		total += len(t.Items)
	}
	return float64(total) / float64(len(d.Transactions))
}

// SizeBytes returns the size of the binary encoding of d, the figure the
// disk model charges for a full scan (Table 1 reports these in MB).
func (d *Database) SizeBytes() int64 {
	var n int64 = 12 // header
	for _, t := range d.Transactions {
		n += 4 + 4 + 4*int64(len(t.Items)) // tid + count + items
	}
	return n
}

// MinSupCount converts a percentage support threshold (e.g. 0.1 for the
// paper's 0.1%) into an absolute transaction count, rounding up so that an
// itemset with exactly the threshold share qualifies.
func (d *Database) MinSupCount(pct float64) int {
	c := int(math.Ceil(pct / 100 * float64(len(d.Transactions))))
	if c < 1 {
		c = 1
	}
	return c
}

// Partition splits d into n block partitions of near-equal transaction
// count, preserving TID order. Partition i receives transactions
// [i*ceil(len/n) ...), so TID ranges are disjoint and increasing across
// partitions. Partitions share the underlying transaction storage.
func (d *Database) Partition(n int) []*Database {
	if n <= 0 {
		panic(fmt.Sprintf("db: invalid partition count %d", n))
	}
	parts := make([]*Database, n)
	total := len(d.Transactions)
	for i := 0; i < n; i++ {
		lo := i * total / n
		hi := (i + 1) * total / n
		parts[i] = &Database{NumItems: d.NumItems, Transactions: d.Transactions[lo:hi]}
	}
	return parts
}

// Validate checks the structural invariants: increasing TIDs, sorted
// in-range items. Algorithms rely on these; the generator and decoder
// guarantee them, and tests call Validate to prove it.
func (d *Database) Validate() error {
	var prev itemset.TID = -1
	for _, t := range d.Transactions {
		if t.TID <= prev {
			return fmt.Errorf("db: TIDs not strictly increasing at %d", t.TID)
		}
		prev = t.TID
		for i, it := range t.Items {
			if it < 0 || int(it) >= d.NumItems {
				return fmt.Errorf("db: item %d out of range [0,%d) in tid %d", it, d.NumItems, t.TID)
			}
			if i > 0 && t.Items[i-1] >= it {
				return fmt.Errorf("db: items not strictly increasing in tid %d", t.TID)
			}
		}
	}
	return nil
}

const magic = uint32(0xEC1A7DB1)

// Encode writes the binary representation of d to w:
//
//	magic uint32 | numItems uint32 | numTx uint32
//	then per transaction: tid uint32 | count uint32 | items []uint32
//
// All values little-endian.
func (d *Database) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(d.NumItems))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(d.Transactions)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [8]byte
	for _, t := range d.Transactions {
		binary.LittleEndian.PutUint32(buf[0:], uint32(t.TID))
		binary.LittleEndian.PutUint32(buf[4:], uint32(len(t.Items)))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
		for _, it := range t.Items {
			binary.LittleEndian.PutUint32(buf[:4], uint32(it))
			if _, err := bw.Write(buf[:4]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Decode reads a database previously written by Encode.
func Decode(r io.Reader) (*Database, error) {
	br := bufio.NewReader(r)
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("db: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magic {
		return nil, errors.New("db: bad magic; not an encoded database")
	}
	numTx := binary.LittleEndian.Uint32(hdr[8:])
	// The header's count is untrusted: reserve room for at most 65,536
	// transactions up front and let appends grow the rest.
	b := NewBuilder(int(binary.LittleEndian.Uint32(hdr[4:])), int(min(numTx, 1<<16)))
	var buf [8]byte
	var raw []byte
	var items []itemset.Item
	for i := uint32(0); i < numTx; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("db: reading transaction %d: %w", i, err)
		}
		tid := itemset.TID(binary.LittleEndian.Uint32(buf[0:]))
		count := int(binary.LittleEndian.Uint32(buf[4:]))
		if count > 1<<20 {
			return nil, fmt.Errorf("db: implausible transaction size %d", count)
		}
		raw = slices.Grow(raw[:0], 4*count)[:4*count]
		if _, err := io.ReadFull(br, raw); err != nil {
			return nil, fmt.Errorf("db: reading items of transaction %d: %w", i, err)
		}
		items = items[:0]
		for j := 0; j < len(raw); j += 4 {
			items = append(items, itemset.Item(binary.LittleEndian.Uint32(raw[j:])))
		}
		b.Append(tid, items)
	}
	d := b.Database()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Load reads the database file at path in format "binary" (the layout
// Encode writes) or "fimi" (the text DecodeFIMI reads). Format ""
// infers it from the extension: .fimi, .dat and .txt are FIMI text,
// anything else binary.
func Load(path, format string) (*Database, error) {
	if format == "" {
		format = "binary"
		switch strings.ToLower(filepath.Ext(path)) {
		case ".fimi", ".dat", ".txt":
			format = "fimi"
		}
	}
	if format != "binary" && format != "fimi" {
		return nil, fmt.Errorf("unknown format %q (want binary or fimi)", format)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if format == "fimi" {
		return DecodeFIMI(f, 0)
	}
	return Decode(f)
}
