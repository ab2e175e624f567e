// Package store is the persistent vertical dataset store: pack-style
// bundle files holding the sparse tid-list of every item in a dataset,
// written once at registration, a JSON index mapping item → bundle
// record, and mmap-backed reads that expose stored tid-lists directly as
// tidlist.Sets without copying. Registration is crash-safe — datasets
// are written under a temporary name, fsynced, and atomically renamed
// into place. A torn tail that an older build's interrupted spill append
// left is truncated on open, while corruption inside the committed
// extent surfaces as ErrCorruptBundle.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Bundle file layout (all integers little-endian):
//
//	header   magic uint32 | version uint32 | reserved uint64     (16 B)
//	record   item uint32 | enc uint32 | support uint32 |
//	         payloadLen uint32 | crc uint32 | pad uint32         (24 B)
//	         payload (payloadLen bytes, zero-padded to 8 B)
//	record   ...
//
// Records are padded to 8-byte boundaries so every payload starts
// 8-aligned, which keeps sparse tids 4-aligned inside the mapping — the
// precondition for tidlist.ListFromBytes' zero-copy view. The crc is
// crc32.IEEE over the first 16 header bytes and the unpadded payload, so
// a torn or bit-flipped record is detected before its bytes are ever
// aliased as a Set.
//
// Version 2 adds partitioned records: the bundle is laid out in
// fixed-size segments (index.segmentBytes, a multiple of 8), no physical
// record crosses a segment boundary, and one logical tid-list may be
// split across several physical part records — each with its own header
// and crc over its own chunk — listed in the index entry's parts. The
// gap a part too small to be useful would leave before a boundary is
// zero-filled and belongs to no record. Segments are the unit of the
// residency budget: a segment can be advised in or out of memory without
// tearing any record that lives in another segment.
const (
	bundleMagic      = 0x5ec10db5
	bundleVersion    = 1
	bundleVersion2   = 2
	bundleHeaderSize = 16
	recordHeaderSize = 24
)

// Tid-list encodings stored in bundle records.
const (
	// EncSparse is the only encoding written: sorted tids, 4 bytes each.
	EncSparse = 1
	// EncBitset and EncRoaring mark the dense and containerized copies
	// older builds spilled after the sparse records. Open verifies their
	// bounds and checksums like every record's and then skips them.
	EncBitset  = 2
	EncRoaring = 3
)

// ErrCorruptBundle reports a checksum, bound, or header mismatch inside
// the committed extent of a bundle. Callers detect it with errors.Is;
// Open treats it as "skip this dataset with a warning", never a crash.
var ErrCorruptBundle = errors.New("store: corrupt bundle")

// Record locates one tid-list inside the bundle, as serialized into the
// dataset index.
type Record struct {
	// Item is the item whose tid-list this record holds.
	Item int `json:"item"`
	// Enc is EncSparse, or EncBitset or EncRoaring in an older build's
	// spilled record.
	Enc int `json:"enc"`
	// Support is the tid count, duplicated from the payload so support
	// queries never touch the bundle.
	Support int `json:"support"`
	// Offset is the file offset of the record header. For a partitioned
	// record (len(Parts) > 1) it is the offset of the first part.
	Offset int64 `json:"offset"`
	// Length is the unpadded payload length in bytes, summed over parts
	// for a partitioned record.
	Length int64 `json:"length"`
	// Parts lists the physical part records of a partitioned (v2)
	// tid-list, in payload order. Empty for a single-part record, whose
	// sole implicit part is described by Offset/Length — the v1 shape.
	Parts []Part `json:"parts,omitempty"`
}

// Part locates one physical part record of a partitioned tid-list. Each
// part carries the full 24-byte record header and its own crc over its
// own payload chunk, so parts verify independently.
type Part struct {
	// Offset is the file offset of the part's record header.
	Offset int64 `json:"offset"`
	// Length is the unpadded length of this part's payload chunk.
	Length int64 `json:"length"`
}

// parts returns the physical part records backing r: the explicit Parts
// of a partitioned record, or the one implicit part of a v1-shaped one.
func (r Record) parts() []Part {
	if len(r.Parts) > 0 {
		return r.Parts
	}
	return []Part{{Offset: r.Offset, Length: r.Length}}
}

// paddedLen rounds a payload length up to the 8-byte record alignment.
func paddedLen(n int64) int64 { return (n + 7) &^ 7 }

// appendBundleHeader appends the 16-byte bundle file header.
func appendBundleHeader(dst []byte, version uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, bundleMagic)
	dst = binary.LittleEndian.AppendUint32(dst, version)
	return binary.LittleEndian.AppendUint64(dst, 0)
}

// checkBundleHeader validates the mapped file's magic and version.
func checkBundleHeader(b []byte) error {
	if len(b) < bundleHeaderSize {
		return fmt.Errorf("%w: %d-byte file is shorter than the header", ErrCorruptBundle, len(b))
	}
	if m := binary.LittleEndian.Uint32(b); m != bundleMagic {
		return fmt.Errorf("%w: bad magic %#x", ErrCorruptBundle, m)
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != bundleVersion && v != bundleVersion2 {
		return fmt.Errorf("%w: unsupported format version %d", ErrCorruptBundle, v)
	}
	return nil
}

// appendPartRecord appends one physical record (header, payload chunk,
// padding) to dst. It is the shared body of appendRecord and the
// segmented writer.
func appendPartRecord(dst []byte, item, enc int, support int, payload []byte) []byte {
	hdr := make([]byte, 0, recordHeaderSize)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(item))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(enc))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(support))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write(hdr)
	crc.Write(payload)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc.Sum32())
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)
	dst = append(dst, hdr...)
	dst = append(dst, payload...)
	for i := int64(len(payload)); i < paddedLen(int64(len(payload))); i++ {
		dst = append(dst, 0)
	}
	return dst
}

// appendRecord appends a full record (header, payload, padding) for the
// given item/encoding at the current end of dst and returns the extended
// buffer plus the index entry describing it. offset is the file offset
// dst's end corresponds to.
func appendRecord(dst []byte, offset int64, item, enc int, support int, payload []byte) ([]byte, Record) {
	rec := Record{Item: item, Enc: enc, Support: support, Offset: offset, Length: int64(len(payload))}
	return appendPartRecord(dst, item, enc, support, payload), rec
}

// appendRecordSeg appends a record under the v2 segment discipline: no
// physical part record crosses a multiple-of-segBytes file boundary.
// When the payload does not fit the current segment it is split into
// per-segment part records, and a segment remainder too small to hold a
// useful part (header plus 8 payload bytes) is zero-filled. segBytes
// must be a positive multiple of 8; segBytes <= 0 falls back to the
// unsegmented v1 writer. offset is the file offset dst's end corresponds
// to, as for appendRecord.
func appendRecordSeg(dst []byte, offset int64, segBytes int64, item, enc int, support int, payload []byte) ([]byte, Record) {
	if segBytes <= 0 {
		return appendRecord(dst, offset, item, enc, support, payload)
	}
	base := offset - int64(len(dst))
	rec := Record{Item: item, Enc: enc, Support: support, Length: int64(len(payload))}
	remaining := payload
	for first := true; first || len(remaining) > 0; first = false {
		pos := base + int64(len(dst))
		room := segBytes - pos%segBytes
		if room < recordHeaderSize+8 {
			for i := int64(0); i < room; i++ {
				dst = append(dst, 0)
			}
			room = segBytes
		}
		// room-recordHeaderSize rounded down to 8 keeps the padded part
		// inside the segment and every later part header 8-aligned.
		chunkCap := (room - recordHeaderSize) &^ 7
		chunk := remaining
		if int64(len(chunk)) > chunkCap {
			chunk, remaining = chunk[:chunkCap], remaining[chunkCap:]
		} else {
			remaining = nil
		}
		partOff := base + int64(len(dst))
		dst = appendPartRecord(dst, item, enc, support, chunk)
		rec.Parts = append(rec.Parts, Part{Offset: partOff, Length: int64(len(chunk))})
	}
	// A record that fit one segment keeps the v1 single-part index shape
	// so it still decodes zero-copy.
	if len(rec.Parts) == 1 {
		rec.Offset, rec.Length, rec.Parts = rec.Parts[0].Offset, rec.Parts[0].Length, nil
	} else {
		rec.Offset = rec.Parts[0].Offset
	}
	return dst, rec
}

// partPayload bounds-checks and checksum-verifies one physical part
// record of r inside the mapped bundle b and returns its payload chunk
// as a view over b.
func partPayload(b []byte, r Record, p Part) ([]byte, error) {
	end := p.Offset + recordHeaderSize + paddedLen(p.Length)
	if p.Offset < bundleHeaderSize || p.Offset%8 != 0 || p.Length < 0 || end > int64(len(b)) {
		return nil, fmt.Errorf("%w: record for item %d at [%d,%d) outside committed extent %d",
			ErrCorruptBundle, r.Item, p.Offset, end, len(b))
	}
	hdr := b[p.Offset : p.Offset+recordHeaderSize]
	if int(binary.LittleEndian.Uint32(hdr)) != r.Item ||
		int(binary.LittleEndian.Uint32(hdr[4:])) != r.Enc ||
		int(binary.LittleEndian.Uint32(hdr[8:])) != r.Support ||
		int64(binary.LittleEndian.Uint32(hdr[12:])) != p.Length {
		return nil, fmt.Errorf("%w: record header for item %d disagrees with index", ErrCorruptBundle, r.Item)
	}
	payload := b[p.Offset+recordHeaderSize : p.Offset+recordHeaderSize+p.Length]
	crc := crc32.NewIEEE()
	crc.Write(hdr[:16])
	crc.Write(payload)
	if crc.Sum32() != binary.LittleEndian.Uint32(hdr[16:]) {
		return nil, fmt.Errorf("%w: checksum mismatch for item %d", ErrCorruptBundle, r.Item)
	}
	return payload, nil
}

// recordPayload bounds-checks and checksum-verifies the record r inside
// the mapped bundle b and returns its unpadded payload. Single-part
// records return a zero-copy view over b; partitioned records verify
// every part and concatenate the chunks into an owned 8-aligned buffer
// (Go allocations of >= 8 bytes satisfy the tidlist decoders' alignment
// precondition).
func recordPayload(b []byte, r Record) ([]byte, error) {
	if len(r.Parts) == 0 {
		return partPayload(b, r, Part{Offset: r.Offset, Length: r.Length})
	}
	var total int64
	for _, p := range r.Parts {
		if p.Length < 0 {
			return nil, fmt.Errorf("%w: negative part length for item %d", ErrCorruptBundle, r.Item)
		}
		total += p.Length
	}
	if total != r.Length {
		return nil, fmt.Errorf("%w: part lengths for item %d sum to %d, index says %d",
			ErrCorruptBundle, r.Item, total, r.Length)
	}
	out := make([]byte, 0, total)
	for _, p := range r.Parts {
		pl, err := partPayload(b, r, p)
		if err != nil {
			return nil, err
		}
		out = append(out, pl...)
	}
	return out, nil
}
