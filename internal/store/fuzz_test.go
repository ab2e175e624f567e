package store

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"

	"repro/internal/itemset"
	"repro/internal/tidlist"
)

// fuzzTIDs decodes raw fuzz bytes into a sorted duplicate-free tid-list
// over a universe picked by sel, so the fuzzer reaches realistic and
// degenerate record shapes alike.
func fuzzTIDs(raw []byte, sel uint8) tidlist.List {
	universe := uint32(64) << (sel % 11)
	seen := map[itemset.TID]bool{}
	for i := 0; i+1 < len(raw); i += 2 {
		v := uint32(binary.LittleEndian.Uint16(raw[i:]))
		seen[itemset.TID(v%universe)] = true
	}
	out := make(tidlist.List, 0, len(seen))
	for tid := range seen {
		out = append(out, tid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FuzzBundleRoundTrip proves the on-disk record format is lossless and
// deterministic: a sparse record's encode → decode → re-encode is
// byte-identical and carries the same tids, and the checksum accepts
// exactly the bytes that were written — for the sparse record and for a
// bitset or roaring record of arbitrary payload appended after it, the
// shape an older build's spill left that Open verifies and skips.
func FuzzBundleRoundTrip(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 3, 0}, uint8(0), uint16(7))
	f.Add([]byte{}, uint8(3), uint16(0))
	f.Add([]byte{255, 255, 0, 0, 9, 2}, uint8(10), uint16(12345))
	f.Fuzz(func(t *testing.T, raw []byte, sel uint8, item16 uint16) {
		l := fuzzTIDs(raw, sel)
		item := int(item16)

		// Sparse record round trip.
		sp := tidlist.AppendListBytes(nil, l)
		bundle := appendBundleHeader(nil, bundleVersion)
		bundle, rec := appendRecord(bundle, int64(len(bundle)), item, EncSparse, len(l), sp)
		payload, err := recordPayload(bundle, rec)
		if err != nil {
			t.Fatalf("sparse record rejected its own bytes: %v", err)
		}
		got, err := tidlist.ListFromBytes(payload)
		if err != nil {
			t.Fatalf("sparse decode: %v", err)
		}
		if len(got) != len(l) {
			t.Fatalf("sparse round trip: got %v, want %v", got, l)
		}
		for i := range l {
			if got[i] != l[i] {
				t.Fatalf("sparse round trip: got %v, want %v", got, l)
			}
		}
		if !bytes.Equal(tidlist.AppendListBytes(nil, got), sp) {
			t.Fatal("sparse re-encode differs")
		}

		// Legacy-kind record appended after the sparse record the way an
		// older build's spill did: verified byte for byte, never decoded.
		legacy := EncBitset + int(sel%2)
		bundle, lrec := appendRecord(bundle, int64(len(bundle)), item, legacy, len(l), raw)
		lp, err := recordPayload(bundle, lrec)
		if err != nil {
			t.Fatalf("enc %d record rejected its own bytes: %v", legacy, err)
		}
		if !bytes.Equal(lp, raw) {
			t.Fatalf("enc %d record payload differs from the written bytes", legacy)
		}
		if len(raw) > 0 {
			corrupt := append([]byte(nil), bundle...)
			corrupt[lrec.Offset+recordHeaderSize] ^= 0x01
			if _, err := recordPayload(corrupt, lrec); err == nil {
				t.Fatalf("enc %d payload corruption not detected", legacy)
			}
		}
		// The sparse record is still intact behind the appended one.
		if _, err := recordPayload(bundle, rec); err != nil {
			t.Fatalf("sparse record damaged by append: %v", err)
		}

		// Any single corrupted byte inside the committed record must be
		// caught by the checksum (or the header cross-check).
		if len(sp) > 0 {
			corrupt := append([]byte(nil), bundle...)
			corrupt[rec.Offset+recordHeaderSize] ^= 0x01
			if _, err := recordPayload(corrupt, rec); err == nil {
				t.Fatal("payload corruption not detected")
			}
		}

		// Segmented (v2) writer round trip of the same payload: the
		// reconstruction must match the unsegmented payload byte for
		// byte regardless of how many parts the segment size forces.
		seg := appendBundleHeader(nil, bundleVersion2)
		seg, srec := appendRecordSeg(seg, int64(len(seg)), 128, item, EncSparse, len(l), sp)
		spl, err := recordPayload(seg, srec)
		if err != nil {
			t.Fatalf("segmented record rejected its own bytes: %v", err)
		}
		if !bytes.Equal(spl, sp) {
			t.Fatal("segmented reconstruction differs from unsegmented payload")
		}
	})
}

// FuzzBundleRoundTripV2 drives the partitioned (v2) record writer across
// fuzzed payloads and segment sizes: no physical part may cross a
// segment boundary, reconstruction must be lossless, and a single
// corrupted byte in any part must be caught by that part's checksum.
func FuzzBundleRoundTripV2(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 3, 0, 9, 1, 44, 3}, uint8(4), uint16(7), uint8(0))
	f.Add([]byte{}, uint8(3), uint16(0), uint8(2))
	f.Add([]byte{255, 255, 0, 0, 9, 2, 17, 17, 200, 0, 3, 9}, uint8(10), uint16(12345), uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, sel uint8, item16 uint16, segSel uint8) {
		l := fuzzTIDs(raw, sel)
		item := int(item16)
		segBytes := int64(40) << (segSel % 6) // 40B..1280B, all multiples of 8
		sp := tidlist.AppendListBytes(nil, l)

		bundle := appendBundleHeader(nil, bundleVersion2)
		bundle, rec := appendRecordSeg(bundle, int64(len(bundle)), segBytes, item, EncSparse, len(l), sp)
		for _, p := range rec.parts() {
			end := p.Offset + recordHeaderSize + paddedLen(p.Length)
			if p.Offset/segBytes != (end-1)/segBytes {
				t.Fatalf("part [%d,%d) crosses a %d-byte segment boundary", p.Offset, end, segBytes)
			}
		}
		payload, err := recordPayload(bundle, rec)
		if err != nil {
			t.Fatalf("v2 record rejected its own bytes: %v", err)
		}
		if !bytes.Equal(payload, sp) {
			t.Fatal("v2 reconstruction differs from source payload")
		}
		got, err := tidlist.ListFromBytes(payload)
		if err != nil {
			t.Fatalf("v2 decode: %v", err)
		}
		if len(got) != len(l) {
			t.Fatalf("v2 round trip: got %d tids, want %d", len(got), len(l))
		}
		for i := range l {
			if got[i] != l[i] {
				t.Fatalf("v2 round trip: got %v, want %v", got, l)
			}
		}

		// Corrupt one payload byte in each part in turn: every part's
		// own checksum must reject it.
		for _, p := range rec.parts() {
			if p.Length == 0 {
				continue
			}
			corrupt := append([]byte(nil), bundle...)
			corrupt[p.Offset+recordHeaderSize] ^= 0x01
			if _, err := recordPayload(corrupt, rec); err == nil {
				t.Fatalf("corruption in part at offset %d not detected", p.Offset)
			}
		}
	})
}
