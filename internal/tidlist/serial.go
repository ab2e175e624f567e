package tidlist

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"repro/internal/itemset"
)

// Stable on-disk serialization of sparse tid-lists, plus zero-copy
// decoding for memory-mapped storage (internal/store). The format is
// little-endian and versioned by the store's bundle header; it is the
// "stable serialization" contract the persistent vertical dataset store
// pins with round-trip fuzzing.
//
// Sparse payload:  4 bytes per member — the TIDs as uint32, increasing.
//
// On little-endian hosts the decoder returns a List that aliases a
// 4-byte-aligned input buffer directly — the mmap fast path. The view
// follows the package's immutability contract: like every Set handed to
// the kernels as an operand it is never written through, and it must
// never be passed in scratch position (kernels write scratch storage; a
// mapped view is read-only memory).

// nativeLittleEndian reports whether the host stores integers
// little-endian, the precondition for aliasing file bytes as []TID
// without a byte-order pass.
var nativeLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// AppendListBytes appends the stable sparse encoding of l to dst.
func AppendListBytes(dst []byte, l List) []byte {
	for _, t := range l {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(t))
	}
	return dst
}

// ListFromBytes decodes a sparse payload. On a little-endian host with a
// 4-byte-aligned buffer the returned List aliases b without copying;
// otherwise it is an independent copy. The aliasing view is immutable by
// contract (see the package comment above).
func ListFromBytes(b []byte) (List, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("tidlist: sparse payload length %d is not a multiple of 4", len(b))
	}
	n := len(b) / 4
	if n == 0 {
		return nil, nil
	}
	if nativeLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*itemset.TID)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make(List, n)
	for i := range out {
		out[i] = itemset.TID(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}
