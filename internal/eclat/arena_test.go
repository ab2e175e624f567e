package eclat

import (
	"runtime"
	"testing"
)

// memberSink keeps the arena and its carve escaping in the size test.
var memberSink []member

// TestMemberStackFirstChunkSmall pins the member stack's geometric chunk
// growth, as tidlist's TestArenaFirstChunksSmall does for the tid-set
// stacks: a fresh arena that carves one 10-member level costs a few KiB,
// not a full-size member chunk.
func TestMemberStackFirstChunkSmall(t *testing.T) {
	var ms runtime.MemStats
	best := uint64(1 << 62)
	for try := 0; try < 5; try++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		a := new(arena)
		memberSink = a.nextMembers(10)
		runtime.ReadMemStats(&ms)
		best = min(best, ms.TotalAlloc-before)
	}
	if best >= 8<<10 {
		t.Fatalf("arena carving one 10-member level allocated %d bytes, want < 8 KiB", best)
	}
	if len(memberSink) != 0 || cap(memberSink) != 10 {
		t.Fatalf("carve has len %d cap %d, want 0 and 10", len(memberSink), cap(memberSink))
	}
}
