// Package eclat is the seeded-violation copy of the work-stealing
// engine: the wsDeque / runParallel / supportHeap / arena shapes the
// local package has run, each with one of the concurrency bugs the
// v2 analyzers exist to catch.
package eclat

import (
	"context"
	"sync"
	"sync/atomic"
)

type classTask struct {
	ci     int
	weight int64
}

// wsDeque mirrors the deque internal/eclat/local.go once ran.
type wsDeque struct {
	mu     sync.Mutex
	tasks  []classTask
	weight int64
}

func (q *wsDeque) popFront() (classTask, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.tasks) == 0 {
		return classTask{}, false
	}
	t := q.tasks[0]
	q.tasks = q.tasks[1:]
	q.weight -= t.weight
	return t, true
}

// stealInto seeds lockorder: the production index comparison that fixes
// the acquisition order is gone, so two symmetric thieves deadlock.
func (q *wsDeque) stealInto(dst *wsDeque) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	dst.mu.Lock()
	defer dst.mu.Unlock()

	n := (len(q.tasks) + 1) / 2
	if n == 0 {
		return 0
	}
	cut := len(q.tasks) - n
	dst.tasks = append(dst.tasks, q.tasks[cut:]...)
	q.tasks = q.tasks[:cut]
	return n
}

// runParallel seeds goroutinejoin (the WaitGroup join was dropped, so
// the workers outlive the return) and atomiconly (the steal counter is
// read plainly while those workers may still be adding to it).
func runParallel(ctx context.Context, deques []*wsDeque) int64 {
	var steals int64
	for w := range deques {
		go func(self int) {
			for ctx.Err() == nil {
				if _, ok := deques[self].popFront(); ok {
					continue
				}
				victim := (self + 1) % len(deques)
				if n := deques[victim].stealInto(deques[self]); n > 0 {
					atomic.AddInt64(&steals, 1)
					continue
				}
				return
			}
		}(w)
	}
	return steals
}
