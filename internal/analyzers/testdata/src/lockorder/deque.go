package eclat

import "sync"

type classTask struct {
	ci     int
	weight int64
}

// wsDeque mirrors the work-stealing deque the local engine once ran.
type wsDeque struct {
	mu     sync.Mutex
	tasks  []classTask
	weight int64
}

// popFront is the canonical single-lock shape: clean.
func (q *wsDeque) popFront() (classTask, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.tasks) == 0 {
		return classTask{}, false
	}
	t := q.tasks[0]
	q.tasks = q.tasks[1:]
	return t, true
}

// stealInto mirrors that deque's transfer: the index comparison
// establishes the acquisition order before both locks are taken. Clean.
func (q *wsDeque) stealInto(dst *wsDeque, qi, dsti int) int {
	first, second := q, dst
	if dsti < qi {
		first, second = dst, q
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	second.mu.Lock()
	defer second.mu.Unlock()

	n := (len(q.tasks) + 1) / 2
	dst.tasks = append(dst.tasks, q.tasks[len(q.tasks)-n:]...)
	q.tasks = q.tasks[:len(q.tasks)-n]
	return n
}

// stealIntoUnordered is the seeded violation: the same transfer as
// stealInto with the ordering comparison removed — two symmetric
// thieves deadlock.
func (q *wsDeque) stealIntoUnordered(dst *wsDeque) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	dst.mu.Lock() // want `dst\.mu\.Lock\(\) while q\.mu is held: same-typed mutexes must be acquired in index order`
	defer dst.mu.Unlock()

	n := (len(q.tasks) + 1) / 2
	dst.tasks = append(dst.tasks, q.tasks[len(q.tasks)-n:]...)
	q.tasks = q.tasks[:len(q.tasks)-n]
	return n
}

// deferredRelock: the deferred Unlock only runs at exit, so the second
// Lock still deadlocks.
func (q *wsDeque) deferredRelock() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.mu.Lock() // want `second q\.mu\.Lock\(\) reachable while the first is still held`
	defer q.mu.Unlock()
}

// lockInLoop: the back edge reaches the Lock again with no Unlock on
// the path.
func (q *wsDeque) lockInLoop(n int) {
	for i := 0; i < n; i++ {
		q.mu.Lock() // want `q\.mu\.Lock\(\) is reachable again before q\.mu\.Unlock\(\): possible self-deadlock`
		q.weight++
	}
}

// relockAfterUnlock: a plain Unlock between the two Locks breaks every
// path. Clean.
func (q *wsDeque) relockAfterUnlock() {
	q.mu.Lock()
	q.weight = 0
	q.mu.Unlock()
	q.mu.Lock()
	defer q.mu.Unlock()
}

// suppressed: the unordered pair is acknowledged with a reason.
func (q *wsDeque) stealIntoSuppressed(dst *wsDeque) {
	q.mu.Lock()
	defer q.mu.Unlock()
	//reprolint:ignore lockorder fixture exercises suppression of the ordering rule
	dst.mu.Lock()
	defer dst.mu.Unlock()
}
