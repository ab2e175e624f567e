package eclat

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/db"
	"repro/internal/itemset"
	"repro/internal/testutil"
	"repro/internal/tidlist"
)

// cliqueDB plants each clique, in item order, in tx transactions of its
// own. A clique of m items forms the classes of its first m-2 items,
// with m-1 down to 2 members, and every one of them emits at minsup tx,
// since the clique's whole lattice is frequent.
func cliqueDB(tx int, cliques ...[]itemset.Item) *db.Database {
	items := 0
	for _, c := range cliques {
		items = max(items, int(c[len(c)-1])+1)
	}
	b := db.NewBuilder(items, tx*len(cliques))
	tid := 0
	for _, c := range cliques {
		for range tx {
			b.Append(itemset.TID(tid), c)
			tid++
		}
	}
	return b.Database()
}

// queueRun builds in's vertical and runs the engine's driver over it at
// workers, stopping short of the final reduction, so rs.runs and every
// worker's emission buffer still hold what the driver recorded. Each
// record starts as a sentinel the driver must overwrite.
func queueRun(t *testing.T, in VerticalInput, minsup, workers int) (*vertical, *runScratch) {
	t.Helper()
	ctx := context.Background()
	opts := Options{Workers: workers}
	rs := new(runScratch)
	var st Stats
	v := rs.buildVerticalFromSets(ctx, in, minsup, &st, opts)
	rs.runs = make([]classRun, len(v.classes))
	for ci := range rs.runs {
		rs.runs[ci] = classRun{item: -1, w: -1}
	}
	if err := newEngine(v, minsup, opts).run(ctx, &st, rs); err != nil {
		t.Fatal(err)
	}
	return v, rs
}

// prefixes returns each class's prefix item, in class index order.
func prefixes(v *vertical) []itemset.Item {
	out := make([]itemset.Item, len(v.classes))
	for ci := range v.classes {
		out[ci] = v.classes[ci].Prefix[0]
	}
	return out
}

// checkInOrder fails t unless one worker ran the classes in queue order:
// it appends class after class, so each run, non-empty on cliqueDB's
// data, starts where the one queued before it ended.
func checkInOrder(t *testing.T, rs *runScratch) {
	t.Helper()
	end := 0
	for ci, r := range rs.runs {
		if r.lo != end || r.hi <= r.lo {
			t.Fatalf("class %d (prefix %d) ran at [%d,%d), want a run from %d", ci, r.item, r.lo, r.hi, end)
		}
		end = r.hi
	}
}

// checkRunsOnce fails t unless every class's run was recorded, for that
// class, and the runs of each worker tile its emission buffer: no class
// went unrecorded, and none was mined twice, which would leave emissions
// that no record covers.
func checkRunsOnce(t *testing.T, v *vertical, rs *runScratch, workers int) {
	t.Helper()
	perWorker := make([][]classRun, workers)
	for ci, r := range rs.runs {
		if r.item != v.classes[ci].Prefix[0] || r.w < 0 || int(r.w) >= workers {
			t.Fatalf("workers=%d: class %d (prefix %d) recorded as %+v", workers, ci, v.classes[ci].Prefix[0], r)
		}
		perWorker[r.w] = append(perWorker[r.w], r)
	}
	for w, runs := range perWorker {
		slices.SortFunc(runs, func(a, b classRun) int { return a.lo - b.lo })
		end := 0
		for _, r := range runs {
			if r.lo != end {
				t.Fatalf("workers=%d: worker %d's run %+v starts at %d, want %d", workers, w, r, r.lo, end)
			}
			end = r.hi
		}
		if n := len(rs.workers[w].out); end != n {
			t.Fatalf("workers=%d: worker %d's runs cover %d of its %d emissions", workers, w, end, n)
		}
	}
}

// TestClassQueueOrder pins the shared queue's order and its exactly-once
// hand-out. At one worker, unbudgeted classes run heaviest-first by
// their C(s,2) weight, ties in class (prefix) order, and budgeted ones
// in the bundle-locality order, not the weight order. At 2–8 workers
// each class is acquired once and its run recorded once.
func TestClassQueueOrder(t *testing.T) {
	// Classes and weights: 0:3 1:1 (clique a), 4:6 5:3 6:1 (b), 9:3 10:1 (c).
	d := cliqueDB(3, []itemset.Item{0, 1, 2, 3}, []itemset.Item{4, 5, 6, 7, 8}, []itemset.Item{9, 10, 11, 12})
	in := VerticalInput{NumTransactions: d.Len(), Items: verticalSets(d, tidlist.ReprSparse)}
	const minsup = 3

	v, rs := queueRun(t, in, minsup, 1)
	if got, want := prefixes(v), []itemset.Item{4, 0, 5, 9, 1, 6, 10}; !slices.Equal(got, want) {
		t.Fatalf("unbudgeted queue %v, want heaviest first %v", got, want)
	}
	checkInOrder(t, rs)
	checkRunsOnce(t, v, rs, 1)

	// Clique c's items start in segment 0, a's in 1, b's in 2.
	segs := map[int]int{}
	for it := range 13 {
		switch {
		case it >= 9:
			segs[it] = 0
		case it < 4:
			segs[it] = 1
		default:
			segs[it] = 2
		}
	}
	res := &fakeResidency{segs: segs}
	budgeted := in
	budgeted.Residency = res
	v, rs = queueRun(t, budgeted, minsup, 1)
	order := make([]itemset.Item, len(res.acquired))
	for i, ci := range res.acquired {
		if p := v.classes[ci].Prefix[0]; itemset.Item(res.planned[ci][0]) != p {
			t.Fatalf("acquired class %d, prefix %d, under the plan of prefix %d", ci, p, res.planned[ci][0])
		}
		order[i] = v.classes[ci].Prefix[0]
	}
	if want := []itemset.Item{9, 10, 0, 1, 4, 5, 6}; !slices.Equal(order, want) {
		t.Fatalf("budgeted classes acquired in prefix order %v, want locality order %v", order, want)
	}
	if !slices.Equal(res.released, res.acquired) {
		t.Fatalf("released %v, want each class after its acquire %v", res.released, res.acquired)
	}
	checkInOrder(t, rs)
	checkRunsOnce(t, v, rs, 1)

	// Exactly once, on data with enough classes for the workers to race
	// for the cursor.
	rd := testutil.RandomDB(rand.New(rand.NewSource(7)), 400, 40, 8)
	rin := VerticalInput{NumTransactions: rd.Len(), Items: verticalSets(rd, tidlist.ReprSparse)}
	for workers := 2; workers <= 8; workers++ {
		v, rs := queueRun(t, rin, 3, workers)
		checkRunsOnce(t, v, rs, workers)

		res := &fakeResidency{segs: map[int]int{}}
		for it := range rd.NumItems {
			res.segs[it] = it % 7
		}
		budgeted := rin
		budgeted.Residency = res
		v, rs = queueRun(t, budgeted, 3, workers)
		checkRunsOnce(t, v, rs, workers)
		acquired := make([]int, len(v.classes))
		for _, ci := range res.acquired {
			acquired[ci]++
		}
		released := make([]int, len(v.classes))
		for _, ci := range res.released {
			released[ci]++
		}
		for ci := range v.classes {
			if acquired[ci] != 1 || released[ci] != 1 {
				t.Fatalf("workers=%d: class %d acquired %d and released %d times, want once each", workers, ci, acquired[ci], released[ci])
			}
		}
	}
}
