package service

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro"
	"repro/internal/itemset"
	"repro/internal/obsv"
)

// The L2 memo's counters, read back by name; the registry returns the
// counters internal/eclat registered.
var (
	memoHits   = obsv.Default.Counter("eclat_l2_memo_hits_total", "")
	memoMisses = obsv.Default.Counter("eclat_l2_memo_misses_total", "")
)

// memoCounts reads the memo counters (hits, misses).
func memoCounts() (int64, int64) { return memoHits.Value(), memoMisses.Value() }

// uncachedConfig keeps every job a cache miss (no body fits one byte),
// so repeated requests reach the engine and the memo.
func uncachedConfig(workers int) Config {
	return Config{Workers: workers, QueueDepth: 64, CacheBytes: 1}
}

// freshBody mines req on ds's vertical sets through repro.VerticalSource,
// a source with no memo, and returns the bytes mineBytes returns for a
// served job.
func freshBody(t testing.TB, ds *Dataset, req Request) []byte {
	t.Helper()
	sets, _ := ds.VerticalSets(req.Representation)
	res, _, err := repro.MineFrom(context.Background(), repro.VerticalSource(ds.NumTransactions(), sets), repro.MineOptions{
		Output:         variantOutputs[req.Variant],
		SupportCount:   req.SupportCount,
		Representation: req.Representation,
		TopK:           req.TopK,
		MustContain:    req.MustContain,
		MemoryBudget:   req.MemoryBudget,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := repro.WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// memoRequests cycles a support sequence through every variant the
// service mines vertically — all, maximal, closed, top-k, a targeted
// query and a quarter-size memory budget — and, independently, every
// representation.
func memoRequests(ds *Dataset, supports []int) []Request {
	top := ds.TopItems(3)
	kinds := []Request{
		{},
		{Variant: VariantMaximal},
		{Variant: VariantClosed},
		{TopK: 40},
		{MustContain: []int{int(top[0].Item)}},
		{MemoryBudget: ds.BytesMapped() / 4},
	}
	reprs := []repro.Representation{repro.ReprAuto, repro.ReprSparse, repro.ReprBitset, repro.ReprRoaring}
	reqs := make([]Request, len(supports))
	for i, sup := range supports {
		req := kinds[i%len(kinds)]
		req.Dataset = ds.Name
		req.SupportCount = sup
		req.Representation = reprs[i%len(reprs)]
		reqs[i] = req
	}
	return reqs
}

// l2Size counts the pairs of ds's horizontal data with support at least
// minsup, by brute force over every transaction.
func l2Size(t testing.TB, ds *Dataset, minsup int) int {
	t.Helper()
	d, err := ds.Database()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[[2]itemset.Item]int{}
	for _, tx := range d.Transactions {
		for i, a := range tx.Items {
			for _, b := range tx.Items[i+1:] {
				counts[[2]itemset.Item{a, b}]++
			}
		}
	}
	n := 0
	for _, c := range counts {
		if c >= minsup {
			n++
		}
	}
	return n
}

// TestL2MemoMatchesFreshMine is the memo's byte-identity oracle: on one
// in-memory and one store-backed dataset, a fixed job sequence —
// supports descending, then ascending, then repeated, then below the
// floor again — across every variant and representation serves bodies
// byte-identical to a mine with no memo. A job misses exactly when its
// support is below every earlier one, and the floor follows.
func TestL2MemoMatchesFreshMine(t *testing.T) {
	supports := []int{24, 18, 14, 11, 12, 15, 20, 30, 11, 11, 11, 11, 9, 9, 10, 40, 9, 8}
	mem := newTestService(t, uncachedConfig(2), 1000)
	stored := newStoreService(t, t.TempDir(), uncachedConfig(2))
	if _, err := stored.RegisterDataset("t10", "generated", genDataset(t, 1000)); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Service{mem, stored} {
		ds, err := s.Dataset("t10")
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("stored=%v", ds.StoreBacked()), func(t *testing.T) {
			floor := 0
			var hits, misses int64
			for i, req := range memoRequests(ds, supports) {
				h0, m0 := memoCounts()
				got, _ := mineBytes(t, s, req)
				if want := freshBody(t, ds, req); !bytes.Equal(got, want) {
					t.Fatalf("job %d %+v: served body differs from a mine with no memo", i, req)
				}
				h1, m1 := memoCounts()
				miss := floor == 0 || req.SupportCount < floor
				if miss {
					floor = req.SupportCount
				}
				if wantH, wantM := b2i(!miss), b2i(miss); h1-h0 != wantH || m1-m0 != wantM {
					t.Fatalf("job %d at %d (floor %d): hits +%d misses +%d, want +%d +%d", i, req.SupportCount, floor, h1-h0, m1-m0, wantH, wantM)
				}
				hits, misses = hits+h1-h0, misses+m1-m0
				if f, _ := ds.PairMemo().Floor(); f != floor {
					t.Fatalf("job %d: memo floor %d, want %d", i, f, floor)
				}
			}
			if hits == 0 || misses == 0 {
				t.Fatalf("sequence took %d hits and %d misses, want both", hits, misses)
			}
			if _, pairs := ds.PairMemo().Floor(); pairs != l2Size(t, ds, floor) {
				t.Fatalf("memo holds %d pairs, want |L2(%d)| = %d", pairs, floor, l2Size(t, ds, floor))
			}
		})
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestL2MemoConcurrentJobs runs 8 clients × 50 jobs at random supports
// and representations on one dataset, four jobs mining at a time, so
// hits filter the memo while misses count and replace it. Every body
// must be byte-identical to a mine with no memo (run under -race in CI).
func TestL2MemoConcurrentJobs(t *testing.T) {
	s := newTestService(t, uncachedConfig(4), 600)
	ds, err := s.Dataset("t10")
	if err != nil {
		t.Fatal(err)
	}
	reprs := []repro.Representation{repro.ReprAuto, repro.ReprSparse, repro.ReprBitset, repro.ReprRoaring}
	const lo, hi = 6, 20
	want := map[[2]int][]byte{}
	for sup := lo; sup <= hi; sup++ {
		for r, repr := range reprs {
			want[[2]int{sup, r}] = freshBody(t, ds, Request{Dataset: "t10", SupportCount: sup, Representation: repr})
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				sup, r := lo+rng.Intn(hi-lo+1), rng.Intn(len(reprs))
				req := Request{Dataset: "t10", SupportCount: sup, Representation: reprs[r]}
				j, err := s.Submit(req)
				if err != nil {
					errs <- err
					return
				}
				if v, err := s.Wait(context.Background(), j.ID); err != nil || v.Status != StatusDone {
					errs <- fmt.Errorf("%+v: %s %v", req, v.Status, err)
					return
				}
				body, err := s.ResultBody(j.ID)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(body.Data, want[[2]int{sup, r}]) {
					errs <- fmt.Errorf("%+v: served body differs from a mine with no memo", req)
					return
				}
			}
		}(int64(c))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestL2MemoBounded pins the memo's size: after 1,000 jobs at or above
// its floor it still holds exactly L2 at the floor, and removing the
// dataset drops it, so the first job on a dataset re-registered under
// the same name misses.
func TestL2MemoBounded(t *testing.T) {
	s := newTestService(t, uncachedConfig(1), 400)
	ds, err := s.Dataset("t10")
	if err != nil {
		t.Fatal(err)
	}
	const floor = 5
	want := l2Size(t, ds, floor)
	if want == 0 {
		t.Fatalf("L2 at %d is empty; the bound would be vacuous", floor)
	}
	h0, m0 := memoCounts()
	mineBytes(t, s, Request{Dataset: "t10", SupportCount: floor})
	for i := 0; i < 1000; i++ {
		mineBytes(t, s, Request{Dataset: "t10", SupportCount: floor + i%16})
	}
	if h, m := memoCounts(); h-h0 != 1000 || m-m0 != 1 {
		t.Fatalf("hits +%d misses +%d, want +1000 +1", h-h0, m-m0)
	}
	if f, pairs := ds.PairMemo().Floor(); f != floor || pairs != want {
		t.Fatalf("memo at floor %d holds %d pairs, want floor %d and |L2| = %d", f, pairs, floor, want)
	}

	d, err := ds.Database()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveDataset("t10"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterDataset("t10", "generated", d); err != nil {
		t.Fatal(err)
	}
	_, m1 := memoCounts()
	mineBytes(t, s, Request{Dataset: "t10", SupportCount: floor + 3})
	if _, m2 := memoCounts(); m2-m1 != 1 {
		t.Fatalf("first job after re-registration: misses +%d, want +1", m2-m1)
	}
}

// TestL2MemoServeColdReplay replays one serve_cold dataset's job
// pattern on a store-backed dataset of the same shape: a pre-warm at
// support 280 (one job per representation and a maximal one), then 120
// jobs at supports 80–140 in shuffled order over the workload's
// variants. A job misses only when its support is below every earlier
// one.
func TestL2MemoServeColdReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("mines a 10,000-transaction dataset 125 times")
	}
	s := newStoreService(t, t.TempDir(), uncachedConfig(1))
	if _, err := s.RegisterDataset("cold", "generated", genDataset(t, 10000)); err != nil {
		t.Fatal(err)
	}
	ds, err := s.Dataset("cold")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Request
	for _, repr := range []repro.Representation{repro.ReprAuto, repro.ReprSparse, repro.ReprBitset, repro.ReprRoaring} {
		jobs = append(jobs, Request{Dataset: "cold", SupportCount: 280, Representation: repr})
	}
	jobs = append(jobs, Request{Dataset: "cold", SupportCount: 280, Variant: VariantMaximal})
	var supports []int
	for len(supports) < 120 {
		supports = append(supports, 80+len(supports)%61)
	}
	rand.New(rand.NewSource(18)).Shuffle(len(supports), func(i, j int) { supports[i], supports[j] = supports[j], supports[i] })
	jobs = append(jobs, memoRequests(ds, supports)...)

	lowest, misses := 0, 0
	for i, req := range jobs {
		_, m0 := memoCounts()
		mineBytes(t, s, req)
		_, m1 := memoCounts()
		wantMiss := i == 0 || req.SupportCount < lowest
		if got := m1 - m0; got != b2i(wantMiss) {
			t.Fatalf("job %d at %d (lowest earlier %d): misses +%d, want +%d", i, req.SupportCount, lowest, got, b2i(wantMiss))
		}
		if wantMiss {
			lowest = req.SupportCount
			misses++
		}
	}
	t.Logf("%d jobs, %d misses", len(jobs), misses)
}
