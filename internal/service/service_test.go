package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"repro"
	"repro/internal/db"
	"repro/internal/itemset"
	"repro/internal/mining"
)

func genDataset(t testing.TB, tx int) *db.Database {
	t.Helper()
	d, err := repro.Generate(repro.StandardConfig(tx))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newTestService(t testing.TB, cfg Config, tx int) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	if _, err := s.Registry().Add("t10", "generated", genDataset(t, tx)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestServiceMineMatchesDirectCall(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueDepth: 8}, 1000)
	req := Request{Dataset: "t10", MineOptions: repro.MineOptions{Algorithm: repro.AlgoEclat, SupportPct: 1.0}}
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Wait(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusDone || v.Cached {
		t.Fatalf("first run: %+v, want uncached done", v)
	}

	got, err := s.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := s.Registry().Get("t10")
	dsDB, err := ds.Horizontal()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := repro.Mine(context.Background(), dsDB, repro.MineOptions{SupportPct: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	var gotBuf, wantBuf bytes.Buffer
	if err := repro.WriteResult(&gotBuf, got); err != nil {
		t.Fatal(err)
	}
	if err := repro.WriteResult(&wantBuf, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
		t.Fatal("service result differs from direct repro.Mine result")
	}
}

// TestServedBodyMatchesFreshMine pins the encoded-result contract: the
// body GET /v1/jobs/{id}/result serves — first run and cache hit alike —
// is byte-equal to mining.Write of a fresh mine, X-Itemsets carries its
// itemset count, and the cache is charged exactly the body lengths it
// holds.
func TestServedBodyMatchesFreshMine(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 8}, 500)
	h := NewHandler(s)
	ds, _ := s.Registry().Get("t10")
	d, err := ds.Horizontal()
	if err != nil {
		t.Fatal(err)
	}
	var cached int64
	for _, pct := range []float64{1.0, 2.0, 1.0} {
		j, err := s.Submit(Request{Dataset: "t10", MineOptions: repro.MineOptions{Algorithm: repro.AlgoEclat, SupportPct: pct}})
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.Wait(context.Background(), j.ID)
		if err != nil || v.Status != StatusDone {
			t.Fatalf("pct=%v: %v %v", pct, v.Status, err)
		}
		want, _, err := repro.Mine(context.Background(), d, repro.MineOptions{SupportPct: pct})
		if err != nil {
			t.Fatal(err)
		}
		var wantBuf bytes.Buffer
		if err := mining.Write(&wantBuf, want); err != nil {
			t.Fatal(err)
		}

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.ID+"/result", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("pct=%v: GET result = %d", pct, rec.Code)
		}
		if !bytes.Equal(rec.Body.Bytes(), wantBuf.Bytes()) {
			t.Fatalf("pct=%v (cached=%v): served body differs from mining.Write of a fresh mine", pct, v.Cached)
		}
		if got := rec.Header().Get("X-Itemsets"); got != strconv.Itoa(want.Len()) {
			t.Fatalf("pct=%v: X-Itemsets = %q, want %d", pct, got, want.Len())
		}
		if v.Itemsets != want.Len() {
			t.Fatalf("pct=%v: view itemsets = %d, want %d", pct, v.Itemsets, want.Len())
		}
		if !v.Cached {
			cached += int64(wantBuf.Len())
		}
		if got := s.Cache().Stats().SizeBytes; got != cached {
			t.Fatalf("pct=%v: cache holds %d bytes, want the %d body bytes cached so far", pct, got, cached)
		}
	}
}

func TestServiceSecondSubmissionHitsCache(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 8}, 500)
	req := Request{Dataset: "t10", MineOptions: repro.MineOptions{Algorithm: repro.AlgoEclat, SupportPct: 2.0}}

	j1, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), j1.ID); err != nil {
		t.Fatal(err)
	}

	j2, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	v2 := j2.Snapshot()
	if v2.Status != StatusDone || !v2.Cached {
		t.Fatalf("second submission: %+v, want cached done", v2)
	}
	if s.Cache().Stats().Hits != 1 {
		t.Fatalf("cache hits = %d, want 1", s.Cache().Stats().Hits)
	}

	// An equivalent request phrased as an absolute count shares the entry.
	ds, _ := s.Registry().Get("t10")
	minsup, err := repro.MineOptions{SupportPct: 2.0}.MinSupN(ds.Info().Transactions)
	if err != nil {
		t.Fatal(err)
	}
	abs := Request{Dataset: "t10", MineOptions: repro.MineOptions{Algorithm: repro.AlgoEclat, SupportCount: minsup}}
	j3, err := s.Submit(abs)
	if err != nil {
		t.Fatal(err)
	}
	if v3 := j3.Snapshot(); !v3.Cached {
		t.Fatalf("absolute-count request missed the cache: %+v", v3)
	}
}

func TestServiceVariantAndAlgorithmGetDistinctEntries(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueDepth: 8}, 300)
	for _, req := range []Request{
		{Dataset: "t10", MineOptions: repro.MineOptions{Algorithm: repro.AlgoEclat, SupportPct: 2.0}},
		{Dataset: "t10", MineOptions: repro.MineOptions{Algorithm: repro.AlgoApriori, SupportPct: 2.0}},
		{Dataset: "t10", MineOptions: repro.MineOptions{Algorithm: repro.AlgoEclat, Output: repro.OutputMaximal, SupportPct: 2.0}},
	} {
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := s.Wait(context.Background(), j.ID); err != nil || v.Status != StatusDone {
			t.Fatalf("%+v: %v %v", req, v.Status, err)
		}
		if v := j.Snapshot(); v.Cached {
			t.Fatalf("request %+v should not share a cache entry", req)
		}
	}
	if got := s.Cache().Len(); got != 3 {
		t.Fatalf("cache entries = %d, want 3", got)
	}
}

func TestServiceRejectsBadRequests(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 2}, 100)
	for _, req := range []Request{
		{Dataset: "nope"},
		{Dataset: "t10", MineOptions: repro.MineOptions{SupportPct: -1}},
		{Dataset: "t10", MineOptions: repro.MineOptions{SupportCount: -5}},
	} {
		if _, err := s.Submit(req); err == nil {
			t.Fatalf("submit %+v succeeded, want error", req)
		}
	}
}

func TestDatasetVerticalIsMemoizedAndCorrect(t *testing.T) {
	d := &db.Database{
		NumItems: 4,
		Transactions: []db.Transaction{
			{TID: 0, Items: itemset.Itemset{0, 1}},
			{TID: 1, Items: itemset.Itemset{1, 2}},
			{TID: 2, Items: itemset.Itemset{1}},
		},
	}
	r := NewRegistry()
	ds, err := r.Add("tiny", "test", d)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := ds.VerticalSets()
	if got := v1[1].Support(); got != 3 {
		t.Fatalf("item 1 support = %d, want 3", got)
	}
	if v1[3] != nil {
		t.Fatalf("absent item 3 = %v, want nil", v1[3])
	}
	v2, _ := ds.VerticalSets()
	if &v1[0] != &v2[0] {
		t.Fatal("VerticalSets recomputed instead of memoized")
	}
	top := ds.TopItems(2)
	if len(top) != 2 || top[0].Item != 1 || top[0].Support != 3 {
		t.Fatalf("TopItems = %+v", top)
	}
}

// BenchmarkServiceQueries is the serving-path baseline: one end-to-end
// query (submit → wait → result) on a small generated database, cached
// vs uncached, and uncached on a dataset no job has mined before.
// scripts/bench_service.go writes its rows to BENCH_service.json.
func BenchmarkServiceQueries(b *testing.B) {
	d, err := repro.Generate(repro.StandardConfig(2000))
	if err != nil {
		b.Fatal(err)
	}

	b.Run("uncached", func(b *testing.B) {
		// A one-entry-sized cache plus a rotating support threshold keeps
		// every query a miss, so each iteration pays for a mine. The
		// first query sets the dataset's L2 memo at the lowest support
		// of the rotation; every later one filters L2 from it.
		s, err := New(Config{Workers: 1, QueueDepth: 2, CacheBytes: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Shutdown(context.Background())
		if _, err := s.Registry().Add("t10", "generated", d); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j, err := s.Submit(Request{Dataset: "t10", MineOptions: repro.MineOptions{SupportCount: 20 + i%64}})
			if err != nil {
				b.Fatal(err)
			}
			if v, err := s.Wait(context.Background(), j.ID); err != nil || v.Status != StatusDone {
				b.Fatalf("%v %v", v.Status, err)
			}
			if _, err := s.Result(j.ID); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("uncached-cold", func(b *testing.B) {
		// Each query mines a dataset registered under a fresh name, whose
		// vertical sets are built with the timer stopped: every timed job
		// counts L2, as every uncached job did before the memo. The
		// garbage of that set-up is collected before the timer restarts,
		// so the timed job does not pay for it.
		s, err := New(Config{Workers: 1, QueueDepth: 2, CacheBytes: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Shutdown(context.Background())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			name := fmt.Sprintf("t10-%d", i)
			ds, err := s.Registry().Add(name, "generated", d)
			if err != nil {
				b.Fatal(err)
			}
			ds.VerticalSets()
			runtime.GC()
			b.StartTimer()
			j, err := s.Submit(Request{Dataset: name, MineOptions: repro.MineOptions{SupportCount: 20 + i%64}})
			if err != nil {
				b.Fatal(err)
			}
			if v, err := s.Wait(context.Background(), j.ID); err != nil || v.Status != StatusDone {
				b.Fatalf("%v %v", v.Status, err)
			}
			if _, err := s.Result(j.ID); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := s.RemoveDataset(name); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})

	b.Run("cached", func(b *testing.B) {
		s, err := New(Config{Workers: 1, QueueDepth: 2})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Shutdown(context.Background())
		if _, err := s.Registry().Add("t10", "generated", d); err != nil {
			b.Fatal(err)
		}
		warm, err := s.Submit(Request{Dataset: "t10", MineOptions: repro.MineOptions{SupportCount: 20}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Wait(context.Background(), warm.ID); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j, err := s.Submit(Request{Dataset: "t10", MineOptions: repro.MineOptions{SupportCount: 20}})
			if err != nil {
				b.Fatal(err)
			}
			if v := j.Snapshot(); v.Status != StatusDone || !v.Cached {
				b.Fatalf("expected cached hit, got %+v", v)
			}
			if _, err := s.Result(j.ID); err != nil {
				b.Fatal(err)
			}
		}
	})
}
