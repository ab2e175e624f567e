package service

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"repro"
)

// TestServiceTopKTargetedMatchesDirect: the serving path's top-k and
// targeted queries return exactly what a direct repro.Mine with the same
// options returns, and the job view echoes the query parameters plus the
// effective threshold the heap ended at.
func TestServiceTopKTargetedMatchesDirect(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueDepth: 8}, 800)
	ds, _ := s.Registry().Get("t10")
	d, err := ds.Horizontal()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		req  Request
		opts repro.MineOptions
	}{
		{
			"topk",
			Request{Dataset: "t10", MineOptions: repro.MineOptions{Algorithm: repro.AlgoEclat, SupportPct: 1.0, TopK: 25}},
			repro.MineOptions{SupportPct: 1.0, TopK: 25},
		},
		{
			"contains",
			Request{Dataset: "t10", MineOptions: repro.MineOptions{Algorithm: repro.AlgoEclat, SupportPct: 1.0, MustContain: []int{3}}},
			repro.MineOptions{SupportPct: 1.0, MustContain: []int{3}},
		},
		{
			"both",
			Request{Dataset: "t10", MineOptions: repro.MineOptions{Algorithm: repro.AlgoEclat, SupportPct: 1.0, TopK: 5, MustContain: []int{3}}},
			repro.MineOptions{SupportPct: 1.0, TopK: 5, MustContain: []int{3}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j, err := s.Submit(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			v, err := s.Wait(context.Background(), j.ID)
			if err != nil {
				t.Fatal(err)
			}
			if v.Status != StatusDone {
				t.Fatalf("status = %v (%s)", v.Status, v.Error)
			}
			if v.TopK != tc.req.TopK {
				t.Fatalf("view TopK = %d, want %d", v.TopK, tc.req.TopK)
			}
			if len(v.MustContain) != len(tc.req.MustContain) {
				t.Fatalf("view MustContain = %v, want %v", v.MustContain, tc.req.MustContain)
			}
			if v.EffectiveMinSup <= 0 {
				t.Fatalf("view EffectiveMinSup = %d, want > 0", v.EffectiveMinSup)
			}
			got, err := s.Result(j.ID)
			if err != nil {
				t.Fatal(err)
			}
			want, info, err := repro.Mine(context.Background(), d, tc.opts)
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
				t.Fatal("service result differs from direct repro.Mine with same query options")
			}
			if v.EffectiveMinSup != info.EffectiveMinSup {
				t.Fatalf("view EffectiveMinSup = %d, direct run reported %d", v.EffectiveMinSup, info.EffectiveMinSup)
			}
		})
	}
}

// TestServiceTopKTargetedCacheIdentity: the query options are part of
// the cache identity — distinct TopK values get distinct entries, while
// MustContain lists that canonicalize identically (permuted, duplicated)
// share one.
func TestServiceTopKTargetedCacheIdentity(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 8}, 400)
	run := func(req Request) *Job {
		t.Helper()
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := s.Wait(context.Background(), j.ID); err != nil || v.Status != StatusDone {
			t.Fatalf("%+v: %v %v", req, v.Status, err)
		}
		return j
	}

	base := Request{Dataset: "t10", MineOptions: repro.MineOptions{Algorithm: repro.AlgoEclat, SupportPct: 2.0}}
	run(base)
	topk := base
	topk.TopK = 10
	j2 := run(topk)
	if j2.Snapshot().Cached {
		t.Fatal("TopK=10 shared a cache entry with the full mine")
	}
	otherK := base
	otherK.TopK = 11
	if j3 := run(otherK); j3.Snapshot().Cached {
		t.Fatal("TopK=11 shared a cache entry with TopK=10")
	}

	must := base
	must.MustContain = []int{7, 3, 3}
	j4 := run(must)
	if j4.Snapshot().Cached {
		t.Fatal("first MustContain query should miss the cache")
	}
	permuted := base
	permuted.MustContain = []int{3, 7}
	j5, err := s.Submit(permuted)
	if err != nil {
		t.Fatal(err)
	}
	if v := j5.Snapshot(); v.Status != StatusDone || !v.Cached {
		t.Fatalf("permuted+deduped MustContain missed the cache: %+v", v)
	}
}

// TestServiceRejectsBadQueryOptions: submit-time validation rejects
// malformed or mis-routed top-k/targeted queries with the repro
// sentinels the HTTP layer maps to typed 400s.
func TestServiceRejectsBadQueryOptions(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 2}, 200)
	for _, tc := range []struct {
		name string
		req  Request
		want error
	}{
		{"negative topk", Request{Dataset: "t10", MineOptions: repro.MineOptions{SupportPct: 2.0, TopK: -1}}, repro.ErrInvalidTopK},
		{"negative topk no support", Request{Dataset: "t10", MineOptions: repro.MineOptions{TopK: -1}}, repro.ErrInvalidTopK},
		{"topk on maximal", Request{Dataset: "t10", MineOptions: repro.MineOptions{SupportPct: 2.0, Output: repro.OutputMaximal, TopK: 5}}, repro.ErrInvalidTopK},
		{"topk on apriori", Request{Dataset: "t10", MineOptions: repro.MineOptions{Algorithm: repro.AlgoApriori, SupportPct: 2.0, TopK: 5}}, repro.ErrInvalidTopK},
		{"topk on cluster", Request{Dataset: "t10", MineOptions: repro.MineOptions{SupportPct: 2.0, Hosts: 2, ProcsPerHost: 2, TopK: 5}}, repro.ErrInvalidTopK},
		{"negative item", Request{Dataset: "t10", MineOptions: repro.MineOptions{SupportPct: 2.0, MustContain: []int{2, -1}}}, repro.ErrInvalidMustContain},
		{"item 2^31", Request{Dataset: "t10", MineOptions: repro.MineOptions{SupportPct: 2.0, MustContain: []int{math.MaxInt32 + 1}}}, repro.ErrInvalidMustContain},
		{"item 2^32+1", Request{Dataset: "t10", MineOptions: repro.MineOptions{SupportPct: 2.0, MustContain: []int{1<<32 + 1}}}, repro.ErrInvalidMustContain},
		{"item 2^40", Request{Dataset: "t10", MineOptions: repro.MineOptions{SupportPct: 2.0, MustContain: []int{1 << 40}}}, repro.ErrInvalidMustContain},
		{"contains on closed", Request{Dataset: "t10", MineOptions: repro.MineOptions{SupportPct: 2.0, Output: repro.OutputClosed, MustContain: []int{2}}}, repro.ErrInvalidMustContain},
	} {
		_, err := s.Submit(tc.req)
		if err == nil {
			t.Fatalf("%s: submit succeeded, want error", tc.name)
		}
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		status, slug := errorCode(err)
		wantSlug := "invalid_topk"
		if errors.Is(err, repro.ErrInvalidMustContain) {
			wantSlug = "invalid_must_contain"
		}
		if status != 400 || slug != wantSlug {
			t.Fatalf("%s: errorCode = (%d, %q), want (400, %q)", tc.name, status, slug, wantSlug)
		}
	}
}
