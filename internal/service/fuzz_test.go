package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
)

// errorSlugs is every code errorCode can return.
var errorSlugs = map[string]bool{
	"queue_full": true, "shutting_down": true, "unknown_dataset": true, "dataset_busy": true,
	"dataset_exists": true, "unknown_job": true, "invalid_support": true, "unknown_algorithm": true,
	"invalid_parallelism": true, "invalid_representation": true, "invalid_topk": true,
	"invalid_must_contain": true, "invalid_memory_budget": true, "cluster_too_large": true,
	"canceled": true, "unknown_field": true, "body_too_large": true, "gen_too_large": true,
	"path_datasets_disabled": true, "path_outside_root": true, "bad_request": true,
}

// FuzzJobRequest posts arbitrary bodies to POST /v1/jobs, each against a
// fresh service holding one tiny dataset. A body is refused with a
// structured error or admitted, and every admitted job finishes done:
// the submit-time check is the one MineFrom runs, so the daemon never
// admits a job it later refuses.
func FuzzJobRequest(f *testing.F) {
	d, err := repro.Generate(repro.GeneratorConfig{NumTransactions: 40, AvgTxLen: 4, AvgPatternLen: 2,
		NumPatterns: 10, NumItems: 20, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	for _, algo := range []string{"eclat", "apriori", "countdist", "datadist", "canddist", "hybrid", "partition", "sampling", "dhp"} {
		for _, variant := range []string{"all", "maximal", "closed"} {
			for _, repr := range []string{"auto", "sparse", "bitset", "roaring"} {
				f.Add(fmt.Sprintf(`{"dataset":"tiny","algorithm":%q,"variant":%q,"representation":%q,"supportPct":10}`, algo, variant, repr))
			}
		}
	}
	for _, body := range []string{
		`{"dataset":"tiny","supportCount":3,"topK":5,"mustContain":[1,2]}`,
		`{"dataset":"tiny","supportCount":3,"mustContain":[1099511627776]}`,
		`{"dataset":"tiny","algorithm":"countdist","hosts":2,"procs":2,"supportCount":4}`,
		`{"dataset":"tiny","supportPct":5,"parallelism":2,"memoryBudget":1024}`,
		`{"dataset":"tiny","topK":3}`,
	} {
		f.Add(body)
	}
	for _, tc := range strictBodyCases {
		f.Add(tc.body)
	}

	f.Fuzz(func(t *testing.T, body string) {
		s, err := New(Config{Workers: 1, QueueDepth: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown(context.Background())
		if _, err := s.Registry().Add("tiny", "generated", d); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		NewHandler(s).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
			var e apiError
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !errorSlugs[e.Error.Code] {
				t.Fatalf("%d with error body %q (%v)", rec.Code, rec.Body.String(), err)
			}
			return
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		var v View
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if v, err = s.Wait(ctx, v.ID); err != nil || v.Status != StatusDone {
			t.Fatalf("admitted job ended %s (%v): %s", v.Status, err, v.Error)
		}
	})
}
