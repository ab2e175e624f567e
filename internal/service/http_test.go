package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/store"
)

// TestStrictRequestBodies pins the POST edge: a misspelt field is a 400
// unknown_field and a body over 1 MiB is a 413 body_too_large, on both
// endpoints, and neither admits a job or registers a dataset. The known
// fields still decode case-insensitively, as encoding/json matches them.
func TestStrictRequestBodies(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4}, 500)
	h := NewHandler(s)
	post := func(path, body string) (int, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		var e apiError
		if rec.Code >= 400 {
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("POST %s: error payload not JSON: %v", path, err)
			}
		}
		return rec.Code, e.Error.Code
	}
	huge := `{"name":"big","path":"` + strings.Repeat("x", maxBodyBytes) + `"}`

	for _, tc := range []struct {
		path, body string
		status     int
		code       string
	}{
		{"/v1/jobs", `{"dataset":"t10","supportPct":2,"memory_budget":1000}`, http.StatusBadRequest, "unknown_field"},
		{"/v1/jobs", `{"dataset":"t10","support":2}`, http.StatusBadRequest, "unknown_field"},
		{"/v1/jobs", `{"dataset":"t10","supportPct":2,"mustContain":[` + strings.Repeat("1,", maxBodyBytes/2) + `1]}`,
			http.StatusRequestEntityTooLarge, "body_too_large"},
		{"/v1/datasets", `{"name":"extra","gen":100,"generate":true}`, http.StatusBadRequest, "unknown_field"},
		{"/v1/datasets", huge, http.StatusRequestEntityTooLarge, "body_too_large"},
		{"/v1/jobs", `{"dataset":"t10",`, http.StatusBadRequest, "bad_request"},
	} {
		status, code := post(tc.path, tc.body)
		if status != tc.status || code != tc.code {
			t.Errorf("POST %s %.60q: %d %q, want %d %q", tc.path, tc.body, status, code, tc.status, tc.code)
		}
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected bodies admitted %d jobs", len(jobs))
	}
	if ds := s.Datasets(); len(ds) != 1 {
		t.Fatalf("rejected bodies left %d datasets registered, want only t10", len(ds))
	}

	if status, code := post("/v1/jobs", `{"dataset":"t10","supportPct":2,"memorybudget":1000}`); status != http.StatusAccepted {
		t.Fatalf("known field in another case: %d %q, want 202", status, code)
	}
	if status, code := post("/v1/datasets", `{"name":"small","gen":100}`); status != http.StatusCreated {
		t.Fatalf("valid dataset body: %d %q, want 201", status, code)
	}
}

// TestGenCap pins POST /v1/datasets's gen cap: a gen over the paper's
// largest database is a 400 gen_too_large before anything is generated,
// registered or written to the store, and the cap itself admits
// T10.I6.D6400K and refuses one transaction more.
func TestGenCap(t *testing.T) {
	st, err := store.Open(t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s, err := New(Config{Workers: 1, QueueDepth: 4, Store: st, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	h := NewHandler(s)

	for _, gen := range []int{maxGenTransactions + 1, 2_000_000_000} {
		rec := httptest.NewRecorder()
		body := fmt.Sprintf(`{"name":"x","gen":%d}`, gen)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets", strings.NewReader(body)))
		var e apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("gen %d: error payload not JSON: %v", gen, err)
		}
		if rec.Code != http.StatusBadRequest || e.Error.Code != "gen_too_large" {
			t.Fatalf("gen %d: %d %q, want 400 gen_too_large", gen, rec.Code, e.Error.Code)
		}
	}
	if ds := s.Datasets(); len(ds) != 0 {
		t.Fatalf("refused gens registered %d datasets", len(ds))
	}
	if names := st.Names(); len(names) != 0 {
		t.Fatalf("refused gens wrote %v to the store", names)
	}

	if err := checkGen(maxGenTransactions); err != nil {
		t.Fatalf("checkGen(%d) = %v, want nil", maxGenTransactions, err)
	}
	if err := checkGen(maxGenTransactions + 1); !errors.Is(err, ErrGenTooLarge) {
		t.Fatalf("checkGen(%d) = %v, want ErrGenTooLarge", maxGenTransactions+1, err)
	}
	if maxGenTransactions != 6_400_000 {
		t.Fatalf("maxGenTransactions = %d, want T10.I6.D6400K's 6,400,000", maxGenTransactions)
	}
}
