package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
