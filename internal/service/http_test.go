package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

// strictBodyCases are the malformed POST bodies TestStrictRequestBodies
// refuses (FuzzJobRequest seeds its corpus with them too).
var strictBodyCases = []struct {
	path, body string
	status     int
	code       string
}{
	{"/v1/jobs", `{"dataset":"t10","supportPct":2,"memory_budget":1000}`, http.StatusBadRequest, "unknown_field"},
	{"/v1/jobs", `{"dataset":"t10","support":2}`, http.StatusBadRequest, "unknown_field"},
	{"/v1/jobs", `{"dataset":"t10","supportPct":2,"mustContain":[` + strings.Repeat("1,", maxBodyBytes/2) + `1]}`,
		http.StatusRequestEntityTooLarge, "body_too_large"},
	{"/v1/datasets", `{"name":"extra","gen":100,"generate":true}`, http.StatusBadRequest, "unknown_field"},
	{"/v1/datasets", `{"name":"big","path":"` + strings.Repeat("x", maxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge, "body_too_large"},
	{"/v1/jobs", `{"dataset":"t10",`, http.StatusBadRequest, "bad_request"},
	{"/v1/jobs", `{"dataset":"t10","supportPct":5} {"dataset":"evil"}`, http.StatusBadRequest, "bad_request"},
	{"/v1/jobs", `{"dataset":"t10","supportPct":5}garbage`, http.StatusBadRequest, "bad_request"},
	{"/v1/jobs", `{"dataset":"t10","supportPct":5}}`, http.StatusBadRequest, "bad_request"},
	{"/v1/datasets", `{"name":"second","gen":100} {"name":"evil","gen":100}`, http.StatusBadRequest, "bad_request"},
	{"/v1/datasets", `{"name":"garbage","gen":100}garbage`, http.StatusBadRequest, "bad_request"},
}

// TestStrictRequestBodies pins the POST edge: a misspelt field is a 400
// unknown_field, a body over 1 MiB is a 413 body_too_large, and a second
// JSON value or trailing garbage after the body is a 400 bad_request, on
// both endpoints, and none admits a job or registers a dataset. The known
// fields still decode case-insensitively, as encoding/json matches them,
// and a trailing newline, as curl and json.Encoder send, is accepted.
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
	for _, tc := range strictBodyCases {
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
	if status, code := post("/v1/jobs", "{\"dataset\":\"t10\",\"supportPct\":3}\n"); status != http.StatusAccepted {
		t.Fatalf("job body with a trailing newline: %d %q, want 202", status, code)
	}
	if status, code := post("/v1/datasets", `{"name":"small","gen":100}`); status != http.StatusCreated {
		t.Fatalf("valid dataset body: %d %q, want 201", status, code)
	}
	if status, code := post("/v1/datasets", "{\"name\":\"newline\",\"gen\":100}\r\n"); status != http.StatusCreated {
		t.Fatalf("dataset body with a trailing newline: %d %q, want 201", status, code)
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
	s, err := New(Config{Workers: 1, QueueDepth: 4, Store: st})
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

// TestClusterTooLarge pins the simulated cluster's cap at the POST
// edge: a job asking for more than 64 processors, including factors
// whose product would overflow, is a 400 cluster_too_large at
// submission whatever the algorithm, and no job is admitted, so no
// processor is ever built.
func TestClusterTooLarge(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4}, 500)
	h := NewHandler(s)
	for _, body := range []string{
		`{"dataset":"t10","supportPct":2,"algorithm":"countdist","hosts":9,"procs":8}`,
		`{"dataset":"t10","supportPct":2,"algorithm":"countdist","hosts":65}`,
		`{"dataset":"t10","supportPct":2,"algorithm":"hybrid","procs":1000000}`,
		`{"dataset":"t10","supportPct":2,"hosts":9223372036854775807,"procs":9223372036854775807}`,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		var e apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: error payload not JSON: %v", body, err)
		}
		if rec.Code != http.StatusBadRequest || e.Error.Code != "cluster_too_large" {
			t.Fatalf("%s: %d %q, want 400 cluster_too_large", body, rec.Code, e.Error.Code)
		}
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("refused shapes admitted %d jobs", len(jobs))
	}
}

// TestPathDatasetsConfinedToDataRoot pins POST /v1/datasets's path
// confinement. Without a data root every path is a 403
// path_datasets_disabled. With one, an absolute path, a path climbing
// out with "..", and a symlink resolving outside the root are 403
// path_outside_root. No refusal registers a dataset or writes to the
// store, and a file inside the root, directly or through a symlink that
// stays inside, loads and persists.
func TestPathDatasetsConfinedToDataRoot(t *testing.T) {
	root, outside := t.TempDir(), t.TempDir()
	fimi := "1 2 3\n1 2\n2 3\n"
	for _, f := range []string{filepath.Join(root, "tiny.fimi"), filepath.Join(outside, "secret.fimi")} {
		if err := os.WriteFile(f, []byte(fimi), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(root, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	links := map[string]string{
		"escape.fimi":     filepath.Join(outside, "secret.fimi"),
		"sub/escape.fimi": filepath.Join("..", "..", filepath.Base(outside), "secret.fimi"),
		"outdir":          outside,
		"inside.fimi":     "tiny.fimi",
	}
	for name, target := range links {
		if err := os.Symlink(target, filepath.Join(root, name)); err != nil {
			t.Skipf("symlinks unavailable: %v", err)
		}
	}

	post := func(h http.Handler, name, path string) (int, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		body := fmt.Sprintf(`{"name":%q,"path":%q}`, name, path)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets", strings.NewReader(body)))
		var e apiError
		if rec.Code >= 400 {
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("POST %q: error payload not JSON: %v", path, err)
			}
		}
		return rec.Code, e.Error.Code
	}
	service := func(dataRoot string) (*Service, *store.Store) {
		st, err := store.Open(t.TempDir(), t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		s, err := New(Config{Workers: 1, QueueDepth: 4, Store: st, DataRoot: dataRoot})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Shutdown(context.Background()) })
		return s, st
	}

	s, st := service("")
	for _, path := range []string{"tiny.fimi", filepath.Join(root, "tiny.fimi")} {
		if status, code := post(NewHandler(s), "x", path); status != http.StatusForbidden || code != "path_datasets_disabled" {
			t.Fatalf("no data root, path %q: %d %q, want 403 path_datasets_disabled", path, status, code)
		}
	}
	if len(s.Datasets()) != 0 || len(st.Names()) != 0 {
		t.Fatalf("refusals without a data root registered %v, stored %v", s.Datasets(), st.Names())
	}

	s, st = service(root)
	h := NewHandler(s)
	for _, path := range []string{
		filepath.Join(root, "tiny.fimi"),
		filepath.Join(outside, "secret.fimi"),
		"../" + filepath.Base(outside) + "/secret.fimi",
		"sub/../../" + filepath.Base(outside) + "/secret.fimi",
		"..",
		"escape.fimi",
		"sub/escape.fimi",
		"outdir/secret.fimi",
	} {
		if status, code := post(h, "x", path); status != http.StatusForbidden || code != "path_outside_root" {
			t.Fatalf("path %q: %d %q, want 403 path_outside_root", path, status, code)
		}
	}
	if len(s.Datasets()) != 0 || len(st.Names()) != 0 {
		t.Fatalf("refused paths registered %v, stored %v", s.Datasets(), st.Names())
	}
	if status, code := post(h, "missing", "missing.fimi"); status != http.StatusBadRequest || code != "bad_request" {
		t.Fatalf("missing file: %d %q, want 400 bad_request", status, code)
	}

	for name, path := range map[string]string{"tiny": "tiny.fimi", "linked": "inside.fimi", "climbs": "sub/../tiny.fimi"} {
		if status, code := post(h, name, path); status != http.StatusCreated {
			t.Fatalf("path %q inside the root: %d %q, want 201", path, status, code)
		}
		ds, err := s.Dataset(name)
		if err != nil {
			t.Fatal(err)
		}
		if info := ds.Info(); info.Transactions != 3 || info.Source != path {
			t.Fatalf("dataset %s: %+v, want 3 transactions from %q", name, info, path)
		}
	}
	if names := st.Names(); len(names) != 3 {
		t.Fatalf("loads inside the root stored %v, want 3 datasets", names)
	}

	if _, err := resolveDataPath(root, "../x"); !errors.Is(err, ErrPathOutsideRoot) {
		t.Fatalf("resolveDataPath(../x) = %v, want ErrPathOutsideRoot", err)
	}
	if _, err := resolveDataPath("", "x"); !errors.Is(err, ErrPathDatasetsDisabled) {
		t.Fatalf("resolveDataPath without a root = %v, want ErrPathDatasetsDisabled", err)
	}
	if _, err := resolveDataPath(root, "missing.fimi"); err == nil || strings.Contains(err.Error(), root) {
		t.Fatalf("resolveDataPath(missing.fimi) = %v, want an error that does not name the root", err)
	}
}
