package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/service"
)

// newServer starts an httptest server over a fresh service with the
// given pool shape and datasets registered.
func newServer(t *testing.T, cfg service.Config, datasets map[string]int) (*httptest.Server, *service.Service) {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, tx := range datasets {
		d, err := repro.Generate(repro.StandardConfig(tx))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Registry().Add(name, "generated", d); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown(context.Background())
	})
	return ts, svc
}

func postJob(t *testing.T, ts *httptest.Server, body string) (service.View, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v service.View
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return v, resp
}

func getJob(t *testing.T, ts *httptest.Server, id string) service.View {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: %d", id, resp.StatusCode)
	}
	var v service.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func pollUntil(t *testing.T, ts *httptest.Server, id string, pred func(service.View) bool) service.View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v := getJob(t, ts, id)
		if pred(v) {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached the wanted state (last: %+v)", id, getJob(t, ts, id))
	return service.View{}
}

func getStats(t *testing.T, ts *httptest.Server) service.Stats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestEndToEndJobLifecycle is the acceptance flow: submit an Eclat job
// on a generated T10.I6 database, poll to completion, verify the result
// is byte-identical to a direct repro.Mine call, and verify a second
// identical submission is served from the cache.
func TestEndToEndJobLifecycle(t *testing.T) {
	ts, svc := newServer(t, service.Config{Workers: 2, QueueDepth: 8}, map[string]int{"t10": 2000})

	body := `{"dataset":"t10","algorithm":"eclat","supportPct":1.0}`
	v, resp := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", resp.StatusCode)
	}
	done := pollUntil(t, ts, v.ID, func(v service.View) bool { return v.Status.Terminal() })
	if done.Status != service.StatusDone || done.Cached {
		t.Fatalf("first job finished as %+v, want uncached done", done)
	}

	res, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("result fetch: %d %v", res.StatusCode, err)
	}

	ds, err := svc.Registry().Get("t10")
	if err != nil {
		t.Fatal(err)
	}
	dsDB, err := ds.Database()
	if err != nil {
		t.Fatal(err)
	}
	direct, _, err := repro.Mine(context.Background(), dsDB, repro.MineOptions{SupportPct: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := repro.WriteResult(&want, direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("HTTP result (%d bytes) differs from direct repro.Mine result (%d bytes)",
			len(got), want.Len())
	}

	// Second identical submission: served from the cache, no new mine.
	v2, resp2 := postJob(t, ts, body)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("second POST: %d", resp2.StatusCode)
	}
	if v2.Status != service.StatusDone || !v2.Cached {
		t.Fatalf("second submission %+v, want cached done", v2)
	}
	if st := getStats(t, ts); st.Cache.Hits != 1 {
		t.Fatalf("/statsz cache hits = %d, want 1", st.Cache.Hits)
	}

	// The cached job serves the identical bytes too.
	res2, err := http.Get(ts.URL + "/v1/jobs/" + v2.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got2, _ := io.ReadAll(res2.Body)
	res2.Body.Close()
	if !bytes.Equal(got2, want.Bytes()) {
		t.Fatal("cached result differs from the mined result")
	}
}

// TestCancelAndBackpressure drives a single-worker, single-slot queue:
// the running job keeps the worker busy, the queued job is canceled, and
// a third submission overflows with 429.
func TestCancelAndBackpressure(t *testing.T) {
	ts, _ := newServer(t, service.Config{Workers: 1, QueueDepth: 1},
		map[string]int{"t10": 2000, "big": 30000})

	// Low support on the big dataset keeps the worker busy long enough
	// for the rest of the test's requests (each a few microseconds).
	slow := `{"dataset":"big","algorithm":"eclat","supportPct":0.1}`
	v1, resp := postJob(t, ts, slow)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("slow job: %d", resp.StatusCode)
	}
	pollUntil(t, ts, v1.ID, func(v service.View) bool { return v.Status == service.StatusRunning })

	v2, resp := postJob(t, ts, slow2(t))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued job: %d", resp.StatusCode)
	}

	_, resp = postJob(t, ts, `{"dataset":"t10","supportPct":1.0}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Cancel the queued job; whether it is still queued or has just
	// started, it must end canceled, not done.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v2.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE job: %d", dresp.StatusCode)
	}
	final := pollUntil(t, ts, v2.ID, func(v service.View) bool { return v.Status.Terminal() })
	if final.Status != service.StatusCanceled {
		t.Fatalf("canceled job ended as %s, want canceled", final.Status)
	}

	// Its result is not servable.
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + v2.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusConflict {
		t.Fatalf("result of canceled job: %d, want 409", rresp.StatusCode)
	}

	// The slow job still completes normally.
	if v := pollUntil(t, ts, v1.ID, func(v service.View) bool { return v.Status.Terminal() }); v.Status != service.StatusDone {
		t.Fatalf("slow job ended as %s, want done", v.Status)
	}
	if st := getStats(t, ts); st.Rejected != 1 || st.Canceled != 1 {
		t.Fatalf("stats rejected=%d canceled=%d, want 1/1", st.Rejected, st.Canceled)
	}
}

// slow2 is a second distinct slow request (different minsup so it cannot
// be a cache hit of the first).
func slow2(t *testing.T) string {
	t.Helper()
	return `{"dataset":"big","algorithm":"eclat","supportPct":0.12}`
}

func TestHTTPErrorsAndEndpoints(t *testing.T) {
	ts, _ := newServer(t, service.Config{Workers: 1, QueueDepth: 4}, map[string]int{"t10": 500})

	for _, tc := range []struct {
		body string
		want int
	}{
		{`not json`, http.StatusBadRequest},
		{`{"dataset":"missing"}`, http.StatusNotFound},
		{`{"dataset":"t10","algorithm":"quantum"}`, http.StatusBadRequest},
		{`{"dataset":"t10","variant":"weird"}`, http.StatusBadRequest},
		{`{"dataset":"t10","supportPct":-2}`, http.StatusBadRequest},
	} {
		_, resp := postJob(t, ts, tc.body)
		if resp.StatusCode != tc.want {
			t.Fatalf("body %q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), "ok") {
		t.Fatalf("/healthz: %d %q", resp.StatusCode, b)
	}

	resp, err = http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var infos []service.DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "t10" || infos[0].Transactions != 500 {
		t.Fatalf("/v1/datasets: %+v", infos)
	}

	resp, err = http.Get(ts.URL + "/v1/datasets/t10?top=3")
	if err != nil {
		t.Fatal(err)
	}
	var detail struct {
		service.DatasetInfo
		TopItems []service.ItemSupport `json:"topItems"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&detail); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(detail.TopItems) != 3 || detail.TopItems[0].Support < detail.TopItems[2].Support {
		t.Fatalf("dataset detail top items: %+v", detail.TopItems)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing daemon logs.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestDaemonRunLifecycle boots the real daemon on an ephemeral port,
// hits it over TCP, then shuts it down via context cancellation (the
// SIGINT/SIGTERM path) and expects a clean drain.
func TestDaemonRunLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, []string{"-addr", "127.0.0.1:0", "-gen", "mini=300", "-workers", "2"}, &out)
	}()

	addrRe := regexp.MustCompile(`listening on (\S+)`)
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address; output:\n%s", out.String())
		}
		select {
		case err := <-errCh:
			t.Fatalf("daemon exited early: %v\n%s", err, out.String())
		case <-time.After(5 * time.Millisecond):
		}
	}

	base := "http://" + addr
	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"dataset":"mini","supportPct":1.0}`))
	if err != nil {
		t.Fatal(err)
	}
	var v service.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d", resp.StatusCode)
	}

	cancel() // the SIGINT path: drain and exit
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("run returned %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not shut down; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "drained cleanly") {
		t.Fatalf("expected clean drain; output:\n%s", out.String())
	}
}

func TestDaemonFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "0"},
		{"-queue", "-1"},
		{"-cache-mb", "0"},
		{"-gen", "bad"},
		{"-gen", "x=notanumber"},
		{"-dataset", "nameonly"},
		{"-dataset", "x=/definitely/not/here.db"},
	} {
		var out bytes.Buffer
		ctx, cancel := context.WithCancel(context.Background())
		err := run(ctx, args, &out)
		cancel()
		if err == nil {
			t.Fatalf("run(%v) succeeded, want error", args)
		}
	}
}

func TestDaemonLoadsFIMIDataset(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/tiny.fimi"
	if err := writeFile(path, "1 2 3\n1 2\n2 3\n"); err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown(context.Background())
	if err := registerDatasets(svc, []string{"tiny=" + path}, nil); err != nil {
		t.Fatal(err)
	}
	infos := svc.Datasets()
	if len(infos) != 1 || infos[0].Transactions != 3 {
		t.Fatalf("datasets = %+v", infos)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// metricsJSON fetches /metricsz in the expvar-compatible JSON format
// from a server base URL. Histograms decode as objects, scalars as
// float64.
func metricsJSON(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metricsz: %d", resp.StatusCode)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("/metricsz is not valid JSON: %v", err)
	}
	return m
}

func scalar(t *testing.T, m map[string]any, name string) float64 {
	t.Helper()
	v, ok := m[name].(float64)
	if !ok {
		t.Fatalf("metric %q missing or not scalar (got %T)", name, m[name])
	}
	return v
}

// TestMetricszCountersAdvance is the acceptance check for /metricsz:
// both exposition formats parse, and mining one job advances the job
// lifecycle counters, the eclat intersection counters, and the phase
// duration histograms.
func TestMetricszCountersAdvance(t *testing.T) {
	ts, _ := newServer(t, service.Config{Workers: 1, QueueDepth: 4}, map[string]int{"t10": 1000})

	before := metricsJSON(t, ts.URL)

	v, resp := postJob(t, ts, `{"dataset":"t10","algorithm":"eclat","supportPct":0.5}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	done := pollUntil(t, ts, v.ID, func(v service.View) bool { return v.Status.Terminal() })

	after := metricsJSON(t, ts.URL)
	for _, name := range []string{
		"service_jobs_submitted_total",
		"service_jobs_completed_total",
		"eclat_intersections_total",
		"eclat_tidlist_bytes_total",
		"eclat_classes_total",
	} {
		b, _ := before[name].(float64)
		if a := scalar(t, after, name); a <= b {
			t.Fatalf("%s did not advance: before=%v after=%v", name, b, a)
		}
	}
	// Histograms expose {count,sum,buckets}; one job means at least one
	// new observation in queue wait, job duration, and each eclat phase
	// the job ran. The transformation phase exists only on the horizontal
	// path; a job mined from vertical sets never runs it.
	hists := []string{
		"service_queue_wait_ns", "service_job_duration_ns",
		"mine_phase_initialization_ns", "mine_phase_asynchronous_ns",
	}
	for _, p := range done.Phases {
		if p.Name == "transformation" {
			hists = append(hists, "mine_phase_transformation_ns")
		}
	}
	for _, name := range hists {
		h, ok := after[name].(map[string]any)
		if !ok {
			t.Fatalf("histogram %q missing from /metricsz", name)
		}
		if c, _ := h["count"].(float64); c < 1 {
			t.Fatalf("histogram %q count = %v, want >= 1", name, h["count"])
		}
	}

	// Prometheus text exposition: negotiated by query parameter, carries
	// the same counters, and every sample line is well-formed.
	presp, err := http.Get(ts.URL + "/metricsz?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("/metricsz?format=prometheus: %d", presp.StatusCode)
	}
	body := string(text)
	for _, want := range []string{
		"# TYPE eclat_intersections_total counter",
		"# TYPE service_job_duration_ns histogram",
		`service_job_duration_ns_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("prometheus exposition missing %q:\n%s", want, body)
		}
	}
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]`)
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

// TestMetricszL2MemoCounters checks the L2 memo's counters through
// /metricsz: a dataset's first job and every job below the lowest
// support counted on it advance misses, a job at or above that support
// advances hits, and a job that does not mine vertically advances
// neither.
func TestMetricszL2MemoCounters(t *testing.T) {
	ts, _ := newServer(t, service.Config{Workers: 1, QueueDepth: 4}, map[string]int{"t10": 1000})
	for _, step := range []struct {
		body         string
		hits, misses float64
	}{
		{`{"dataset":"t10","supportPct":0.5}`, 0, 1},
		{`{"dataset":"t10","supportPct":1}`, 1, 0},
		{`{"dataset":"t10","supportPct":0.5,"variant":"maximal"}`, 1, 0},
		{`{"dataset":"t10","supportPct":0.3}`, 0, 1},
		{`{"dataset":"t10","supportPct":0.4,"algorithm":"apriori"}`, 0, 0},
	} {
		before := metricsJSON(t, ts.URL)
		v, resp := postJob(t, ts, step.body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %s: %d", step.body, resp.StatusCode)
		}
		if done := pollUntil(t, ts, v.ID, func(v service.View) bool { return v.Status.Terminal() }); done.Status != service.StatusDone || done.Cached {
			t.Fatalf("%s: %s (cached %v), want an uncached done job", step.body, done.Status, done.Cached)
		}
		after := metricsJSON(t, ts.URL)
		for name, want := range map[string]float64{
			"eclat_l2_memo_hits_total":   step.hits,
			"eclat_l2_memo_misses_total": step.misses,
		} {
			b, _ := before[name].(float64)
			if got := scalar(t, after, name) - b; got != want {
				t.Fatalf("%s: %s advanced by %v, want %v", step.body, name, got, want)
			}
		}
	}
}

// startDaemon boots the real daemon with the given extra args on an
// ephemeral port and returns its base URL plus a shutdown func that
// triggers the SIGINT path and waits for a clean drain.
func startDaemon(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), &out)
	}()

	addrRe := regexp.MustCompile(`listening on (\S+)`)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			shutdown := func() {
				cancel()
				select {
				case err := <-errCh:
					if err != nil {
						t.Fatalf("daemon exited with %v\n%s", err, out.String())
					}
				case <-time.After(30 * time.Second):
					t.Fatalf("daemon did not shut down; output:\n%s", out.String())
				}
			}
			return "http://" + m[1], shutdown
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address; output:\n%s", out.String())
		}
		select {
		case err := <-errCh:
			t.Fatalf("daemon exited early: %v\n%s", err, out.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// histCount extracts a histogram's observation count from /metricsz.
func histCount(t *testing.T, m map[string]any, name string) float64 {
	t.Helper()
	h, ok := m[name].(map[string]any)
	if !ok {
		return 0
	}
	c, _ := h["count"].(float64)
	return c
}

// mineDaemon submits one job over HTTP, polls it to done, and returns
// the result bytes.
func mineDaemon(t *testing.T, base, body string) []byte {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v service.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST job %s: %d", body, resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		jresp, err := http.Get(base + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(jresp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		jresp.Body.Close()
		if v.Status.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished (last %+v)", v.ID, v)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if v.Status != service.StatusDone {
		t.Fatalf("job ended %s: %s", v.Status, v.Error)
	}
	rresp, err := http.Get(base + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if err != nil || rresp.StatusCode != http.StatusOK {
		t.Fatalf("result fetch: %d %v", rresp.StatusCode, err)
	}
	return got
}

// TestDaemonDataDirRestartWithoutRebuild is the persistence acceptance
// flow: register a dataset with -data-dir, stop the daemon, restart it
// on the same directory with no dataset flags, and mine. The restarted
// daemon must serve the dataset from the mmap store — results
// byte-identical to an in-memory run across representations and worker
// counts, with the horizontal transformation phase never running.
func TestDaemonDataDirRestartWithoutRebuild(t *testing.T) {
	dir := t.TempDir()

	base, shutdown := startDaemon(t, "-data-dir", dir, "-gen", "persist=800")
	resp, err := http.Get(base + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var infos []service.DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "persist" || !infos[0].Stored {
		t.Fatalf("first daemon datasets = %+v, want stored persist", infos)
	}
	shutdown()

	// Restart over the same directory: no -gen, no -dataset, yet the
	// dataset is there (and no demo fallback was registered).
	base, shutdown = startDaemon(t, "-data-dir", dir)
	defer shutdown()
	resp, err = http.Get(base + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	infos = nil
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "persist" || !infos[0].Stored || infos[0].Transactions != 800 {
		t.Fatalf("restarted daemon datasets = %+v, want stored persist n=800", infos)
	}

	// The expected results come from a fresh in-memory mine of the same
	// generated data (repro.Generate is deterministic). All direct mines
	// run before the metrics snapshot: the daemon shares this process's
	// metrics registry, so they must not pollute the phase histograms the
	// assertions below read.
	d, err := repro.Generate(repro.StandardConfig(800))
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][]byte{}
	for _, workers := range []int{1, 2, 4} {
		// Distinct minsup per worker count dodges the result cache (the
		// key omits parallelism), so every combination really mines.
		minsup := 4 + 2*workers
		direct, _, err := repro.Mine(context.Background(), d, repro.MineOptions{SupportCount: minsup})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := repro.WriteResult(&buf, direct); err != nil {
			t.Fatal(err)
		}
		want[minsup] = buf.Bytes()
	}

	before := metricsJSON(t, base)
	if histCount(t, before, "store_open_ns") < 1 {
		t.Fatal("restarted daemon did not open the store")
	}
	for _, repr := range []string{"sparse", "bitset", "auto"} {
		for _, workers := range []int{1, 2, 4} {
			minsup := 4 + 2*workers
			body := fmt.Sprintf(`{"dataset":"persist","algorithm":"eclat","supportCount":%d,"representation":%q,"parallelism":%d}`,
				minsup, repr, workers)
			if got := mineDaemon(t, base, body); !bytes.Equal(got, want[minsup]) {
				t.Fatalf("repr=%s workers=%d: restarted daemon result differs from in-memory mine", repr, workers)
			}
		}
	}
	after := metricsJSON(t, base)

	// No horizontal rescan: the vertical path mined straight from the
	// mapping, so the transformation-phase histogram saw zero new
	// observations while initialization advanced with the jobs.
	if b, a := histCount(t, before, "mine_phase_transformation_ns"), histCount(t, after, "mine_phase_transformation_ns"); a != b {
		t.Fatalf("transformation phase ran on the restarted daemon: count %v -> %v", b, a)
	}
	if b, a := histCount(t, before, "mine_phase_initialization_ns"), histCount(t, after, "mine_phase_initialization_ns"); a <= b {
		t.Fatalf("initialization phase did not advance: count %v -> %v", b, a)
	}
}

// TestHTTPDatasetRegistrationAndRemoval drives the dataset CRUD
// endpoints: POST registers (generated and file-backed), duplicate
// names and bad bodies are structured errors, DELETE evicts.
func TestHTTPDatasetRegistrationAndRemoval(t *testing.T) {
	ts, _ := newServer(t, service.Config{Workers: 1, QueueDepth: 4}, nil)

	post := func(body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&m)
		return resp.StatusCode, m
	}

	if code, m := post(`{"name":"t10","gen":500}`); code != http.StatusCreated {
		t.Fatalf("POST gen dataset: %d %v", code, m)
	}
	if code, m := post(`{"name":"t10","gen":500}`); code != http.StatusConflict {
		t.Fatalf("duplicate POST: %d %v, want 409", code, m)
	}
	for _, bad := range []string{
		`not json`,
		`{"gen":500}`,                           // missing name
		`{"name":"x"}`,                          // no source
		`{"name":"x","gen":5,"path":"/y"}`,      // ambiguous source
		`{"name":"x","path":"/definitely/not"}`, // unreadable file
	} {
		if code, _ := post(bad); code != http.StatusBadRequest {
			t.Fatalf("POST %q: %d, want 400", bad, code)
		}
	}

	// File-backed registration through the same endpoint.
	path := t.TempDir() + "/tiny.fimi"
	if err := writeFile(path, "1 2 3\n1 2\n2 3\n"); err != nil {
		t.Fatal(err)
	}
	if code, m := post(fmt.Sprintf(`{"name":"tiny","path":%q}`, path)); code != http.StatusCreated {
		t.Fatalf("POST file dataset: %d %v", code, m)
	}

	del := func(name string) int {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/"+name, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del("nope"); code != http.StatusNotFound {
		t.Fatalf("DELETE unknown: %d, want 404", code)
	}
	if code := del("tiny"); code != http.StatusNoContent {
		t.Fatalf("DELETE tiny: %d, want 204", code)
	}
	resp, err := http.Get(ts.URL + "/v1/datasets/tiny")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET removed dataset: %d, want 404", resp.StatusCode)
	}
}

// TestJobPhaseSpanAccounting checks the span bookkeeping end to end: a
// finished job reports its phase spans, and the wall-clock spans sum to
// the job latency within tolerance (they cannot exceed it, and the
// uninstrumented remainder must be small) — for an all-frequent and a
// maximal job alike.
func TestJobPhaseSpanAccounting(t *testing.T) {
	ts, _ := newServer(t, service.Config{Workers: 1, QueueDepth: 4}, map[string]int{"t10": 2000})

	for _, body := range []string{
		`{"dataset":"t10","algorithm":"eclat","supportPct":0.5}`,
		`{"dataset":"t10","algorithm":"eclat","variant":"maximal","supportPct":0.5}`,
	} {
		v, resp := postJob(t, ts, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %s: %d", body, resp.StatusCode)
		}
		done := pollUntil(t, ts, v.ID, func(v service.View) bool { return v.Status.Terminal() })
		if done.Status != service.StatusDone {
			t.Fatalf("%s: job ended %s", body, done.Status)
		}
		if done.DurationNS <= 0 {
			t.Fatalf("%s: DurationNS = %d, want > 0", body, done.DurationNS)
		}
		if done.QueueWaitNS < 0 {
			t.Fatalf("%s: QueueWaitNS = %d, want >= 0", body, done.QueueWaitNS)
		}
		names := map[string]bool{}
		var sum int64
		for _, sp := range done.Phases {
			if sp.Virtual() {
				continue
			}
			names[sp.Name] = true
			sum += sp.DurationNS
		}
		// Eclat jobs of every variant mine from the registry's memoized
		// vertical transform (repro.MineFrom), so the horizontal
		// transformation phase never runs — only initialization, the
		// asynchronous class recursion and the final reduction, then the
		// service's result encoding.
		for _, want := range []string{"initialization", "asynchronous", "reduction", "encode"} {
			if !names[want] {
				t.Fatalf("%s: phase %q missing from job view (got %v)", body, want, done.Phases)
			}
		}
		if names["transformation"] {
			t.Fatalf("%s: vertical mining path ran the horizontal transformation phase (got %v)", body, done.Phases)
		}
		if sum <= 0 || sum > done.DurationNS {
			t.Fatalf("%s: phase sum %d outside (0, job duration %d]", body, sum, done.DurationNS)
		}
		// The job does almost nothing outside the traced phases; allow a
		// generous absolute slack for scheduler noise.
		if slack := done.DurationNS - sum; slack > (50 * time.Millisecond).Nanoseconds() {
			t.Fatalf("%s: untraced remainder %dns too large (duration %d, phases %d)",
				body, slack, done.DurationNS, sum)
		}
	}
}

// TestStructuredErrorBody pins the {"error":{"code","message"}} shape
// and the stable code slugs.
func TestStructuredErrorBody(t *testing.T) {
	ts, _ := newServer(t, service.Config{Workers: 1, QueueDepth: 4}, map[string]int{"t10": 500})

	for _, tc := range []struct {
		body string
		code string
	}{
		{`{"dataset":"missing","supportPct":1}`, "unknown_dataset"},
		{`{"dataset":"t10","algorithm":"quantum","supportPct":1}`, "unknown_algorithm"},
		{`{"dataset":"t10","supportPct":-2}`, "invalid_support"},
		{`{"dataset":"t10"}`, "invalid_support"}, // zero-value support is an error now
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("body %q: error payload not JSON: %v", tc.body, err)
		}
		resp.Body.Close()
		if e.Error.Code != tc.code || e.Error.Message == "" {
			t.Fatalf("body %q: error = %+v, want code %q with message", tc.body, e.Error, tc.code)
		}
	}
}

// TestSupportPctAboveHundredRejected pins the percentages that used to
// mine every itemset at support 1: valid JSON numbers past 100 are a 400
// invalid_support and admit no job, while 100 resolves to |D|.
func TestSupportPctAboveHundredRejected(t *testing.T) {
	ts, _ := newServer(t, service.Config{Workers: 1, QueueDepth: 4}, map[string]int{"t10": 500})

	for _, body := range []string{
		`{"dataset":"t10","supportPct":1e300}`,
		`{"dataset":"t10","supportPct":100.5}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || e.Error.Code != "invalid_support" {
			t.Fatalf("body %q: status %d, code %q (%v); want 400 invalid_support", body, resp.StatusCode, e.Error.Code, err)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/job-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("a rejected request admitted job-1: GET status %d", resp.StatusCode)
	}

	v, resp := postJob(t, ts, `{"dataset":"t10","supportPct":100}`)
	if resp.StatusCode != http.StatusAccepted || v.MinSup != 500 {
		t.Fatalf("supportPct 100: status %d, minsup %d; want 202 and 500", resp.StatusCode, v.MinSup)
	}
}

// TestPprofEndpoints checks the profiling surface: the index lists the
// profiles and /debug/pprof/profile returns a valid (gzip) CPU profile.
func TestPprofEndpoints(t *testing.T) {
	ts, _ := newServer(t, service.Config{Workers: 1, QueueDepth: 2}, nil)

	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(idx), "profile") {
		t.Fatalf("pprof index: %d\n%s", resp.StatusCode, idx)
	}

	resp, err = http.Get(ts.URL + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("CPU profile: %d %s", resp.StatusCode, prof)
	}
	if len(prof) < 2 || prof[0] != 0x1f || prof[1] != 0x8b {
		t.Fatalf("CPU profile is not gzip-compressed pprof data (%d bytes)", len(prof))
	}
}

// TestHTTPServerReadTimeouts pins the daemon server's read deadlines: a
// client that trickles its headers or body is cut off instead of holding
// a connection forever, and the header deadline is the tighter one.
func TestHTTPServerReadTimeouts(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer(h)
	if srv.Handler != h {
		t.Fatal("server does not serve the given handler")
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadTimeout != readTimeout {
		t.Fatalf("read timeouts = %v header, %v request; want %v, %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, readHeaderTimeout, readTimeout)
	}
	if readHeaderTimeout <= 0 || readTimeout < readHeaderTimeout {
		t.Fatalf("header timeout %v must be positive and at most the request timeout %v", readHeaderTimeout, readTimeout)
	}
}
