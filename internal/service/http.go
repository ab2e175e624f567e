package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"strconv"
	"strings"

	"repro"
	"repro/internal/db"
	"repro/internal/obsv"
)

// JobRequest is the JSON body of POST /v1/jobs.
type JobRequest struct {
	// Dataset is a registered dataset name (required).
	Dataset string `json:"dataset"`
	// Algorithm is a short algorithm name ("eclat", "apriori",
	// "countdist", ...); empty means eclat.
	Algorithm string `json:"algorithm"`
	// Variant is "all" (default), "maximal" or "closed".
	Variant string `json:"variant"`
	// SupportPct / supportCount follow repro.MineOptions semantics.
	SupportPct   float64 `json:"supportPct"`
	SupportCount int     `json:"supportCount"`
	// Hosts / procs select a simulated cluster for parallel algorithms;
	// more than 64 processors in all is a 400 cluster_too_large.
	Hosts int `json:"hosts"`
	Procs int `json:"procs"`
	// Representation is the tid-set representation for Eclat-family
	// algorithms: "auto" (default), "sparse", "bitset" or "roaring".
	Representation string `json:"representation"`
	// Parallelism requests local worker goroutines for the real Eclat
	// path; 0 means the service's per-job share of its parallel budget
	// (asks beyond the share are clamped to it, negative is a 400).
	Parallelism int `json:"parallelism"`
	// TopK, when > 0, mines only the K highest-support itemsets. Only the
	// local eclat path with variant "all" supports it (anything else is a
	// 400 with code invalid_topk); with no support given the threshold
	// floor defaults to 1.
	TopK int `json:"topK"`
	// MustContain lists item ids every mined itemset must contain (a
	// targeted query; same path restrictions as topK, code
	// invalid_must_contain).
	MustContain []int `json:"mustContain"`
	// MemoryBudget caps the resident bytes of a store-backed mine; 0
	// takes the daemon's -memory-budget default, negative is a 400 with
	// code invalid_memory_budget. Does not change the result, only
	// paging behavior, so it is not part of the cache identity.
	MemoryBudget int64 `json:"memoryBudget"`
}

// DatasetRequest is the JSON body of POST /v1/datasets. Exactly one of
// Gen and Path selects the data source.
type DatasetRequest struct {
	// Name is the registry key (required).
	Name string `json:"name"`
	// Gen, when positive, generates a standard T10.I6 dataset with this
	// many transactions, at most maxGenTransactions (400 gen_too_large
	// above).
	Gen int `json:"gen,omitempty"`
	// Path loads a database file under the daemon's data root
	// (Config.DataRoot), relative to it; Format is "binary", "fimi" or ""
	// to infer from the extension (.fimi/.dat/.txt are FIMI text).
	// Without a data root every path is refused (403
	// path_datasets_disabled), and a path that is absolute, climbs out
	// with "..", or resolves outside the root through a symlink is
	// refused too (403 path_outside_root).
	Path   string `json:"path,omitempty"`
	Format string `json:"format,omitempty"`
}

// VerticalSizes reports the dataset's vertical-transform size under each
// tid-set encoding (the auto figure picks the cheaper encoding per item).
type VerticalSizes struct {
	SparseBytes  int64 `json:"sparseBytes"`
	DenseBytes   int64 `json:"denseBytes"`
	RoaringBytes int64 `json:"roaringBytes"`
	AutoBytes    int64 `json:"autoBytes"`
}

// maxBodyBytes caps a POST body: a job or dataset request is a few
// hundred bytes, so 1 MiB refuses only a client that streams garbage.
const maxBodyBytes = 1 << 20

// ErrUnknownField reports a request body naming a field the endpoint
// does not define, such as a misspelt "memory_budget"; HTTP maps it to
// 400 unknown_field instead of running the request without it.
var ErrUnknownField = errors.New("service: unknown request field")

// ErrBodyTooLarge reports a request body over maxBodyBytes; HTTP maps it
// to 413 body_too_large.
var ErrBodyTooLarge = errors.New("service: request body too large")

// maxGenTransactions caps a generated dataset at the paper's largest
// database, T10.I6.D6400K: the handler generates the whole database
// before registering it, so an uncapped gen lets one request exhaust
// the daemon's memory.
const maxGenTransactions = 6_400_000

// ErrGenTooLarge reports a gen over maxGenTransactions; HTTP maps it to
// 400 gen_too_large.
var ErrGenTooLarge = errors.New("service: gen too large")

// ErrPathDatasetsDisabled reports a path dataset on a daemon without a
// data root; HTTP maps it to 403 path_datasets_disabled.
var ErrPathDatasetsDisabled = errors.New("service: path datasets disabled")

// ErrPathOutsideRoot reports a path dataset that is absolute, climbs out
// of the data root with "..", or resolves outside it through a symlink;
// HTTP maps it to 403 path_outside_root.
var ErrPathOutsideRoot = errors.New("service: path outside the data root")

// resolveDataPath confines a path dataset to root: path must be
// relative, stay inside root as written, and stay inside it once its
// symlinks resolve. It returns the resolved file. The file is opened
// after the check, so a symlink swapped in between is not caught;
// os.OpenRoot (Go 1.24) would close that gap once this module's go.mod
// and bench's, both at go 1.22, move up together.
func resolveDataPath(root, path string) (string, error) {
	if root == "" {
		return "", fmt.Errorf("%w: the daemon has no data root", ErrPathDatasetsDisabled)
	}
	if !filepath.IsLocal(path) {
		return "", fmt.Errorf("%w: %q", ErrPathOutsideRoot, path)
	}
	var file string
	realRoot, err := filepath.EvalSymlinks(root)
	if err == nil {
		file, err = filepath.EvalSymlinks(filepath.Join(realRoot, path))
	}
	if err != nil {
		// Report the error without the root's location.
		var pe *fs.PathError
		if errors.As(err, &pe) {
			err = pe.Err
		}
		return "", fmt.Errorf("%q: %w", path, err)
	}
	if rel, err := filepath.Rel(realRoot, file); err != nil || !filepath.IsLocal(rel) {
		return "", fmt.Errorf("%w: %q resolves outside it", ErrPathOutsideRoot, path)
	}
	return file, nil
}

// checkGen refuses a gen the daemon will not generate.
func checkGen(n int) error {
	if n > maxGenTransactions {
		return fmt.Errorf("%w: %d transactions, at most %d", ErrGenTooLarge, n, maxGenTransactions)
	}
	return nil
}

// decodeBody decodes r's JSON body into v strictly: at most maxBodyBytes
// are read, every field must be one v defines, and only whitespace may
// follow the one JSON value.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == nil {
			err = errors.New("data after the JSON value")
		} else if errors.Is(err, io.EOF) {
			return nil
		}
	}
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &tooLarge):
		return fmt.Errorf("%w: over %d bytes", ErrBodyTooLarge, tooLarge.Limit)
	case strings.HasPrefix(err.Error(), "json: unknown field "):
		// encoding/json reports an unknown field with an untyped error;
		// its message is the only stable handle.
		return fmt.Errorf("%w: %s", ErrUnknownField, strings.TrimPrefix(err.Error(), "json: unknown field "))
	}
	return fmt.Errorf("bad request body: %w", err)
}

// apiError is the structured error body: {"error":{"code","message"}}.
// code is a stable machine-readable slug; message is human prose.
type apiError struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorCode maps an error to its (HTTP status, stable code slug). Typed
// sentinels from repro and this package drive the mapping; anything
// unrecognized is a generic bad request.
func errorCode(err error) (int, string) {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, "queue_full"
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable, "shutting_down"
	case errors.Is(err, ErrUnknownDataset):
		return http.StatusNotFound, "unknown_dataset"
	case errors.Is(err, ErrDatasetBusy):
		return http.StatusConflict, "dataset_busy"
	case errors.Is(err, ErrDatasetExists):
		return http.StatusConflict, "dataset_exists"
	case errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound, "unknown_job"
	case errors.Is(err, repro.ErrInvalidSupport):
		return http.StatusBadRequest, "invalid_support"
	case errors.Is(err, repro.ErrUnknownAlgorithm):
		return http.StatusBadRequest, "unknown_algorithm"
	case errors.Is(err, repro.ErrInvalidParallelism):
		return http.StatusBadRequest, "invalid_parallelism"
	case errors.Is(err, repro.ErrInvalidRepresentation):
		return http.StatusBadRequest, "invalid_representation"
	case errors.Is(err, repro.ErrInvalidTopK):
		return http.StatusBadRequest, "invalid_topk"
	case errors.Is(err, repro.ErrInvalidMustContain):
		return http.StatusBadRequest, "invalid_must_contain"
	case errors.Is(err, repro.ErrInvalidMemoryBudget):
		return http.StatusBadRequest, "invalid_memory_budget"
	case errors.Is(err, repro.ErrClusterTooLarge):
		return http.StatusBadRequest, "cluster_too_large"
	case errors.Is(err, repro.ErrCanceled):
		return http.StatusConflict, "canceled"
	case errors.Is(err, ErrUnknownField):
		return http.StatusBadRequest, "unknown_field"
	case errors.Is(err, ErrBodyTooLarge):
		return http.StatusRequestEntityTooLarge, "body_too_large"
	case errors.Is(err, ErrGenTooLarge):
		return http.StatusBadRequest, "gen_too_large"
	case errors.Is(err, ErrPathDatasetsDisabled):
		return http.StatusForbidden, "path_datasets_disabled"
	case errors.Is(err, ErrPathOutsideRoot):
		return http.StatusForbidden, "path_outside_root"
	default:
		return http.StatusBadRequest, "bad_request"
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	_, slug := errorCode(err)
	writeJSON(w, code, apiError{Error: errorBody{Code: slug, Message: err.Error()}})
}

// writeMappedError derives both status and code from the error itself.
func writeMappedError(w http.ResponseWriter, err error) {
	code, slug := errorCode(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, apiError{Error: errorBody{Code: slug, Message: err.Error()}})
}

// NewHandler exposes the service over HTTP:
//
//	POST   /v1/jobs           submit a job (202; 429 when the queue is full)
//	GET    /v1/jobs           list jobs
//	GET    /v1/jobs/{id}      job status
//	GET    /v1/jobs/{id}/result  finished result in the WriteResult text format
//	DELETE /v1/jobs/{id}      cancel a job
//	GET    /v1/datasets       registered datasets
//	POST   /v1/datasets       register a dataset (persists when the daemon has -data-dir;
//	                          a path dataset must lie under -data-root)
//	GET    /v1/datasets/{name}  dataset detail with top items (memoized vertical transform)
//	DELETE /v1/datasets/{name}  remove a dataset (409 while jobs reference it)
//	GET    /healthz           liveness
//	GET    /statsz            queue/worker/cache counters
//	GET    /metricsz          metrics registry (expvar JSON or ?format=prometheus)
//	GET    /debug/pprof/      runtime profiling (profile, heap, trace, ...)
//
// POST bodies are read up to 1 MiB (413 body_too_large beyond) and
// decoded strictly: a field the request type does not define is a 400
// unknown_field, never silently dropped. Errors are returned as
// {"error":{"code","message"}} with a stable machine-readable code (see
// errorCode).
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var jr JobRequest
		if err := decodeBody(w, r, &jr); err != nil {
			writeMappedError(w, err)
			return
		}
		algo, err := repro.ParseAlgorithm(jr.Algorithm)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		output, err := repro.ParseOutput(jr.Variant)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		repr, err := repro.ParseRepresentation(jr.Representation)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		job, err := s.Submit(Request{Dataset: jr.Dataset, MineOptions: repro.MineOptions{
			Algorithm:      algo,
			Output:         output,
			SupportPct:     jr.SupportPct,
			SupportCount:   jr.SupportCount,
			Hosts:          jr.Hosts,
			ProcsPerHost:   jr.Procs,
			Representation: repr,
			Parallelism:    jr.Parallelism,
			TopK:           jr.TopK,
			MustContain:    jr.MustContain,
			MemoryBudget:   jr.MemoryBudget,
		}})
		if err != nil {
			writeMappedError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, job.Snapshot())
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Jobs())
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := s.Job(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		v, err := s.Job(id)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		body, err := s.ResultBody(id)
		if err != nil {
			code := http.StatusConflict // not done yet (or failed/canceled)
			if v.Status == StatusQueued || v.Status == StatusRunning {
				w.Header().Set("Retry-After", "1")
			}
			writeError(w, code, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-Itemsets", strconv.Itoa(body.Itemsets))
		// A failed write means the headers are gone; nothing to do but
		// drop the connection.
		_, _ = w.Write(body.Data)
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	})

	mux.HandleFunc("GET /v1/datasets", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Datasets())
	})

	mux.HandleFunc("POST /v1/datasets", func(w http.ResponseWriter, r *http.Request) {
		var dr DatasetRequest
		if err := decodeBody(w, r, &dr); err != nil {
			writeMappedError(w, err)
			return
		}
		if dr.Name == "" {
			writeError(w, http.StatusBadRequest, fmt.Errorf("dataset name is required"))
			return
		}
		var (
			d      *db.Database
			source string
			err    error
		)
		switch {
		case dr.Gen > 0 && dr.Path != "":
			writeError(w, http.StatusBadRequest, fmt.Errorf("gen and path are mutually exclusive"))
			return
		case dr.Gen > 0:
			if err := checkGen(dr.Gen); err != nil {
				writeMappedError(w, err)
				return
			}
			d, err = repro.Generate(repro.StandardConfig(dr.Gen))
			source = fmt.Sprintf("generated T10.I6 n=%d", dr.Gen)
		case dr.Path != "":
			var file string
			file, err = resolveDataPath(s.dataRoot, dr.Path)
			if errors.Is(err, ErrPathDatasetsDisabled) || errors.Is(err, ErrPathOutsideRoot) {
				writeMappedError(w, err)
				return
			}
			if err == nil {
				d, err = db.Load(file, dr.Format)
			}
			source = dr.Path
		default:
			writeError(w, http.StatusBadRequest, fmt.Errorf("one of gen or path is required"))
			return
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("dataset %s: %w", dr.Name, err))
			return
		}
		info, err := s.RegisterDataset(dr.Name, source, d)
		if err != nil {
			writeMappedError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})

	mux.HandleFunc("DELETE /v1/datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.RemoveDataset(r.PathValue("name")); err != nil {
			writeMappedError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /v1/datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		ds, err := s.Dataset(r.PathValue("name"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		n := 10
		if q := r.URL.Query().Get("top"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 1 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad top %q", q))
				return
			}
			n = v
		}
		sparse, dense, roaring, auto := ds.VerticalSizes()
		writeJSON(w, http.StatusOK, struct {
			DatasetInfo
			TopItems []ItemSupport `json:"topItems"`
			Vertical VerticalSizes `json:"vertical"`
		}{
			DatasetInfo: ds.Info(),
			TopItems:    ds.TopItems(n),
			Vertical:    VerticalSizes{SparseBytes: sparse, DenseBytes: dense, RoaringBytes: roaring, AutoBytes: auto},
		})
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})

	mux.HandleFunc("GET /statsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})

	// Observability: the default metrics registry in expvar-compatible
	// JSON or Prometheus text exposition (content-negotiated), and the
	// standard pprof endpoints (registered by hand because the service
	// runs on its own mux, not http.DefaultServeMux).
	mux.Handle("GET /metricsz", obsv.Default.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}
