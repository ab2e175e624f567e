package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/db"
	"repro/internal/mining"
	"repro/internal/obsv"
	"repro/internal/store"
)

// Config sizes a Service.
type Config struct {
	// Workers / QueueDepth size the job manager (see ManagerConfig).
	Workers    int
	QueueDepth int
	// CacheBytes bounds the result cache by the length of the encoded
	// result bodies it holds (default 64 MiB).
	CacheBytes int64
	// ParallelBudget caps the total mining goroutines across concurrently
	// running jobs (0 means runtime.GOMAXPROCS(0)). Each job gets
	// max(1, ParallelBudget/Workers) workers, so job-level concurrency
	// times intra-job parallelism never oversubscribes the host; a job
	// request asking for more is clamped to the per-job share.
	ParallelBudget int
	// Store, when non-nil, makes the registry store-backed: previously
	// persisted datasets are registered at construction, new
	// registrations persist, and eligible Eclat jobs mine from the
	// store's mapping with zero horizontal scans. The caller owns the
	// store's lifetime (Close after Shutdown).
	Store *store.Store
	// ResidencyBudget is the default per-job MemoryBudget (bytes) for
	// store-backed mines: jobs that do not set their own budget mine
	// out-of-core whenever their dataset's mapping exceeds it. 0 leaves
	// unbudgeted jobs in-core.
	ResidencyBudget int64
	// Logf receives registry warnings (failed transform spills, ...);
	// nil discards them.
	Logf func(format string, args ...any)
}

// ErrDatasetBusy is returned by RemoveDataset while jobs still reference
// the dataset; HTTP maps it to 409 Conflict.
var ErrDatasetBusy = errors.New("service: dataset busy")

// Live-gauge metric names of the service.
const (
	mnQueueLen     = "service_queue_len"
	mnCacheEntries = "service_cache_entries"
	mnCacheBytes   = "service_cache_bytes"
	mnDatasets     = "service_datasets"
)

// Service wires the dataset registry, the job manager, and the result
// cache into the serving layer behind cmd/assocmined.
type Service struct {
	reg     *Registry
	cache   *Cache
	mgr     *Manager
	started time.Time
	// parallelBudget / jobParallelism are the resolved Config.ParallelBudget
	// and the per-job worker share derived from it (both fixed at New).
	parallelBudget int
	jobParallelism int
	// residencyBudget is Config.ResidencyBudget, the default per-job
	// memory budget for store-backed mines.
	residencyBudget int64
}

// New builds a Service and starts its worker pool. The newest Service
// owns the live-state gauges in the default metrics registry (tests that
// build several services hand the names forward; a daemon has one). With
// cfg.Store set, every dataset the store holds is registered before New
// returns, so a restarted daemon serves its persisted datasets without
// rebuilding anything; the only error paths are store-attachment ones.
func New(cfg Config) (*Service, error) {
	s := &Service{
		reg:     NewRegistry(),
		cache:   NewCache(cfg.CacheBytes),
		started: time.Now(),
	}
	if cfg.Store != nil {
		if err := s.reg.AttachStore(cfg.Store, cfg.Logf); err != nil {
			return nil, err
		}
	}
	s.mgr = NewManager(ManagerConfig{Workers: cfg.Workers, QueueDepth: cfg.QueueDepth}, s.runJob)
	s.parallelBudget = cfg.ParallelBudget
	if s.parallelBudget <= 0 {
		s.parallelBudget = runtime.GOMAXPROCS(0)
	}
	s.jobParallelism = s.parallelBudget / s.mgr.cfg.Workers
	if s.jobParallelism < 1 {
		s.jobParallelism = 1
	}
	s.residencyBudget = cfg.ResidencyBudget
	obsv.Default.GaugeFunc(mnQueueLen, "jobs waiting in the bounded queue",
		func() int64 { return int64(s.mgr.QueueLen()) })
	obsv.Default.GaugeFunc(mnCacheEntries, "entries in the result cache",
		func() int64 { return int64(s.cache.Len()) })
	obsv.Default.GaugeFunc(mnCacheBytes, "encoded result bytes held by the result cache",
		func() int64 { return s.cache.Stats().SizeBytes })
	obsv.Default.GaugeFunc(mnDatasets, "registered datasets",
		func() int64 { return int64(len(s.reg.List())) })
	return s, nil
}

// Registry exposes the dataset registry for startup-time registration.
func (s *Service) Registry() *Registry { return s.reg }

// Manager exposes the job manager (tests and stats).
func (s *Service) Manager() *Manager { return s.mgr }

// Cache exposes the result cache (tests and stats).
func (s *Service) Cache() *Cache { return s.cache }

// normalize validates req against the registry and resolves its cache
// key (which fixes the absolute minsup).
func (s *Service) normalize(req Request) (Request, Key, error) {
	ds, err := s.reg.Get(req.Dataset)
	if err != nil {
		return req, Key{}, err
	}
	if req.Variant == "" {
		req.Variant = VariantAll
	}
	// Reject unusable query options first, before support resolution: a
	// malformed topk must surface as invalid_topk even when no support
	// was given. The top-k heap and class targeting exist only on the
	// local all-frequent Eclat path.
	must, err := canonContains(req.MustContain)
	if err != nil {
		return req, Key{}, err
	}
	localEclat := req.Algorithm == repro.AlgoEclat && req.Hosts <= 1 && req.ProcsPerHost <= 1
	switch {
	case req.TopK < 0:
		return req, Key{}, fmt.Errorf("%w: negative topk %d", repro.ErrInvalidTopK, req.TopK)
	case req.TopK > 0 && (req.Variant != VariantAll || !localEclat):
		return req, Key{}, fmt.Errorf("%w: topk requires the local eclat path with variant all", repro.ErrInvalidTopK)
	case must != "" && (req.Variant != VariantAll || !localEclat):
		return req, Key{}, fmt.Errorf("%w: mustContain requires the local eclat path with variant all", repro.ErrInvalidMustContain)
	}
	// MinSupN resolves from the dataset-shape metadata, so submission
	// never loads a store-backed dataset's horizontal data. TopK is part
	// of the resolution: a top-k request with no explicit support gets
	// the floor-1 default instead of a 400.
	opts := repro.MineOptions{SupportPct: req.SupportPct, SupportCount: req.SupportCount, TopK: req.TopK}
	minsup, err := opts.MinSupN(ds.Info().Transactions)
	if err != nil {
		return req, Key{}, err
	}
	// Reject a negative parallelism at submit time (a positive ask is
	// clamped to the per-job share when the job runs). The cache key
	// deliberately omits parallelism: MineParallelLocal's results are
	// byte-identical to sequential mining, so all worker counts share one
	// entry.
	if _, err := (repro.MineOptions{Parallelism: req.Parallelism}).Workers(); err != nil {
		return req, Key{}, err
	}
	// Reject a negative memory budget at submit time. Like parallelism,
	// the budget is absent from the cache key: a budgeted mine is
	// byte-identical to an in-core one, so all budgets share one entry.
	if req.MemoryBudget < 0 {
		return req, Key{}, fmt.Errorf("%w: negative memoryBudget %d", repro.ErrInvalidMemoryBudget, req.MemoryBudget)
	}
	key := Key{
		Dataset:        req.Dataset,
		Algorithm:      req.Algorithm.String(),
		MinSup:         minsup,
		Variant:        req.Variant,
		Representation: req.Representation.String(),
		TopK:           req.TopK,
		MustContain:    must,
	}
	return req, key, nil
}

// canonContains canonicalizes a targeted query's item list for the cache
// key: sorted, deduplicated, comma-joined ("" when empty). Negative items
// are an ErrInvalidMustContain.
func canonContains(items []int) (string, error) {
	if len(items) == 0 {
		return "", nil
	}
	sorted := append([]int(nil), items...)
	sort.Ints(sorted)
	var b strings.Builder
	for i, it := range sorted {
		if it < 0 {
			return "", fmt.Errorf("%w: negative item %d", repro.ErrInvalidMustContain, it)
		}
		if i > 0 && it == sorted[i-1] {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(it))
	}
	return b.String(), nil
}

// Submit validates req, serves it from the result cache when possible
// (the returned job is already done, with View.Cached set), and
// otherwise enqueues it. It fails with ErrQueueFull under backpressure.
func (s *Service) Submit(req Request) (*Job, error) {
	req, key, err := s.normalize(req)
	if err != nil {
		return nil, err
	}
	if body, ok := s.cache.Get(key); ok {
		return s.mgr.Insert(req, key, body, true), nil
	}
	return s.mgr.Submit(req, key)
}

// runJob executes one job against the registry, encodes its result, and
// stores the body in the cache.
func (s *Service) runJob(ctx context.Context, j *Job) (Body, *repro.RunInfo, error) {
	ds, err := s.reg.Get(j.Req.Dataset)
	if err != nil {
		return Body{}, nil, err
	}
	// A job's explicit budget wins; otherwise the service default
	// applies. MineFrom picks the out-of-core path only when the
	// dataset's mapped size actually exceeds the budget.
	budget := j.Req.MemoryBudget
	if budget == 0 {
		budget = s.residencyBudget
	}
	opts := repro.MineOptions{
		Algorithm:      j.Req.Algorithm,
		SupportCount:   j.Key.MinSup, // resolved once at submit time
		Hosts:          j.Req.Hosts,
		ProcsPerHost:   j.Req.ProcsPerHost,
		Representation: j.Req.Representation,
		Parallelism:    s.effectiveParallelism(j.Req.Parallelism),
		TopK:           j.Req.TopK,
		MustContain:    j.Req.MustContain,
		MemoryBudget:   budget,
	}
	var res *mining.Result
	var info *repro.RunInfo
	switch j.Req.Variant {
	case VariantMaximal:
		d, derr := ds.Database()
		if derr != nil {
			return Body{}, nil, derr
		}
		res, info, err = repro.MineMaximal(ctx, d, opts)
	case VariantClosed:
		d, derr := ds.Database()
		if derr != nil {
			return Body{}, nil, derr
		}
		res, info, err = repro.MineClosed(ctx, d, opts)
	default:
		// The dataset is a repro.Source: MineFrom mines local Eclat jobs
		// straight from the memoized vertical transform (zero horizontal
		// scans, mapped views for store-backed datasets) and materializes
		// the horizontal database for everything else. Both paths are
		// byte-identical, so the cache identity is unchanged.
		res, info, err = repro.MineFrom(ctx, ds, opts)
	}
	if err != nil {
		return Body{}, nil, err
	}
	body, err := encodeBody(res)
	if err != nil {
		return Body{}, nil, err
	}
	s.cache.Put(j.Key, body)
	return body, info, nil
}

// effectiveParallelism resolves a job's requested worker count against
// the per-job share of the parallel budget: 0 takes the full share, a
// positive ask is capped at the share, so the worst case — every manager
// worker running a mining job at once — uses at most ParallelBudget
// goroutines.
func (s *Service) effectiveParallelism(requested int) int {
	if requested <= 0 || requested > s.jobParallelism {
		return s.jobParallelism
	}
	return requested
}

// Job returns a snapshot of the job with the given ID.
func (s *Service) Job(id string) (View, error) {
	j, err := s.mgr.Get(id)
	if err != nil {
		return View{}, err
	}
	return j.Snapshot(), nil
}

// Jobs lists all jobs.
func (s *Service) Jobs() []View { return s.mgr.List() }

// ResultBody returns the finished result of a job in its served form,
// or an error naming the job's current status when it is not done.
func (s *Service) ResultBody(id string) (Body, error) {
	j, err := s.mgr.Get(id)
	if err != nil {
		return Body{}, err
	}
	if body, ok := j.Body(); ok {
		return body, nil
	}
	return Body{}, fmt.Errorf("service: job %s is %s, not done", id, j.Snapshot().Status)
}

// Result decodes the finished result of a job (see ResultBody).
func (s *Service) Result(id string) (*mining.Result, error) {
	body, err := s.ResultBody(id)
	if err != nil {
		return nil, err
	}
	return body.Decode()
}

// Cancel cancels a job (no-op if already terminal) and returns its
// snapshot after the cancellation request.
func (s *Service) Cancel(id string) (View, error) {
	j, err := s.mgr.Cancel(id)
	if err != nil {
		return View{}, err
	}
	return j.Snapshot(), nil
}

// Wait blocks until the job is terminal or ctx expires.
func (s *Service) Wait(ctx context.Context, id string) (View, error) {
	return s.mgr.Wait(ctx, id)
}

// Datasets lists the registered datasets.
func (s *Service) Datasets() []DatasetInfo { return s.reg.List() }

// Dataset returns one dataset for detail queries.
func (s *Service) Dataset(name string) (*Dataset, error) { return s.reg.Get(name) }

// RegisterDataset registers d under name (persisting it when the service
// has a store). It is the HTTP registration path; startup-time flag
// registration goes through Registry() directly.
func (s *Service) RegisterDataset(name, source string, d *db.Database) (DatasetInfo, error) {
	ds, err := s.reg.Add(name, source, d)
	if err != nil {
		return DatasetInfo{}, err
	}
	return ds.Info(), nil
}

// RemoveDataset evicts name from the registry (and from the persistent
// store, when the dataset is stored). A dataset referenced by any
// non-terminal job is ErrDatasetBusy; cached results for it are dropped
// so a later dataset of the same name cannot serve stale entries.
func (s *Service) RemoveDataset(name string) error {
	if _, err := s.reg.Get(name); err != nil {
		return err
	}
	for _, v := range s.mgr.List() {
		if v.Dataset == name && !v.Status.Terminal() {
			return fmt.Errorf("%w: %q has job %s %s", ErrDatasetBusy, name, v.ID, v.Status)
		}
	}
	if err := s.reg.Remove(name); err != nil {
		return err
	}
	s.cache.DropDataset(name)
	return nil
}

// Shutdown drains the job queue and workers (see Manager.Shutdown).
func (s *Service) Shutdown(ctx context.Context) error { return s.mgr.Shutdown(ctx) }

// Stats is the /statsz payload.
type Stats struct {
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Workers       int     `json:"workers"`
	QueueDepth    int     `json:"queueDepth"`
	QueueLen      int     `json:"queueLen"`
	// ParallelBudget is the cap on total mining goroutines across jobs;
	// JobParallelism the per-job share each running job may use; GOMAXPROCS
	// the runtime's scheduler width, for judging both against the host.
	ParallelBudget int `json:"parallelBudget"`
	JobParallelism int `json:"jobParallelism"`
	GOMAXPROCS     int `json:"gomaxprocs"`
	// ResidencyBudget is the default per-job memory budget (bytes) for
	// store-backed mines; 0 means unbudgeted jobs run in-core.
	ResidencyBudget int64      `json:"residencyBudget"`
	Running         int64      `json:"running"`
	Submitted       int64      `json:"submitted"`
	Completed       int64      `json:"completed"`
	Failed          int64      `json:"failed"`
	Canceled        int64      `json:"canceled"`
	Rejected        int64      `json:"rejected"`
	Cache           CacheStats `json:"cache"`
	Datasets        int        `json:"datasets"`
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	m := s.mgr
	return Stats{
		UptimeSeconds:   time.Since(s.started).Seconds(),
		Workers:         m.cfg.Workers,
		QueueDepth:      m.cfg.QueueDepth,
		QueueLen:        m.QueueLen(),
		ParallelBudget:  s.parallelBudget,
		JobParallelism:  s.jobParallelism,
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		ResidencyBudget: s.residencyBudget,
		Running:         m.running.Load(),
		Submitted:       m.submitted.Load(),
		Completed:       m.completed.Load(),
		Failed:          m.failed.Load(),
		Canceled:        m.canceled.Load(),
		Rejected:        m.rejected.Load(),
		Cache:           s.cache.Stats(),
		Datasets:        len(s.reg.List()),
	}
}
