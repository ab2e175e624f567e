package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/obsv"
)

// Job-lifecycle metrics (see /metricsz). They mirror the Manager's
// per-instance atomics, which /statsz still serves; the registry versions
// aggregate across every manager in the process.
const (
	mnJobsSubmitted = "service_jobs_submitted_total"
	mnJobsCompleted = "service_jobs_completed_total"
	mnJobsFailed    = "service_jobs_failed_total"
	mnJobsCanceled  = "service_jobs_canceled_total"
	mnJobsRejected  = "service_jobs_rejected_total"
	mnCacheServed   = "service_cache_served_total"
	mnJobsRunning   = "service_jobs_running"
	mnQueueWaitNS   = "service_queue_wait_ns"
	mnJobDurationNS = "service_job_duration_ns"
)

var (
	jobsSubmitted = obsv.Default.Counter(mnJobsSubmitted, "jobs accepted (queued or served from cache)")
	jobsCompleted = obsv.Default.Counter(mnJobsCompleted, "jobs finished successfully")
	jobsFailed    = obsv.Default.Counter(mnJobsFailed, "jobs finished with an error")
	jobsCanceled  = obsv.Default.Counter(mnJobsCanceled, "jobs canceled before or during execution")
	jobsRejected  = obsv.Default.Counter(mnJobsRejected, "submissions refused by queue backpressure")
	cacheServed   = obsv.Default.Counter(mnCacheServed, "jobs answered from the result cache without mining")
	jobsRunning   = obsv.Default.Gauge(mnJobsRunning, "jobs currently executing")
	queueWaitNS   = obsv.Default.Histogram(mnQueueWaitNS, "nanoseconds jobs spent queued before running", nil)
	jobDurationNS = obsv.Default.Histogram(mnJobDurationNS, "nanoseconds from job start to terminal state", nil)
)

// ErrQueueFull is returned by Submit when the bounded job queue has no
// free slot; HTTP maps it to 429 Too Many Requests.
var ErrQueueFull = errors.New("service: job queue full")

// ErrShuttingDown is returned by Submit after Shutdown has begun.
var ErrShuttingDown = errors.New("service: shutting down")

// ErrUnknownJob is returned for job IDs the manager has never issued.
var ErrUnknownJob = errors.New("service: unknown job")

// RunFunc executes one job and returns its encoded result. It must
// honor ctx: on cancellation it should return promptly with ctx.Err().
type RunFunc func(ctx context.Context, job *Job) (Body, *repro.RunInfo, error)

// ManagerConfig sizes the worker pool and queue.
type ManagerConfig struct {
	// Workers is the number of concurrent mining goroutines (default 1).
	Workers int
	// QueueDepth bounds the number of jobs waiting to run (default 16).
	// Submissions beyond Workers running + QueueDepth waiting fail with
	// ErrQueueFull.
	QueueDepth int
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 16
	}
	return c
}

// Manager owns the job table, the bounded FIFO queue, and the worker
// pool. Every job ever submitted stays in the table until the manager is
// discarded, so status and results remain queryable after completion.
type Manager struct {
	cfg ManagerConfig
	run RunFunc

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for List
	queue  chan *Job
	closed bool
	nextID uint64

	wg sync.WaitGroup

	running   atomic.Int64
	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64
	rejected  atomic.Int64
}

// NewManager starts cfg.Workers workers draining the queue through run.
func NewManager(cfg ManagerConfig, run RunFunc) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:   cfg,
		run:   run,
		jobs:  make(map[string]*Job),
		queue: make(chan *Job, cfg.QueueDepth),
	}
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m
}

// Submit enqueues a job for req with cache identity key. It fails with
// ErrQueueFull when the queue is at capacity and ErrShuttingDown after
// Shutdown.
func (m *Manager) Submit(req Request, key Key) (*Job, error) {
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		Req:     req,
		Key:     key,
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		status:  StatusQueued,
		created: time.Now(),
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel()
		return nil, ErrShuttingDown
	}
	m.nextID++
	j.ID = fmt.Sprintf("job-%d", m.nextID)
	select {
	case m.queue <- j:
		m.jobs[j.ID] = j
		m.order = append(m.order, j.ID)
		m.mu.Unlock()
	default:
		m.mu.Unlock()
		cancel()
		m.rejected.Add(1)
		jobsRejected.Inc()
		return nil, ErrQueueFull
	}
	m.submitted.Add(1)
	jobsSubmitted.Inc()
	return j, nil
}

// Insert registers an already-terminal job (used for cache hits, which
// never pass through the queue) so it is queryable like any other job.
func (m *Manager) Insert(req Request, key Key, body Body, cached bool) *Job {
	now := time.Now()
	j := &Job{
		Req:      req,
		Key:      key,
		cancel:   func() {},
		done:     make(chan struct{}),
		status:   StatusDone,
		body:     body,
		cached:   cached,
		created:  now,
		started:  now,
		finished: now,
	}
	close(j.done)
	m.mu.Lock()
	m.nextID++
	j.ID = fmt.Sprintf("job-%d", m.nextID)
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.mu.Unlock()
	m.submitted.Add(1)
	m.completed.Add(1)
	jobsSubmitted.Inc()
	jobsCompleted.Inc()
	cacheServed.Inc()
	return j
}

// Get returns the job with the given ID.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// List returns snapshots of all jobs in submission order.
func (m *Manager) List() []View {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]View, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Snapshot())
	}
	sort.SliceStable(out, func(i, k int) bool { return out[i].Created.Before(out[k].Created) })
	return out
}

// Cancel requests cancellation of a job. A queued job transitions to
// canceled immediately (the worker will skip it); a running job's
// context is canceled and the worker records the terminal state when the
// run function returns. Canceling a terminal job is a no-op.
func (m *Manager) Cancel(id string) (*Job, error) {
	j, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	switch j.status {
	case StatusQueued:
		j.status = StatusCanceled
		j.finished = time.Now()
		close(j.done)
		j.mu.Unlock()
		j.cancel()
		m.canceled.Add(1)
		jobsCanceled.Inc()
	case StatusRunning:
		j.mu.Unlock()
		j.cancel() // worker finishes the transition
	default:
		j.mu.Unlock()
	}
	return j, nil
}

// Wait blocks until the job reaches a terminal status or ctx expires.
func (m *Manager) Wait(ctx context.Context, id string) (View, error) {
	j, err := m.Get(id)
	if err != nil {
		return View{}, err
	}
	select {
	case <-j.Done():
		return j.Snapshot(), nil
	case <-ctx.Done():
		return j.Snapshot(), ctx.Err()
	}
}

// QueueLen is the number of jobs waiting (not running).
func (m *Manager) QueueLen() int { return len(m.queue) }

// Shutdown stops accepting jobs, drains the queue and running jobs, and
// waits for the workers to exit. If ctx expires first, all outstanding
// jobs are canceled and Shutdown waits for the workers to observe the
// cancellation, then returns ctx.Err().
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue) // workers drain remaining jobs, then exit
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.mu.Lock()
		jobs := make([]*Job, 0, len(m.jobs))
		for _, j := range m.jobs {
			jobs = append(jobs, j)
		}
		m.mu.Unlock()
		for _, j := range jobs {
			m.cancelIfPending(j)
		}
		<-done
		return ctx.Err()
	}
}

func (m *Manager) cancelIfPending(j *Job) {
	j.mu.Lock()
	if j.status == StatusQueued {
		j.status = StatusCanceled
		j.finished = time.Now()
		close(j.done)
		j.mu.Unlock()
		j.cancel()
		m.canceled.Add(1)
		jobsCanceled.Inc()
		return
	}
	j.mu.Unlock()
	j.cancel()
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

func (m *Manager) runJob(j *Job) {
	tr := obsv.NewTrace()
	j.mu.Lock()
	if j.status != StatusQueued { // canceled while waiting
		j.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.trace = tr
	queueWaitNS.Observe(j.started.Sub(j.created).Nanoseconds())
	j.mu.Unlock()

	m.running.Add(1)
	jobsRunning.Add(1)
	defer func() {
		m.running.Add(-1)
		jobsRunning.Add(-1)
	}()

	body, info, err := m.run(obsv.WithTrace(j.ctx, tr), j)
	j.cancel() // release the context's resources

	j.mu.Lock()
	defer func() {
		close(j.done)
		j.mu.Unlock()
	}()
	j.finished = time.Now()
	jobDurationNS.Observe(j.finished.Sub(j.started).Nanoseconds())
	switch {
	case err == nil:
		j.status = StatusDone
		j.body = body
		j.info = info
		m.completed.Add(1)
		jobsCompleted.Inc()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.status = StatusCanceled
		j.err = err.Error()
		m.canceled.Add(1)
		jobsCanceled.Inc()
	default:
		j.status = StatusFailed
		j.err = err.Error()
		m.failed.Add(1)
		jobsFailed.Inc()
	}
}
