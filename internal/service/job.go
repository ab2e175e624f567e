// Package service is the serving layer that turns the repository's
// batch miners into a long-running, concurrent, cancellable, cacheable
// mining service: a dataset registry (load once, mine many), a bounded
// job queue drained by a worker pool, and an LRU result cache keyed by
// (dataset, algorithm, minsup, variant). cmd/assocmined exposes it over
// HTTP with stdlib net/http only.
package service

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/obsv"
)

// Status is a job's lifecycle state. Transitions are strictly
// queued → running → done|failed|canceled, except that a job canceled
// while still queued goes straight to canceled without running.
type Status string

// The job lifecycle states.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is an end state.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Variant selects which itemset collection a job mines.
type Variant string

// The mining variants.
const (
	VariantAll     Variant = "all"     // every frequent itemset
	VariantMaximal Variant = "maximal" // MaxEclat maximal sets only
	VariantClosed  Variant = "closed"  // closed sets only
)

// ParseVariant parses a variant name; "" means VariantAll.
func ParseVariant(s string) (Variant, error) {
	switch Variant(strings.ToLower(s)) {
	case "", VariantAll:
		return VariantAll, nil
	case VariantMaximal:
		return VariantMaximal, nil
	case VariantClosed:
		return VariantClosed, nil
	default:
		return "", fmt.Errorf("service: unknown variant %q (want all, maximal or closed)", s)
	}
}

// ParseAlgorithm maps the short names used by the CLIs and the HTTP API
// to algorithms; "" means Eclat.
func ParseAlgorithm(s string) (repro.Algorithm, error) {
	switch strings.ToLower(s) {
	case "", "eclat":
		return repro.AlgoEclat, nil
	case "apriori":
		return repro.AlgoApriori, nil
	case "countdist":
		return repro.AlgoCountDistribution, nil
	case "datadist":
		return repro.AlgoDataDistribution, nil
	case "canddist":
		return repro.AlgoCandidateDistribution, nil
	case "hybrid":
		return repro.AlgoEclatHybrid, nil
	case "partition":
		return repro.AlgoPartition, nil
	case "sampling":
		return repro.AlgoSampling, nil
	case "dhp":
		return repro.AlgoDHP, nil
	default:
		return 0, fmt.Errorf("%w: %q (want eclat, apriori, countdist, datadist, canddist, hybrid, partition, sampling or dhp)", repro.ErrUnknownAlgorithm, s)
	}
}

// Request describes one mining job. MinSup is resolved against the
// dataset at submission time, so two requests expressed as an absolute
// count and as an equivalent percentage share a cache entry.
type Request struct {
	// Dataset is the registry name of the database to mine.
	Dataset string
	// Algorithm defaults to Eclat.
	Algorithm repro.Algorithm
	// Variant defaults to VariantAll.
	Variant Variant
	// SupportPct / SupportCount follow repro.MineOptions semantics.
	SupportPct   float64
	SupportCount int
	// Hosts / ProcsPerHost select a simulated cluster for the parallel
	// algorithms.
	Hosts        int
	ProcsPerHost int
	// Representation selects the tid-set representation for Eclat-family
	// algorithms (repro.MineOptions.Representation).
	Representation repro.Representation
	// Parallelism requests a worker count for the real Eclat path
	// (repro.MineOptions.Parallelism). 0 takes the service's per-job share
	// of the parallel budget; a positive ask is clamped to that share;
	// negative is rejected at submit time.
	Parallelism int
	// TopK, when > 0, mines only the K highest-support itemsets
	// (repro.MineOptions.TopK). Only VariantAll on the local Eclat path
	// supports it; anything else is rejected at submit time.
	TopK int
	// MustContain restricts the mine to itemsets containing every listed
	// item (repro.MineOptions.MustContain); same path restrictions as
	// TopK.
	MustContain []int
	// MemoryBudget caps the resident bytes of a store-backed mine
	// (repro.MineOptions.MemoryBudget). 0 takes the service's configured
	// ResidencyBudget; negative is rejected at submit time. Like
	// Parallelism it never changes the result — only paging behavior —
	// so it is not part of the cache identity.
	MemoryBudget int64
}

// Key identifies a result in the cache. Hosts/ProcsPerHost are
// deliberately absent: every algorithm returns identical itemsets
// regardless of the simulated cluster shape, so all shapes share one
// entry per (dataset, algorithm, minsup, variant, representation). The
// representation is part of the key even though all representations
// return identical itemsets too — keeping the entries apart preserves the
// per-representation run accounting a client asked to compare.
type Key struct {
	Dataset        string
	Algorithm      string
	MinSup         int
	Variant        Variant
	Representation string
	// TopK and MustContain are part of the identity because they change
	// the result set. MustContain is the canonical form (sorted, deduped,
	// comma-joined), so permutations and repeats of the same targeted
	// query share one entry.
	TopK        int
	MustContain string
}

func (k Key) String() string {
	s := fmt.Sprintf("%s/%s/minsup=%d/%s/repr=%s", k.Dataset, k.Algorithm, k.MinSup, k.Variant, k.Representation)
	if k.TopK > 0 {
		s += fmt.Sprintf("/topk=%d", k.TopK)
	}
	if k.MustContain != "" {
		s += "/contains=" + k.MustContain
	}
	return s
}

// Job is one queued or executed mining run. All mutable state is guarded
// by mu; readers use Snapshot.
type Job struct {
	// ID is the manager-assigned identifier ("job-1", "job-2", ...).
	ID string
	// Req is the submitted request, with Variant normalized.
	Req Request
	// Key is the cache identity of the job's result.
	Key Key

	ctx    context.Context // canceled by Cancel/Shutdown; honored by the run function
	cancel context.CancelFunc
	done   chan struct{} // closed on reaching a terminal status

	mu       sync.Mutex
	status   Status
	err      string
	body     Body // the encoded result, once done
	info     *repro.RunInfo
	trace    *obsv.Trace // per-job phase tracer, set when the job starts
	cached   bool        // result came from the cache, no mine ran
	created  time.Time
	started  time.Time
	finished time.Time
}

// View is an immutable snapshot of a job, the unit the HTTP layer
// serializes.
type View struct {
	ID             string    `json:"id"`
	Status         Status    `json:"status"`
	Dataset        string    `json:"dataset"`
	Algorithm      string    `json:"algorithm"`
	Variant        Variant   `json:"variant"`
	MinSup         int       `json:"minsup"`
	Representation string    `json:"representation"`
	Cached         bool      `json:"cached"`
	Error          string    `json:"error,omitempty"`
	Itemsets       int       `json:"itemsets,omitempty"` // result size once done
	Created        time.Time `json:"created"`
	Started        time.Time `json:"started"`
	Finished       time.Time `json:"finished"`
	// QueueWaitNS is the queued→running wait; DurationNS the
	// running→terminal wall time; Phases the run's recorded phase spans
	// (virtual spans carry simulated cluster time, see obsv.PhaseSpan).
	QueueWaitNS int64            `json:"queueWaitNs,omitempty"`
	DurationNS  int64            `json:"durationNs,omitempty"`
	Phases      []obsv.PhaseSpan `json:"phases,omitempty"`
	// Parallelism is the worker count the run actually mined with and
	// Steals its work-stealing transfers (both 0 until the run finishes,
	// and for cache hits, which never ran).
	Parallelism int   `json:"parallelism,omitempty"`
	Steals      int64 `json:"steals,omitempty"`
	// TopK / MustContain echo the request's query options; EffectiveMinSup
	// is the support threshold the run ended at (raised above MinSup by a
	// top-k run, 0 until the run finishes).
	TopK            int   `json:"topK,omitempty"`
	MustContain     []int `json:"mustContain,omitempty"`
	EffectiveMinSup int   `json:"effectiveMinSup,omitempty"`
	// MemoryBudget is the residency budget the run mined under and
	// OutOfCore whether the budget actually engaged (store-backed source
	// larger than the budget). Both 0/false until the run finishes.
	MemoryBudget int64 `json:"memoryBudget,omitempty"`
	OutOfCore    bool  `json:"outOfCore,omitempty"`
}

// Snapshot returns a consistent view of the job.
func (j *Job) Snapshot() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID:             j.ID,
		Status:         j.status,
		Dataset:        j.Req.Dataset,
		Algorithm:      j.Req.Algorithm.String(),
		Variant:        j.Req.Variant,
		MinSup:         j.Key.MinSup,
		Representation: j.Key.Representation,
		Cached:         j.cached,
		Error:          j.err,
		Created:        j.created,
		Started:        j.started,
		Finished:       j.finished,
	}
	if j.status == StatusDone {
		v.Itemsets = j.body.Itemsets
	}
	if !j.started.IsZero() && j.started.After(j.created) {
		v.QueueWaitNS = j.started.Sub(j.created).Nanoseconds()
	}
	if j.status.Terminal() && !j.started.IsZero() && !j.finished.IsZero() {
		v.DurationNS = j.finished.Sub(j.started).Nanoseconds()
	}
	if j.trace != nil {
		v.Phases = j.trace.Spans()
	}
	v.TopK = j.Req.TopK
	v.MustContain = append([]int(nil), j.Req.MustContain...)
	if j.info != nil {
		v.Parallelism = j.info.Parallelism
		v.Steals = j.info.Steals
		v.EffectiveMinSup = j.info.EffectiveMinSup
		v.MemoryBudget = j.info.MemoryBudget
		v.OutOfCore = j.info.OutOfCore
	}
	return v
}

// Body returns the job's encoded result; ok is false until the job is
// done.
func (j *Job) Body() (body Body, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusDone {
		return Body{}, false
	}
	return j.body, true
}

// Done returns a channel closed when the job reaches a terminal status.
func (j *Job) Done() <-chan struct{} { return j.done }
