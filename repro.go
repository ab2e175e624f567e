// Package repro is a Go reproduction of "A Localized Algorithm for
// Parallel Association Mining" (Zaki, Parthasarathy, Li — SPAA 1997), the
// paper that introduced the Eclat algorithm.
//
// It provides:
//
//   - the IBM Quest synthetic basket-data generator the paper's
//     evaluation uses (Generate, StandardConfig);
//   - sequential miners (Eclat and Apriori) and the paper's four parallel
//     algorithms (Eclat, Count Distribution, Data Distribution, Candidate
//     Distribution) plus the hybrid Eclat from the paper's future work,
//     all returning identical frequent-itemset results (Mine);
//   - association-rule generation from mined itemsets (Rules);
//   - a deterministic simulation of the paper's testbed — an H-host,
//     P-processors-per-host DEC Alpha cluster with per-host disks and a
//     Memory Channel interconnect — whose virtual-time reports regenerate
//     the paper's tables and figures (see cmd/experiments and
//     bench_test.go).
//
// Quick start:
//
//	d, _ := repro.Generate(repro.StandardConfig(10000))
//	res, info, _ := repro.Mine(context.Background(), d, repro.MineOptions{SupportPct: 0.25})
//	rules := repro.Rules(res, 0.9)
//
// The mining entry points are context-first: cancellation, deadlines and
// the observability trace (see RunInfo.Phases) all ride on the ctx
// argument.
package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/apriori"
	"repro/internal/canddist"
	"repro/internal/cluster"
	"repro/internal/countdist"
	"repro/internal/datadist"
	"repro/internal/db"
	"repro/internal/dhp"
	"repro/internal/eclat"
	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/obsv"
	"repro/internal/paircount"
	"repro/internal/partition"
	"repro/internal/rules"
	"repro/internal/sampling"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/tidlist"
)

// Sentinel errors of the mining API. The serving layer maps them to HTTP
// status codes; library callers test with errors.Is.
var (
	// ErrInvalidSupport reports unusable MineOptions support settings: a
	// negative SupportPct/SupportCount, a SupportPct that is NaN or above
	// 100, or both left at zero.
	ErrInvalidSupport = errors.New("repro: invalid support")
	// ErrUnknownAlgorithm reports an Algorithm value outside the defined
	// set.
	ErrUnknownAlgorithm = errors.New("repro: unknown algorithm")
	// ErrInvalidParallelism reports a negative MineOptions.Parallelism.
	ErrInvalidParallelism = errors.New("repro: invalid parallelism")
	// ErrCanceled wraps the context error when a mine stops early; the
	// returned error also matches context.Canceled or
	// context.DeadlineExceeded under errors.Is.
	ErrCanceled = errors.New("repro: mining canceled")
	// ErrInvalidRepresentation reports an unknown representation: a name
	// passed to ParseRepresentation (the -repr flag and the service's
	// "representation" job field map it to HTTP 400), or a
	// MineOptions.Representation past ReprRoaring.
	ErrInvalidRepresentation = tidlist.ErrInvalidRepresentation
	// ErrInvalidTopK reports an unusable MineOptions.TopK: a negative
	// value, or a top-k request to an algorithm without the adaptive
	// support heap (anything but the local Eclat path).
	ErrInvalidTopK = errors.New("repro: invalid topk")
	// ErrInvalidMustContain reports an unusable MineOptions.MustContain: an
	// item id outside [0, math.MaxInt32], or a targeted query to an
	// algorithm without class-level targeting (anything but the local
	// Eclat path).
	ErrInvalidMustContain = errors.New("repro: invalid must-contain")
	// ErrInvalidMemoryBudget reports a negative MineOptions.MemoryBudget.
	ErrInvalidMemoryBudget = errors.New("repro: invalid memory budget")
	// ErrClusterTooLarge reports a simulated cluster of more than
	// maxClusterProcs processors (see MineOptions.CheckCluster).
	ErrClusterTooLarge = errors.New("repro: cluster too large")
	// ErrInvalidCluster reports an explicit MineOptions.Cluster with
	// fewer than one host or one processor per host.
	ErrInvalidCluster = errors.New("repro: invalid cluster")
)

// DefaultSupportPct is the paper's experimental support threshold (0.1%
// of |D|). The zero-value MineOptions no longer defaults to it silently:
// pass it explicitly when you want the paper's setting.
const DefaultSupportPct = 0.1

// Core value types.
type (
	// Item identifies one attribute of the basket data.
	Item = itemset.Item
	// TID identifies one transaction.
	TID = itemset.TID
	// Itemset is a sorted set of items.
	Itemset = itemset.Itemset
	// Transaction is one database row.
	Transaction = db.Transaction
	// Database is a horizontal transaction database.
	Database = db.Database
	// Result is the outcome of a mining run: frequent itemsets with
	// supports.
	Result = mining.Result
	// FrequentItemset pairs an itemset with its support count.
	FrequentItemset = mining.FrequentItemset
	// Rule is an association rule with confidence and lift.
	Rule = rules.Rule
	// GeneratorConfig parameterizes the synthetic data generator.
	GeneratorConfig = gen.Config
	// ClusterConfig describes the simulated cluster (hosts, processors
	// per host, disk/network/CPU cost models).
	ClusterConfig = cluster.Config
	// Report is the virtual-time accounting of a parallel run.
	Report = cluster.Report
	// Breakdown is one processor's resource accounting.
	Breakdown = stats.Breakdown
	// PhaseSpan is one named phase of a mining run with its start offset
	// and duration (see RunInfo.Phases). Spans imported from the cluster
	// simulator carry virtual time and report Virtual() == true.
	PhaseSpan = obsv.PhaseSpan
	// Representation selects the tid-set representation Eclat-family
	// algorithms mine through: ReprAuto (the zero value) decides per
	// equivalence class by pricing its joins under each kernel, from its
	// members' supports and tid span, ReprSparse forces the
	// paper's sorted tid-lists, ReprBitset forces the word-packed dense
	// kernel, ReprRoaring forces the containerized compressed encoding.
	Representation = tidlist.Repr
)

// The tid-set representations (see Representation).
const (
	ReprAuto    = tidlist.ReprAuto
	ReprSparse  = tidlist.ReprSparse
	ReprBitset  = tidlist.ReprBitset
	ReprRoaring = tidlist.ReprRoaring
)

// ParseRepresentation parses a representation name ("auto", "sparse",
// "bitset", "roaring"; "" means auto) — the values the -repr flag and the
// service's representation job field accept. Unknown names fail with an
// error matching ErrInvalidRepresentation.
func ParseRepresentation(s string) (Representation, error) { return tidlist.ParseRepr(s) }

// NewItemset builds a sorted, deduplicated itemset.
func NewItemset(items ...Item) Itemset { return itemset.New(items...) }

// StandardConfig returns the paper's T10.I6 generator family (|T|=10,
// |I|=6, |L|=2000, N=1000) for the given number of transactions.
func StandardConfig(numTransactions int) GeneratorConfig { return gen.T10I6(numTransactions) }

// Generate produces a synthetic database; it is deterministic in
// cfg.Seed.
func Generate(cfg GeneratorConfig) (*Database, error) { return gen.Generate(cfg) }

// ReadFIMI loads a database in the FIMI text format (one transaction per
// line, space-separated integer items) — the de-facto interchange format
// of public association-mining datasets. numItems 0 infers the universe.
func ReadFIMI(r io.Reader, numItems int) (*Database, error) { return db.DecodeFIMI(r, numItems) }

// WriteResult serializes a mining result as line-oriented text
// ("support<TAB>items"); ReadResult parses it back.
func WriteResult(w io.Writer, res *Result) error { return mining.Write(w, res) }

// ReadResult parses a result previously written with WriteResult.
func ReadResult(r io.Reader) (*Result, error) { return mining.Read(r) }

// DefaultCluster returns the paper-calibrated configuration for an
// H-host, P-processors-per-host cluster.
func DefaultCluster(hosts, procsPerHost int) ClusterConfig {
	return cluster.Default(hosts, procsPerHost)
}

// Algorithm selects a mining algorithm.
type Algorithm int

// The available algorithms. AlgoEclat and AlgoApriori run sequentially
// when no cluster is configured; the rest require one.
const (
	AlgoEclat Algorithm = iota
	AlgoApriori
	AlgoCountDistribution
	AlgoDataDistribution
	AlgoCandidateDistribution
	AlgoEclatHybrid
	// AlgoPartition is the two-scan Partition algorithm (Savasere et
	// al.), a sequential related-work baseline.
	AlgoPartition
	// AlgoSampling is Toivonen's exact sampling algorithm, typically one
	// full scan.
	AlgoSampling
	// AlgoDHP is the hash-filtered Apriori of Park, Chen & Yu (the
	// sequential core of the PDM baseline).
	AlgoDHP
)

// algorithmNames are the short names the CLIs and the HTTP API spell the
// algorithms with (index = Algorithm).
var algorithmNames = [...]string{
	AlgoEclat:                 "eclat",
	AlgoApriori:               "apriori",
	AlgoCountDistribution:     "countdist",
	AlgoDataDistribution:      "datadist",
	AlgoCandidateDistribution: "canddist",
	AlgoEclatHybrid:           "hybrid",
	AlgoPartition:             "partition",
	AlgoSampling:              "sampling",
	AlgoDHP:                   "dhp",
}

// ParseAlgorithm parses a short algorithm name in any case ("eclat",
// "apriori", "countdist", "datadist", "canddist", "hybrid", "partition",
// "sampling", "dhp"; "" means AlgoEclat) — the values the -algo flag and
// the service's algorithm job field accept. Unknown names fail with an
// error matching ErrUnknownAlgorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	if s == "" {
		return AlgoEclat, nil
	}
	for a, name := range algorithmNames {
		if strings.ToLower(s) == name {
			return Algorithm(a), nil
		}
	}
	return 0, fmt.Errorf("%w: %q (want eclat, apriori, countdist, datadist, canddist, hybrid, partition, sampling or dhp)", ErrUnknownAlgorithm, s)
}

// String names the algorithm as the paper does.
func (a Algorithm) String() string {
	switch a {
	case AlgoEclat:
		return "Eclat"
	case AlgoApriori:
		return "Apriori"
	case AlgoCountDistribution:
		return "CountDistribution"
	case AlgoDataDistribution:
		return "DataDistribution"
	case AlgoCandidateDistribution:
		return "CandidateDistribution"
	case AlgoEclatHybrid:
		return "EclatHybrid"
	case AlgoPartition:
		return "Partition"
	case AlgoSampling:
		return "Sampling"
	case AlgoDHP:
		return "DHP"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Output selects which itemset collection a mine returns. Every output
// but OutputAll runs the local Eclat search whatever Algorithm says, and
// rejects TopK and MustContain: their adaptive pruning is unsound
// against the filtered output contracts.
type Output int

// The itemset collections a mine can return (see Output).
const (
	// OutputAll returns every frequent itemset.
	OutputAll Output = iota
	// OutputMaximal returns only the maximal frequent itemsets (those
	// with no frequent superset), found with the MaxEclat hybrid
	// lookahead search; their subsets are exactly the full frequent
	// collection.
	OutputMaximal
	// OutputClosed returns only the closed frequent itemsets (those with
	// no strict superset of equal support), the lossless compressed form
	// of the frequent collection.
	OutputClosed
)

// outputNames are the names ParseOutput accepts (index = Output): the
// -maximal/-closed flags' collections and the service's variant field.
var outputNames = [...]string{OutputAll: "all", OutputMaximal: "maximal", OutputClosed: "closed"}

// String names the output as ParseOutput spells it.
func (o Output) String() string {
	if o >= 0 && int(o) < len(outputNames) {
		return outputNames[o]
	}
	return fmt.Sprintf("Output(%d)", int(o))
}

// ParseOutput parses an output name in any case ("all", "maximal",
// "closed"; "" means OutputAll).
func ParseOutput(s string) (Output, error) {
	if s == "" {
		return OutputAll, nil
	}
	for o, name := range outputNames {
		if strings.ToLower(s) == name {
			return Output(o), nil
		}
	}
	return 0, fmt.Errorf("repro: unknown output %q (want all, maximal or closed)", s)
}

// MineOptions configures a mining run.
type MineOptions struct {
	// Algorithm defaults to AlgoEclat.
	Algorithm Algorithm
	// Output selects the itemset collection (see Output); the zero value
	// OutputAll mines every frequent itemset.
	Output Output
	// SupportPct is the minimum support as a percentage of |D| (the
	// paper's experiments use 0.1), at most 100. Ignored when
	// SupportCount is set.
	SupportPct float64
	// SupportCount is the absolute minimum support; overrides SupportPct.
	SupportCount int
	// Hosts and ProcsPerHost select a simulated cluster for the parallel
	// algorithms; both default to 1. Sequential algorithms ignore them,
	// but a shape of more than 64 processors is refused whatever the
	// algorithm (ErrClusterTooLarge).
	Hosts        int
	ProcsPerHost int
	// Cluster overrides the whole cluster configuration (cost models,
	// memory), under the same processor cap; its Hosts and ProcsPerHost
	// have no default and must be at least 1 (ErrInvalidCluster). When
	// nil, DefaultCluster(Hosts, ProcsPerHost) is used.
	Cluster *ClusterConfig
	// PartitionChunks is the number of in-memory chunks AlgoPartition
	// divides the database into (default 10).
	PartitionChunks int
	// SampleSize and SampleSeed drive AlgoSampling (defaults: 10% of the
	// database, seed 0); SampleLowerBy is Toivonen's safety margin in
	// (0, 1] (default 0.8 — lower means fewer misses but more candidates).
	SampleSize    int
	SampleSeed    int64
	SampleLowerBy float64
	// Representation selects the tid-set representation for the
	// Eclat-family algorithms (AlgoEclat, AlgoEclatHybrid, and the
	// maximal/closed outputs); the zero value ReprAuto adapts per
	// equivalence class. It picks only each class's encoding, to which
	// the class converts the members it derives from a source's items;
	// values past ReprRoaring are ErrInvalidRepresentation. Non-Eclat
	// algorithms ignore it.
	Representation Representation
	// Parallelism is the number of OS-level worker goroutines the real
	// (non-simulated) Eclat path mines with on its work-stealing driver:
	// 0 means runtime.GOMAXPROCS(0), N > 0 means N workers. Negative
	// values are rejected with ErrInvalidParallelism. Simulated-cluster
	// algorithms and the other sequential algorithms ignore it (their
	// parallelism is the cluster shape). Because the output is
	// byte-identical at every worker count, Parallelism never changes the
	// result — only how fast it arrives — and is therefore not part of the
	// serving layer's cache identity.
	Parallelism int
	// TopK, when > 0, mines only the k highest-support itemsets (support
	// ties broken lexicographically): the engine's support heap raises the
	// effective threshold adaptively, and the output is byte-identical to
	// a full mine at the same floor truncated to k. When neither
	// SupportPct nor SupportCount is set, a top-k query defaults the floor
	// to support 1 instead of failing. Supported only on the local
	// (non-simulated) Eclat path with OutputAll; other algorithms, cluster
	// shapes and outputs reject it with ErrInvalidTopK.
	TopK int
	// MustContain, when non-empty, restricts the mine to itemsets
	// containing every listed item — a targeted query, equal to
	// post-filtering a full mine but skipping the equivalence classes that
	// cannot produce qualifying sets. Items outside [0, math.MaxInt32]
	// are rejected with ErrInvalidMustContain, as is combining it with
	// anything but the local Eclat path with OutputAll. Composes with
	// TopK (the k best among qualifying sets).
	MustContain []int
	// MemoryBudget, when > 0, caps the bytes of stored bundle data a
	// store-backed vertical mine of any Output keeps resident at once: when the
	// source's mapped size exceeds the budget, the run switches to the
	// out-of-core protocol (bundle-locality class order, per-class
	// residency windows, eviction of dead segments). The output is
	// byte-identical to an unbudgeted mine, so — like Parallelism — the
	// budget is not part of the serving layer's cache identity. Sources
	// without a store mapping, and mines that fit the budget, run in-core
	// unchanged; negative budgets are rejected with
	// ErrInvalidMemoryBudget. It governs the mapping: the items a store
	// source serves packed are heap copies, each no larger than the
	// sparse record it replaces.
	MemoryBudget int64
}

// RunInfo reports how a mining run went.
type RunInfo struct {
	// Algorithm that ran.
	Algorithm Algorithm
	// MinSup is the absolute support threshold used.
	MinSup int
	// Report is the cluster accounting for parallel algorithms (nil for
	// sequential runs).
	Report *Report
	// Scans is the number of database passes (sequential runs).
	Scans int
	// Phases is the structured per-phase span trace of the run: the
	// paper's initialization/transformation/asynchronous/reduction
	// break-up for local Eclat (no transformation when it mined a vertical
	// source), per-candidate-level spans for Apriori, and the simulator's
	// per-phase virtual maxima (marked Virtual) for the cluster
	// algorithms. Wall-clock spans never overlap. cmd/assocmine renders
	// them with -stats.
	Phases []PhaseSpan
	// WallNS is the real (wall-clock) duration of the run in
	// nanoseconds; the wall-clock Phases sum to at most WallNS.
	WallNS int64
	// Parallelism is the number of worker goroutines the run mined with
	// (1 for sequential paths, 0 for simulated-cluster runs, whose scale
	// is in Report).
	Parallelism int
	// Steals counts work-stealing transfers between workers (0 unless
	// Parallelism > 1).
	Steals int64
	// TopK echoes the request's TopK (0 for a full mine).
	TopK int
	// MustContain echoes the request's targeted-query items (nil for an
	// unrestricted mine).
	MustContain []int
	// EffectiveMinSup is the support threshold the run ended at: MinSup,
	// raised by the top-k support heap when TopK was set. 0 for
	// algorithms without the adaptive threshold (everything but the local
	// Eclat path).
	EffectiveMinSup int
	// MemoryBudget echoes the request's residency budget (0 when none),
	// whichever path ran.
	MemoryBudget int64
	// OutOfCore reports whether the run actually mined under the budget:
	// true only when the source was store-backed and its mapped size
	// exceeded MemoryBudget.
	OutOfCore bool
}

// MinSup resolves and validates the absolute minimum support count these
// options imply for d (SupportCount wins over SupportPct). A zero-value
// MineOptions is an error (ErrInvalidSupport) rather than a silent mine
// at an implicit threshold — pass DefaultSupportPct explicitly for the
// paper's setting.
func (o MineOptions) MinSup(d *Database) (int, error) {
	return o.MinSupN(d.Len())
}

// MinSupN is MinSup for callers that know only the transaction count.
// It applies the same validation and the same ceil-based percentage
// conversion as Check, so a percentage and its absolute count resolve
// to one threshold whichever path resolved them.
func (o MineOptions) MinSupN(numTransactions int) (int, error) {
	if err := o.checkSupport(); err != nil {
		return 0, err
	}
	return o.minSup(numTransactions), nil
}

// checkSupport rejects support settings no transaction count can make
// usable.
func (o MineOptions) checkSupport() error {
	switch {
	case o.SupportCount < 0:
		return fmt.Errorf("%w: negative SupportCount %d", ErrInvalidSupport, o.SupportCount)
	case o.SupportPct < 0:
		return fmt.Errorf("%w: negative SupportPct %v", ErrInvalidSupport, o.SupportPct)
	case math.IsNaN(o.SupportPct) || o.SupportPct > 100:
		// Past 100 (or at +Inf) the ceil in minSup overflows int and the
		// clamp would mine at support 1.
		return fmt.Errorf("%w: SupportPct %v outside [0, 100]", ErrInvalidSupport, o.SupportPct)
	case o.SupportCount == 0 && o.SupportPct == 0 && o.TopK <= 0:
		return fmt.Errorf("%w: MineOptions must set SupportPct or SupportCount (the paper's experiments use SupportPct = %v)",
			ErrInvalidSupport, DefaultSupportPct)
	}
	return nil
}

// minSup resolves support settings checkSupport accepted.
func (o MineOptions) minSup(numTransactions int) int {
	switch {
	case o.SupportCount > 0:
		return o.SupportCount
	case o.SupportPct > 0:
		return max(int(math.Ceil(o.SupportPct/100*float64(numTransactions))), 1)
	}
	// A top-k query does not need an explicit floor: the adaptive
	// threshold raises itself as itemsets are found, so default to the
	// weakest floor rather than rejecting the zero-support request.
	return 1
}

// Workers resolves and validates the worker count these options imply for
// the real Eclat path: Parallelism itself when positive,
// runtime.GOMAXPROCS(0) when zero, ErrInvalidParallelism when negative.
func (o MineOptions) Workers() (int, error) {
	if o.Parallelism < 0 {
		return 0, fmt.Errorf("%w: negative Parallelism %d", ErrInvalidParallelism, o.Parallelism)
	}
	if o.Parallelism == 0 {
		return runtime.GOMAXPROCS(0), nil
	}
	return o.Parallelism, nil
}

// localEclat reports whether these options mine on the real
// (non-simulated) local Eclat path: every output but OutputAll does, and
// an all-frequent mine does when it asks for Eclat without a cluster.
func (o MineOptions) localEclat() bool {
	return o.Output != OutputAll || o.Algorithm == AlgoEclat && o.Hosts <= 1 && o.ProcsPerHost <= 1 && o.Cluster == nil
}

// policy maps Output one-to-one onto the engine search that produces it.
func (o MineOptions) policy() eclat.Policy {
	switch o.Output {
	case OutputMaximal:
		return eclat.PolicyMaximal
	case OutputClosed:
		return eclat.PolicyClosed
	}
	return eclat.PolicyAll
}

// checkQuery validates the top-k / targeted-query options. Only the
// all-frequent local Eclat path supports them; anywhere else a non-zero
// TopK or MustContain is a typed error rather than a silent full mine.
func (o MineOptions) checkQuery() error {
	if o.TopK < 0 {
		return fmt.Errorf("%w: negative TopK %d", ErrInvalidTopK, o.TopK)
	}
	if (o.TopK > 0 || len(o.MustContain) > 0) && (o.Output != OutputAll || !o.localEclat()) {
		where := fmt.Sprintf("algorithm %v, output %v, cluster shape %dx%d", o.Algorithm, o.Output, o.Hosts, o.ProcsPerHost)
		if o.TopK > 0 {
			return fmt.Errorf("%w: TopK requires the all-frequent local Eclat path (%s)", ErrInvalidTopK, where)
		}
		return fmt.Errorf("%w: MustContain requires the all-frequent local Eclat path (%s)", ErrInvalidMustContain, where)
	}
	for _, it := range o.MustContain {
		if it < 0 || it > math.MaxInt32 {
			return fmt.Errorf("%w: item %d outside [0, %d]", ErrInvalidMustContain, it, math.MaxInt32)
		}
	}
	return nil
}

// maxClusterProcs caps a simulated cluster at twice the paper's 8×4
// testbed. Every simulated processor runs as a goroutine, and every
// Count Distribution processor holds its own pair-count triangle
// (~1 MiB at N = 1000), so the cap bounds what one request can build.
const maxClusterProcs = 64

// CheckCluster reports ErrClusterTooLarge when the simulated cluster the
// options select — the explicit Cluster, else Hosts × ProcsPerHost —
// has more than 64 processors, and ErrInvalidCluster when an explicit
// Cluster has fewer than one host or one processor per host. Each factor
// is compared with the cap before they are multiplied, so the product
// cannot overflow. MineFrom runs it before building anything, whatever
// the algorithm.
func (o MineOptions) CheckCluster() error {
	h, p := max(o.Hosts, 1), max(o.ProcsPerHost, 1)
	if o.Cluster != nil {
		h, p = o.Cluster.Hosts, o.Cluster.ProcsPerHost
		if h < 1 || p < 1 {
			return fmt.Errorf("%w: %d hosts × %d processors per host", ErrInvalidCluster, h, p)
		}
	}
	if h > maxClusterProcs || p > maxClusterProcs || h*p > maxClusterProcs {
		return fmt.Errorf("%w: %d hosts × %d processors, at most %d processors", ErrClusterTooLarge, h, p, maxClusterProcs)
	}
	return nil
}

func (o MineOptions) clusterConfig() ClusterConfig {
	if o.Cluster != nil {
		return *o.Cluster
	}
	return cluster.Default(max(o.Hosts, 1), max(o.ProcsPerHost, 1))
}

// Check validates the options against src and resolves the absolute
// support threshold a mine of src would use, without mining. It is the
// validation MineFrom runs, so options Check accepts are never refused by
// MineFrom; the serving layer runs it at submission to turn bad jobs away
// before they queue. The checks run in a fixed order — output,
// algorithm and representation, the TopK and MustContain path rules,
// MemoryBudget, the cluster shape, support, Parallelism — and
// src.NumTransactions is read only once all of them have passed, so
// options refused on their own never touch the data.
func (o MineOptions) Check(src Source) (minsup int, err error) {
	if o.Output < OutputAll || o.Output > OutputClosed {
		return 0, fmt.Errorf("repro: unknown output %d", int(o.Output))
	}
	if !o.localEclat() && (o.Algorithm < AlgoEclat || o.Algorithm > AlgoDHP) {
		return 0, fmt.Errorf("%w: %v", ErrUnknownAlgorithm, o.Algorithm)
	}
	if o.Representation > ReprRoaring {
		return 0, fmt.Errorf("%w: %v", ErrInvalidRepresentation, o.Representation)
	}
	if err := o.checkQuery(); err != nil {
		return 0, err
	}
	if o.MemoryBudget < 0 {
		return 0, fmt.Errorf("%w: negative MemoryBudget %d", ErrInvalidMemoryBudget, o.MemoryBudget)
	}
	if err := o.CheckCluster(); err != nil {
		return 0, err
	}
	if err := o.checkSupport(); err != nil {
		return 0, err
	}
	if _, err := o.Workers(); err != nil {
		return 0, err
	}
	return o.minSup(src.NumTransactions()), nil
}

// Metric names of the repro package (reprolint/metricname: obsv metric
// names are package-level constants so the package's whole name set is
// greppable here).
const (
	mnMineRuns        = "mine_runs_total"
	mnMineErrors      = "mine_errors_total"
	mnMineDurationNS  = "mine_duration_ns"
	mnMinePhasePrefix = "mine_phase_"
	mnNSSuffix        = "_ns"
)

// Run-level metrics every mining entry point reports to the default
// observability registry.
var (
	mineRuns     = obsv.Default.Counter(mnMineRuns, "mining runs started through the repro API")
	mineErrors   = obsv.Default.Counter(mnMineErrors, "mining runs that returned an error (including cancellations)")
	mineDuration = obsv.Default.Histogram(mnMineDurationNS, "wall-clock duration of completed mining runs", nil)
)

// Mine discovers the frequent itemsets of d under the given options:
// MineFrom on HorizontalSource(d). All algorithms return identical
// results; they differ in the simulated execution profile captured by
// RunInfo.Report.
func Mine(ctx context.Context, d *Database, opts MineOptions) (*Result, *RunInfo, error) {
	if d == nil {
		return nil, nil, fmt.Errorf("repro: nil database")
	}
	return MineFrom(ctx, HorizontalSource(d), opts)
}

// Source supplies a dataset to MineFrom in whichever layout it exists:
// horizontal transactions, the paper's vertical tid-set transform, or
// both. The persistent store's Dataset and the service registry's
// Dataset both implement it (serving each item in its smallest
// encoding, sparse ones zero-copy from the mmap bundle), and
// HorizontalSource/VerticalSource adapt in-memory data.
type Source interface {
	// NumTransactions is |D|, needed to resolve percentage supports
	// without materializing either layout.
	NumTransactions() int
	// Horizontal materializes the horizontal transaction database.
	Horizontal() (*Database, error)
	// VerticalSets returns one immutable tid-set per item (index = item
	// id, nil entries are absent items), each in the encoding the source
	// holds it in, and ok=true when the source can serve that view
	// without a horizontal scan. ok=false routes MineFrom to the
	// horizontal path.
	VerticalSets() ([]tidlist.Set, bool)
}

// horizontalSource adapts an in-memory horizontal database as a Source
// with no vertical view.
type horizontalSource struct{ d *Database }

func (s horizontalSource) NumTransactions() int                { return s.d.Len() }
func (s horizontalSource) Horizontal() (*Database, error)      { return s.d, nil }
func (s horizontalSource) VerticalSets() ([]tidlist.Set, bool) { return nil, false }

// HorizontalSource adapts a horizontal database as a Source. MineFrom on
// it behaves exactly like Mine.
func HorizontalSource(d *Database) Source { return horizontalSource{d: d} }

// verticalSource adapts already-vertical in-memory data as a Source with
// no horizontal form.
type verticalSource struct {
	numTx int
	items []tidlist.Set
}

func (s verticalSource) NumTransactions() int { return s.numTx }
func (s verticalSource) Horizontal() (*Database, error) {
	return nil, fmt.Errorf("repro: vertical source has no horizontal form")
}
func (s verticalSource) VerticalSets() ([]tidlist.Set, bool) { return s.items, true }

// VerticalSource adapts a dataset already in the paper's vertical layout
// — one immutable tid-set per item (index = item id) plus the
// transaction count — as a Source with no horizontal form. The sets are
// treated as immutable operands throughout: a mapped view is never
// written.
func VerticalSource(numTransactions int, items []tidlist.Set) Source {
	return verticalSource{numTx: numTransactions, items: items}
}

// MineFrom is the one mining pipeline every entry point runs through.
// It validates the options, resolves the support threshold and worker
// count, starts the trace, mines, records the run metrics and builds
// the RunInfo. The local Eclat path (see Output) mines straight from the
// source's per-item tid-sets when it serves them, with zero horizontal
// scans (RunInfo.Scans is 0) and, for a store mapping larger than
// MemoryBudget, out of core; otherwise the source's horizontal database
// is mined. Either way the result is byte-identical, so callers need not
// branch on input shape and the serving layer's cache identity is
// unchanged.
//
// ctx provides cooperative cancellation: the local Eclat and Apriori
// paths consult it between equivalence classes and candidate levels
// respectively, so a cancel or deadline stops the mine promptly without
// per-intersection overhead. The remaining algorithms check ctx before
// starting and after finishing (a simulated cluster run is one
// indivisible step of virtual time). On cancellation it returns
// (nil, nil, err) with err matching both ErrCanceled and the ctx error.
//
// When ctx carries no observability trace, MineFrom starts one; either
// way the run's phase spans are returned in RunInfo.Phases and phase
// durations are observed into the process metrics registry.
func MineFrom(ctx context.Context, src Source, opts MineOptions) (*Result, *RunInfo, error) {
	if src == nil {
		return nil, nil, fmt.Errorf("repro: nil source")
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, wrapCanceled(err)
	}
	minsup, err := opts.Check(src)
	if err != nil {
		return nil, nil, err
	}
	in := eclat.VerticalInput{NumTransactions: src.NumTransactions()}
	vertical := false
	if opts.localEclat() {
		in.Items, vertical = src.VerticalSets()
	}
	var d *Database
	if !vertical {
		if d, err = src.Horizontal(); err != nil {
			return nil, nil, err
		}
	}

	tr := obsv.TraceFrom(ctx)
	if tr == nil {
		tr = obsv.NewTrace()
		ctx = obsv.WithTrace(ctx, tr)
	}
	mineRuns.Inc()
	start := time.Now()
	pre := len(tr.Spans())
	info := &RunInfo{
		Algorithm:    opts.Algorithm,
		MinSup:       minsup,
		TopK:         opts.TopK,
		MustContain:  append([]int(nil), opts.MustContain...),
		MemoryBudget: opts.MemoryBudget,
	}
	var res *Result
	if opts.localEclat() {
		var must []itemset.Item
		for _, it := range opts.MustContain {
			must = append(must, itemset.Item(it))
		}
		eopts := eclat.Options{Representation: opts.Representation, Policy: opts.policy(), Workers: opts.Parallelism,
			TopK: opts.TopK, MustContain: must}
		if vertical {
			in.Residency = residency(src, opts.MemoryBudget)
			info.OutOfCore = in.Residency != nil
			if ps, ok := src.(pairMemoSource); ok {
				in.Pairs = ps.PairMemo()
			}
		}
		res, err = mineLocal(ctx, in, d, minsup, eopts, info)
	} else {
		res, err = mine(ctx, d, opts, minsup, info)
	}
	if err != nil {
		mineErrors.Inc()
		return nil, nil, err
	}
	info.WallNS = time.Since(start).Nanoseconds()
	if spans := tr.Spans(); pre <= len(spans) {
		info.Phases = spans[pre:]
	}
	mineDuration.Observe(info.WallNS)
	observePhases(info.Phases)
	return res, info, nil
}

// mineLocal runs the local Eclat engine — on in's vertical sets when d
// is nil, else on d — and fills the engine's figures into info.
func mineLocal(ctx context.Context, in eclat.VerticalInput, d *Database, minsup int, eopts eclat.Options, info *RunInfo) (*Result, error) {
	var res *Result
	var st eclat.Stats
	var err error
	if d == nil {
		res, st, err = eclat.MineVerticalLocal(ctx, in, minsup, eopts)
	} else {
		res, st, err = eclat.MineParallelLocal(ctx, d, minsup, eopts)
	}
	if err != nil {
		return nil, wrapIfCtxErr(err)
	}
	info.Algorithm = AlgoEclat
	info.Scans = st.Scans
	info.Parallelism = st.Workers
	info.Steals = st.Steals
	info.EffectiveMinSup = st.EffectiveMinSup
	return res, nil
}

// residencySource is the optional Source extension the out-of-core path
// keys on: a source whose vertical sets are views over a store mapping
// can report the mapping's size and mint a residency tracker for it. The
// method returns the concrete store type (not an interface) so a nil
// result is an honest "no budgeting possible" signal.
type residencySource interface {
	BytesMapped() int64
	NewResidency(budget int64) *store.Residency
}

// pairMemoSource is the optional Source extension the L2 memo keys on:
// a source whose data never changes can keep its frequent pairs across
// mines, so a mine at or above the memo's floor filters L2 from it
// instead of counting the triangle. Like residencySource it returns the
// concrete type; nil means no memo.
type pairMemoSource interface {
	PairMemo() *paircount.Memo
}

// residency returns the out-of-core tracker for mining src's vertical
// sets under budget, or nil when the mine runs in-core: no budget, a
// source without a store mapping, or a mapping that fits.
func residency(src Source, budget int64) eclat.Residency {
	if budget <= 0 {
		return nil
	}
	if rs, ok := src.(residencySource); ok && rs.BytesMapped() > budget {
		if r := rs.NewResidency(budget); r != nil {
			return r
		}
	}
	return nil
}

// observePhases records wall-clock phase durations into per-phase
// histograms (virtual spans are the cluster simulator's and are observed
// there instead).
func observePhases(spans []PhaseSpan) {
	for _, sp := range spans {
		if sp.Virtual() {
			continue
		}
		obsv.Default.Histogram(mnMinePhasePrefix+obsv.SanitizeName(sp.Name)+mnNSSuffix,
			"wall-clock duration of the "+sp.Name+" mining phase", nil).Observe(sp.DurationNS)
	}
}

// wrapCanceled folds a context error into ErrCanceled so callers can
// test either sentinel.
func wrapCanceled(err error) error {
	return fmt.Errorf("%w: %w", ErrCanceled, err)
}

// wrapIfCtxErr wraps errors that came from context cancellation and
// leaves everything else alone.
func wrapIfCtxErr(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return wrapCanceled(err)
	}
	return err
}

// mine dispatches to the selected algorithm.
func mine(ctx context.Context, d *Database, opts MineOptions, minsup int, info *RunInfo) (*Result, error) {
	switch opts.Algorithm {
	case AlgoEclat:
		// Local Eclat runs through mineLocal; only cluster shapes get here.
		return simulated(ctx, info, func(cl *cluster.Cluster) (*Result, cluster.Report) {
			return eclat.MineOpts(cl, d, minsup, eclat.Options{Representation: opts.Representation})
		}, opts)
	case AlgoApriori:
		res, st, err := apriori.Mine(ctx, d, minsup)
		if err != nil {
			return nil, wrapIfCtxErr(err)
		}
		info.Scans = st.Scans
		return res, nil
	case AlgoCountDistribution:
		return simulated(ctx, info, func(cl *cluster.Cluster) (*Result, cluster.Report) {
			return countdist.Mine(cl, d, minsup)
		}, opts)
	case AlgoDataDistribution:
		return simulated(ctx, info, func(cl *cluster.Cluster) (*Result, cluster.Report) {
			return datadist.Mine(cl, d, minsup)
		}, opts)
	case AlgoCandidateDistribution:
		return simulated(ctx, info, func(cl *cluster.Cluster) (*Result, cluster.Report) {
			return canddist.Mine(cl, d, minsup)
		}, opts)
	case AlgoEclatHybrid:
		return simulated(ctx, info, func(cl *cluster.Cluster) (*Result, cluster.Report) {
			return eclat.MineHybridOpts(cl, d, minsup, eclat.Options{Representation: opts.Representation})
		}, opts)
	case AlgoPartition:
		chunks := opts.PartitionChunks
		if chunks <= 0 {
			chunks = 10
		}
		res, st := partition.Mine(d, minsup, chunks)
		info.Scans = st.Scans
		return finishIndivisible(ctx, res)
	case AlgoSampling:
		res, st := sampling.Mine(d, minsup, sampling.Options{
			SampleSize: opts.SampleSize,
			Seed:       opts.SampleSeed,
			LowerBy:    opts.SampleLowerBy,
		})
		info.Scans = st.FullScans
		return finishIndivisible(ctx, res)
	case AlgoDHP:
		res, st := dhp.Mine(d, minsup, dhp.Options{})
		info.Scans = st.Scans
		return finishIndivisible(ctx, res)
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnknownAlgorithm, opts.Algorithm)
	}
}

// simulated runs one cluster-backed algorithm: the whole simulation is a
// single "simulate" wall-clock span, and the report's per-phase virtual
// maxima (the paper's Table 2 rows) are imported into the trace as
// virtual spans.
func simulated(ctx context.Context, info *RunInfo, run func(*cluster.Cluster) (*Result, cluster.Report), opts MineOptions) (*Result, error) {
	tr := obsv.TraceFrom(ctx)
	sp := tr.Start("simulate")
	res, rep := run(cluster.New(opts.clusterConfig()))
	sp.End()
	info.Report = &rep
	for _, pm := range rep.PhaseMaxima() {
		tr.AddVirtual(pm.Name, pm.NS)
	}
	res2, err := finishIndivisible(ctx, res)
	return res2, err
}

// finishIndivisible closes out an algorithm path without mid-run ctx
// checks: if ctx expired while the run was in flight, the caller asked
// for cancellation and gets the cancellation error rather than a result.
func finishIndivisible(ctx context.Context, res *Result) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapCanceled(err)
	}
	return res, nil
}

// MineMaximal is Mine with Output set to OutputMaximal: only the maximal
// frequent itemsets, from the MaxEclat hybrid lookahead search.
func MineMaximal(ctx context.Context, d *Database, opts MineOptions) (*Result, *RunInfo, error) {
	opts.Output = OutputMaximal
	return Mine(ctx, d, opts)
}

// MineClosed is Mine with Output set to OutputClosed: only the closed
// frequent itemsets, the lossless compressed form of the collection.
func MineClosed(ctx context.Context, d *Database, opts MineOptions) (*Result, *RunInfo, error) {
	opts.Output = OutputClosed
	return Mine(ctx, d, opts)
}

// Rules derives all association rules with confidence >= minConf from a
// mined result.
func Rules(res *Result, minConf float64) []Rule { return rules.Generate(res, minConf) }

// TopRules returns the n strongest rules (by confidence, then support).
func TopRules(rs []Rule, n int) []Rule { return rules.TopN(rs, n) }
