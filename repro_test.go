package repro

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/tidlist"
)

func smallDB(t testing.TB) *Database {
	t.Helper()
	d, err := Generate(StandardConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateAndMineDefaults(t *testing.T) {
	d := smallDB(t)
	res, info, err := Mine(context.Background(), d, MineOptions{SupportPct: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("expected frequent itemsets at 1% support")
	}
	if info.Algorithm != AlgoEclat || info.Scans != 2 {
		t.Fatalf("info = %+v", info)
	}
	if info.MinSup != 10 {
		t.Fatalf("1%% of 1000 should be 10, got %d", info.MinSup)
	}
}

func TestAllAlgorithmsAgree(t *testing.T) {
	d := smallDB(t)
	opts := MineOptions{SupportPct: 2.0}
	want, _, err := Mine(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	algos := []Algorithm{AlgoApriori, AlgoCountDistribution, AlgoDataDistribution,
		AlgoCandidateDistribution, AlgoEclatHybrid}
	for _, a := range algos {
		got, info, err := Mine(context.Background(), d, MineOptions{Algorithm: a, SupportPct: 2.0, Hosts: 2, ProcsPerHost: 2})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("%v disagrees: %d vs %d itemsets", a, got.Len(), want.Len())
		}
		if a != AlgoApriori && info.Report == nil {
			t.Fatalf("%v should produce a cluster report", a)
		}
	}
}

func TestParallelEclatViaOptions(t *testing.T) {
	d := smallDB(t)
	res, info, err := Mine(context.Background(), d, MineOptions{SupportPct: 1.0, Hosts: 4, ProcsPerHost: 2})
	if err != nil {
		t.Fatal(err)
	}
	if info.Report == nil || info.Report.Config.Hosts != 4 {
		t.Fatalf("expected a 4-host report, got %+v", info.Report)
	}
	if res.Len() == 0 {
		t.Fatal("no itemsets")
	}
}

func TestSupportCountOverridesPct(t *testing.T) {
	d := smallDB(t)
	_, info, err := Mine(context.Background(), d, MineOptions{SupportPct: 1.0, SupportCount: 42})
	if err != nil {
		t.Fatal(err)
	}
	if info.MinSup != 42 {
		t.Fatalf("MinSup = %d, want 42", info.MinSup)
	}
}

func TestZeroValueOptionsRejected(t *testing.T) {
	// A zero-value MineOptions used to silently mine at the paper's 0.1%
	// default; it now fails loudly, pointing the caller at the explicit
	// fields (DefaultSupportPct documents the paper's threshold).
	d := smallDB(t)
	_, info, err := Mine(context.Background(), d, MineOptions{})
	if !errors.Is(err, ErrInvalidSupport) {
		t.Fatalf("err = %v, want ErrInvalidSupport", err)
	}
	if info != nil {
		t.Fatal("expected nil info on invalid options")
	}
	if !strings.Contains(err.Error(), "SupportPct") {
		t.Fatalf("error should name the fields to set, got %q", err)
	}
	if DefaultSupportPct != 0.1 {
		t.Fatalf("DefaultSupportPct = %v, want the paper's 0.1", DefaultSupportPct)
	}
	// 0.1% of 10000 transactions = 10: the documented default still
	// resolves to the paper's threshold when passed explicitly.
	big, err := Generate(StandardConfig(10000))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := (MineOptions{SupportPct: DefaultSupportPct}).MinSup(big); err != nil || got != 10 {
		t.Fatalf("MinSup = %d, %v; want 10, nil", got, err)
	}
}

func TestInvalidSupportRejected(t *testing.T) {
	d := smallDB(t)
	for _, opts := range []MineOptions{
		{SupportPct: -1},
		{SupportCount: -5},
	} {
		if _, _, err := Mine(context.Background(), d, opts); !errors.Is(err, ErrInvalidSupport) {
			t.Fatalf("%+v: err = %v, want ErrInvalidSupport", opts, err)
		}
	}
}

// TestSupportPctOutOfRangeRejected pins the percentages that used to mine
// at support 1: past 100 (or at +Inf) the ceil-based conversion
// overflowed int and the clamp raised it to 1. 100 itself is |D|.
func TestSupportPctOutOfRangeRejected(t *testing.T) {
	d := smallDB(t)
	for _, pct := range []float64{math.Inf(1), 1e300, math.NaN(), 100.5, math.Inf(-1)} {
		for _, opts := range []MineOptions{{SupportPct: pct}, {SupportPct: pct, TopK: 5}} {
			if got, err := opts.MinSupN(20000); !errors.Is(err, ErrInvalidSupport) {
				t.Fatalf("%+v: MinSupN(20000) = %d, %v; want ErrInvalidSupport", opts, got, err)
			}
			if _, _, err := Mine(context.Background(), d, opts); !errors.Is(err, ErrInvalidSupport) {
				t.Fatalf("%+v: Mine err = %v, want ErrInvalidSupport", opts, err)
			}
		}
	}
	if got, err := (MineOptions{SupportPct: 100}).MinSupN(20000); err != nil || got != 20000 {
		t.Fatalf("MinSupN(20000) at 100%% = %d, %v; want 20000, nil", got, err)
	}
	_, info, err := Mine(context.Background(), d, MineOptions{SupportPct: 100})
	if err != nil || info.MinSup != d.Len() {
		t.Fatalf("Mine at 100%%: info %+v, err %v; want MinSup %d", info, err, d.Len())
	}
}

// refusingSource fails the test if MineFrom reads it: options refused
// up front must not touch the data.
type refusingSource struct{ t *testing.T }

func (s refusingSource) NumTransactions() int {
	s.t.Fatal("refused options read the source")
	return 0
}

func (s refusingSource) Horizontal() (*Database, error) {
	s.t.Fatal("refused options read the source")
	return nil, nil
}

func (s refusingSource) VerticalSets() ([]tidlist.Set, bool) {
	s.t.Fatal("refused options read the source")
	return nil, false
}

// TestClusterTooLargeRejected pins the simulated cluster's cap: a shape
// of more than 64 processors, from Hosts × ProcsPerHost or an explicit
// Cluster, is ErrClusterTooLarge before MineFrom reads its source or
// builds a processor, whatever the algorithm; factors whose product
// would overflow are refused too, and 8×8 is admitted.
func TestClusterTooLargeRejected(t *testing.T) {
	big := DefaultCluster(65, 1)
	for _, opts := range []MineOptions{
		{Algorithm: AlgoCountDistribution, Hosts: 9, ProcsPerHost: 8},
		{Algorithm: AlgoEclatHybrid, Hosts: 65},
		{Algorithm: AlgoCountDistribution, ProcsPerHost: 1 << 20},
		{Algorithm: AlgoApriori, Hosts: math.MaxInt, ProcsPerHost: math.MaxInt},
		{Algorithm: AlgoDataDistribution, Cluster: &big},
	} {
		opts.SupportPct = 1
		if err := opts.CheckCluster(); !errors.Is(err, ErrClusterTooLarge) {
			t.Fatalf("%+v: CheckCluster = %v, want ErrClusterTooLarge", opts, err)
		}
		if _, _, err := MineFrom(context.Background(), refusingSource{t}, opts); !errors.Is(err, ErrClusterTooLarge) {
			t.Fatalf("%+v: MineFrom err = %v, want ErrClusterTooLarge", opts, err)
		}
	}
	if err := (MineOptions{Hosts: 8, ProcsPerHost: 8}).CheckCluster(); err != nil {
		t.Fatalf("8x8: %v, want admitted", err)
	}
}

// TestInvalidClusterRejected: an explicit Cluster has no default shape,
// so one with no host or no processor per host is ErrInvalidCluster
// before MineFrom reads its source or builds a processor, under a
// parallel and a sequential algorithm alike.
func TestInvalidClusterRejected(t *testing.T) {
	for _, algo := range []Algorithm{AlgoCountDistribution, AlgoEclat} {
		for _, cfg := range []ClusterConfig{{}, {Hosts: 2}} {
			opts := MineOptions{Algorithm: algo, SupportPct: 1, Cluster: &cfg}
			if err := opts.CheckCluster(); !errors.Is(err, ErrInvalidCluster) {
				t.Fatalf("%v, %d×%d: CheckCluster = %v, want ErrInvalidCluster", algo, cfg.Hosts, cfg.ProcsPerHost, err)
			}
			if _, _, err := MineFrom(context.Background(), refusingSource{t}, opts); !errors.Is(err, ErrInvalidCluster) {
				t.Fatalf("%v, %d×%d: MineFrom err = %v, want ErrInvalidCluster", algo, cfg.Hosts, cfg.ProcsPerHost, err)
			}
		}
	}
}

// TestCheck pins the one validation MineFrom and the serving layer share:
// for every sentinel MineFrom returns for its options, Check returns the
// same one, and neither reads the source to refuse options that are
// unusable whatever the data. (ErrCanceled comes from the context, not
// the options.) Accepted options resolve to the minsup MineFrom mines at.
func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		opts MineOptions
		want error
	}{
		{MineOptions{}, ErrInvalidSupport},
		{MineOptions{SupportPct: -1}, ErrInvalidSupport},
		{MineOptions{SupportCount: -5}, ErrInvalidSupport},
		{MineOptions{SupportPct: math.NaN()}, ErrInvalidSupport},
		{MineOptions{SupportPct: 100.5, TopK: 5}, ErrInvalidSupport},
		{MineOptions{SupportPct: 1, Algorithm: AlgoDHP + 1}, ErrUnknownAlgorithm},
		{MineOptions{SupportPct: 1, Representation: ReprRoaring + 1}, ErrInvalidRepresentation},
		{MineOptions{SupportPct: 1, Parallelism: -1}, ErrInvalidParallelism},
		{MineOptions{TopK: -1}, ErrInvalidTopK},
		{MineOptions{SupportPct: 1, TopK: 5, Output: OutputMaximal}, ErrInvalidTopK},
		{MineOptions{SupportPct: 1, TopK: 5, Algorithm: AlgoApriori}, ErrInvalidTopK},
		{MineOptions{SupportPct: 1, MustContain: []int{2, -1}}, ErrInvalidMustContain},
		{MineOptions{SupportPct: 1, MustContain: []int{2}, Hosts: 2}, ErrInvalidMustContain},
		{MineOptions{SupportPct: 1, MemoryBudget: -1}, ErrInvalidMemoryBudget},
		{MineOptions{SupportPct: 1, Algorithm: AlgoCountDistribution, Hosts: 9, ProcsPerHost: 8}, ErrClusterTooLarge},
		{MineOptions{SupportPct: 1, Cluster: &ClusterConfig{Hosts: 2}}, ErrInvalidCluster},
	} {
		if _, err := tc.opts.Check(refusingSource{t}); !errors.Is(err, tc.want) {
			t.Fatalf("%+v: Check = %v, want %v", tc.opts, err, tc.want)
		}
		if _, _, err := MineFrom(context.Background(), refusingSource{t}, tc.opts); !errors.Is(err, tc.want) {
			t.Fatalf("%+v: MineFrom = %v, want %v", tc.opts, err, tc.want)
		}
	}
	if _, err := (MineOptions{SupportPct: 1, Output: OutputClosed + 1}).Check(refusingSource{t}); err == nil {
		t.Fatal("Check accepted an unknown output")
	}

	d := smallDB(t)
	for _, opts := range []MineOptions{{SupportPct: 0.75}, {SupportCount: 12, Output: OutputClosed}, {TopK: 10}} {
		minsup, err := opts.Check(HorizontalSource(d))
		if err != nil {
			t.Fatal(err)
		}
		_, info, err := MineFrom(context.Background(), HorizontalSource(d), opts)
		if err != nil || info.MinSup != minsup {
			t.Fatalf("%+v: Check resolves minsup %d, MineFrom mined at %d (%v)", opts, minsup, info.MinSup, err)
		}
	}
}

// TestParseAlgorithm: the nine short names parse in any case, "" is
// Eclat, and anything else is ErrUnknownAlgorithm.
func TestParseAlgorithm(t *testing.T) {
	for name, want := range map[string]Algorithm{
		"eclat": AlgoEclat, "apriori": AlgoApriori, "countdist": AlgoCountDistribution,
		"datadist": AlgoDataDistribution, "canddist": AlgoCandidateDistribution, "hybrid": AlgoEclatHybrid,
		"partition": AlgoPartition, "sampling": AlgoSampling, "dhp": AlgoDHP,
	} {
		for _, s := range []string{name, strings.ToUpper(name), strings.ToUpper(name[:1]) + name[1:]} {
			if got, err := ParseAlgorithm(s); err != nil || got != want {
				t.Fatalf("ParseAlgorithm(%q) = %v, %v; want %v", s, got, err, want)
			}
		}
	}
	if got, err := ParseAlgorithm(""); err != nil || got != AlgoEclat {
		t.Fatalf(`ParseAlgorithm("") = %v, %v; want Eclat`, got, err)
	}
	for _, s := range []string{"nope", "Eclat ", "count-dist", "CountDistribution"} {
		if _, err := ParseAlgorithm(s); !errors.Is(err, ErrUnknownAlgorithm) {
			t.Fatalf("ParseAlgorithm(%q) = %v, want ErrUnknownAlgorithm", s, err)
		}
	}
}

// TestParseOutput: every output round-trips through its name, in any
// case, and "" is OutputAll.
func TestParseOutput(t *testing.T) {
	for _, o := range []Output{OutputAll, OutputMaximal, OutputClosed} {
		for _, s := range []string{o.String(), strings.ToUpper(o.String())} {
			if got, err := ParseOutput(s); err != nil || got != o {
				t.Fatalf("ParseOutput(%q) = %v, %v; want %v", s, got, err, o)
			}
		}
	}
	if OutputAll.String() != "all" || OutputMaximal.String() != "maximal" || OutputClosed.String() != "closed" {
		t.Fatalf("output names %v, %v, %v; want all, maximal, closed", OutputAll, OutputMaximal, OutputClosed)
	}
	if got, err := ParseOutput(""); err != nil || got != OutputAll {
		t.Fatalf(`ParseOutput("") = %v, %v; want all`, got, err)
	}
	if _, err := ParseOutput("max"); err == nil {
		t.Fatal(`ParseOutput("max") succeeded`)
	}
}

func TestRulesEndToEnd(t *testing.T) {
	d := smallDB(t)
	res, _, err := Mine(context.Background(), d, MineOptions{SupportPct: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rs := Rules(res, 0.8)
	for _, r := range rs {
		if r.Confidence < 0.8 {
			t.Fatalf("rule below threshold: %v", r)
		}
	}
	top := TopRules(rs, 5)
	if len(top) > 5 {
		t.Fatal("TopRules did not truncate")
	}
}

func TestRelatedWorkAlgorithmsAgree(t *testing.T) {
	d := smallDB(t)
	want, _, err := Mine(context.Background(), d, MineOptions{SupportPct: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Algorithm{AlgoPartition, AlgoSampling, AlgoDHP} {
		got, info, err := Mine(context.Background(), d, MineOptions{Algorithm: a, SupportPct: 2.0, PartitionChunks: 4, SampleSize: 300})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("%v disagrees: %d vs %d", a, got.Len(), want.Len())
		}
		if info.Scans < 1 {
			t.Fatalf("%v: scans = %d", a, info.Scans)
		}
	}
	if AlgoPartition.String() != "Partition" || AlgoSampling.String() != "Sampling" || AlgoDHP.String() != "DHP" {
		t.Fatal("algorithm names wrong")
	}
}

func TestMineMaximalFacade(t *testing.T) {
	d := smallDB(t)
	// 0.5% support is deep enough that multi-item sets exist and subsume
	// their subsets.
	full, _, err := Mine(context.Background(), d, MineOptions{SupportPct: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	maximal, _, err := MineMaximal(context.Background(), d, MineOptions{SupportPct: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if maximal.Len() == 0 || maximal.Len() >= full.Len() {
		t.Fatalf("maximal (%d) should be a nonempty strict reduction of full (%d)",
			maximal.Len(), full.Len())
	}
	if _, _, err := MineMaximal(context.Background(), nil, MineOptions{}); err == nil {
		t.Fatal("nil database should error")
	}
	closed, _, err := MineClosed(context.Background(), d, MineOptions{SupportPct: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if closed.Len() < maximal.Len() || closed.Len() > full.Len() {
		t.Fatalf("|closed|=%d must sit between |maximal|=%d and |full|=%d",
			closed.Len(), maximal.Len(), full.Len())
	}
	if _, _, err := MineClosed(context.Background(), nil, MineOptions{}); err == nil {
		t.Fatal("nil database should error")
	}
}

func TestMineNilDatabase(t *testing.T) {
	if _, _, err := Mine(context.Background(), nil, MineOptions{}); err == nil {
		t.Fatal("nil database should error")
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	d := smallDB(t)
	_, _, err := Mine(context.Background(), d, MineOptions{Algorithm: Algorithm(99), SupportPct: 1.0})
	if !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("err = %v, want ErrUnknownAlgorithm", err)
	}
	if Algorithm(99).String() == "" {
		t.Fatal("String should render unknowns")
	}
}

func TestAlgorithmNames(t *testing.T) {
	names := map[Algorithm]string{
		AlgoEclat:                 "Eclat",
		AlgoApriori:               "Apriori",
		AlgoCountDistribution:     "CountDistribution",
		AlgoDataDistribution:      "DataDistribution",
		AlgoCandidateDistribution: "CandidateDistribution",
		AlgoEclatHybrid:           "EclatHybrid",
	}
	for a, want := range names {
		if a.String() != want {
			t.Fatalf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
}
