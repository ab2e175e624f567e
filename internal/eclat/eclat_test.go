package eclat

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/apriori"
	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/testutil"
)

// allPolicies lists every engine search, in declaration order.
var allPolicies = []Policy{PolicyAll, PolicyMaximal, PolicyClosed}

// mineSeq mines d on one worker under the all-frequent policy — the
// sequential baseline the equivalence tests compare against.
func mineSeq(t testing.TB, d *db.Database, minsup int) (*mining.Result, Stats) {
	t.Helper()
	res, st, err := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res, st
}

func TestSequentialTinyKnownAnswer(t *testing.T) {
	d := &db.Database{NumItems: 4, Transactions: []db.Transaction{
		{TID: 0, Items: itemset.New(0, 1, 2)},
		{TID: 1, Items: itemset.New(0, 1, 2)},
		{TID: 2, Items: itemset.New(0, 1, 3)},
		{TID: 3, Items: itemset.New(0, 2)},
	}}
	res, st := mineSeq(t, d, 2)
	m := res.SupportMap()
	if m[itemset.New(0, 1, 2).Key()] != 2 {
		t.Fatalf("sup({0,1,2}) = %d, want 2", m[itemset.New(0, 1, 2).Key()])
	}
	if m[itemset.New(0, 1).Key()] != 3 || m[itemset.New(0, 2).Key()] != 3 {
		t.Fatalf("2-itemset supports wrong: %v", m)
	}
	if st.Scans != 2 {
		t.Fatalf("sequential Eclat should scan twice, got %d", st.Scans)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		d := testutil.RandomDB(rng, 60, 12, 6)
		for _, minsup := range []int{1, 2, 3, 5, 10} {
			got, _ := mineSeq(t, d, minsup)
			want := testutil.BruteForce(d, minsup)
			if !mining.Equal(got, want) {
				t.Fatalf("trial %d minsup %d:\n%s", trial, minsup, mining.Diff(got, want))
			}
		}
	}
}

func TestSequentialMatchesApriori(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(1500))
	minsup := d.MinSupCount(1.0)
	ecl, _ := mineSeq(t, d, minsup)
	apr, _, _ := apriori.Mine(context.Background(), d, minsup)
	if !mining.Equal(ecl, apr) {
		t.Fatalf("Eclat and Apriori disagree on %s:\n%s", gen.T10I6(1500).Name(), mining.Diff(ecl, apr))
	}
	if ecl.Len() == 0 {
		t.Fatal("expected some frequent itemsets at 1% support")
	}
}

func TestShortCircuitCountersAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	d := testutil.RandomDB(rng, 200, 15, 8)
	_, st := mineSeq(t, d, 20)
	if st.Intersections == 0 {
		t.Skip("no intersections at this support; adjust test data")
	}
	if st.IntersectOps == 0 {
		t.Fatal("IntersectOps should be positive when intersections happen")
	}
}

func TestParallelMatchesSequentialAcrossConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := testutil.RandomDB(rng, 300, 14, 7)
	minsup := 6
	want, _ := mineSeq(t, d, minsup)
	configs := [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {4, 2}, {1, 8}, {3, 3}}
	for _, hp := range configs {
		cl := cluster.New(cluster.Default(hp[0], hp[1]))
		got, rep := MineOpts(cl, d, minsup, Options{})
		if !mining.Equal(got, want) {
			t.Fatalf("H=%d P=%d: parallel result differs:\n%s", hp[0], hp[1], mining.Diff(got, want))
		}
		if rep.ElapsedNS <= 0 {
			t.Fatalf("H=%d P=%d: elapsed %d", hp[0], hp[1], rep.ElapsedNS)
		}
		if err := got.Verify(); err != nil {
			t.Fatalf("H=%d P=%d: %v", hp[0], hp[1], err)
		}
	}
}

func TestParallelThreeLocalScans(t *testing.T) {
	// "the algorithm scans the local database partition only three times":
	// two horizontal scans plus reading the inverted lists back.
	d := gen.MustGenerate(gen.T10I6(800))
	cl := cluster.New(cluster.Default(2, 2))
	_, rep := MineOpts(cl, d, d.MinSupCount(1.0), Options{})
	for i, st := range rep.PerProc {
		if st.Scans != 3 {
			t.Fatalf("proc %d performed %d scans, want 3", i, st.Scans)
		}
	}
}

func TestParallelNoBarriersInAsyncPhase(t *testing.T) {
	// The barrier count must be a fixed constant of the SPMD program,
	// independent of how deep the mining recursion goes — Eclat
	// synchronizes only during set-up and the final reduction.
	d := gen.MustGenerate(gen.T10I6(800))
	cl1 := cluster.New(cluster.Default(2, 2))
	MineOpts(cl1, d, d.MinSupCount(2.0), Options{}) // shallow mining
	cl2 := cluster.New(cluster.Default(2, 2))
	MineOpts(cl2, d, d.MinSupCount(0.5), Options{}) // much deeper mining
	b1 := cl1.Report().PerProc[0].Barriers
	b2 := cl2.Report().PerProc[0].Barriers
	if b1 != b2 {
		t.Fatalf("barrier count depends on mining depth (%d vs %d); asynchronous phase must not synchronize", b1, b2)
	}
}

func TestParallelDeterministicVirtualTime(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(600))
	run := func() int64 {
		cl := cluster.New(cluster.Default(2, 2))
		_, rep := MineOpts(cl, d, d.MinSupCount(1.0), Options{})
		return rep.ElapsedNS
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("virtual time nondeterministic: %d vs %d", a, b)
	}
}

func TestParallelPhaseBreakdownPresent(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(600))
	cl := cluster.New(cluster.Default(2, 2))
	_, rep := MineOpts(cl, d, d.MinSupCount(1.0), Options{})
	for _, ph := range []string{PhaseInit, PhaseTransform, PhaseAsync, PhaseReduce} {
		if rep.PhaseMaxNS(ph) <= 0 {
			t.Fatalf("phase %q has no time recorded", ph)
		}
	}
	setup := rep.PhaseMaxNS(PhaseInit) + rep.PhaseMaxNS(PhaseTransform)
	if setup >= rep.ElapsedNS {
		t.Fatalf("setup (%d) should be below total (%d)", setup, rep.ElapsedNS)
	}
}

func TestParallelEmptyDatabase(t *testing.T) {
	d := &db.Database{NumItems: 10}
	cl := cluster.New(cluster.Default(2, 2))
	res, _ := MineOpts(cl, d, 1, Options{})
	if res.Len() != 0 {
		t.Fatalf("empty database mined %d itemsets", res.Len())
	}
}

func TestParallelMoreProcsThanTransactions(t *testing.T) {
	d := &db.Database{NumItems: 5, Transactions: []db.Transaction{
		{TID: 0, Items: itemset.New(0, 1)},
		{TID: 1, Items: itemset.New(0, 1)},
	}}
	cl := cluster.New(cluster.Default(2, 4)) // 8 procs, 2 transactions
	res, _ := MineOpts(cl, d, 2, Options{})
	if res.SupportMap()[itemset.New(0, 1).Key()] != 2 {
		t.Fatalf("result wrong with empty partitions: %v", res.SupportMap())
	}
}

// TestSequentialDriverCanceled checks the one-worker run: a mine on an
// already-canceled context returns context.Canceled and no result.
func TestSequentialDriverCanceled(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(1500))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := MineParallelLocal(ctx, d, 10, Options{Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("canceled mine returned a result")
	}
}
