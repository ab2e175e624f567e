package repro

// Cross-algorithm integration tests: every miner in the repository must
// produce the identical (itemset -> support) answer on the same inputs,
// across randomized databases, supports, and cluster shapes — the
// repository's strongest correctness guarantee.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/apriori"
	"repro/internal/canddist"
	"repro/internal/cluster"
	"repro/internal/countdist"
	"repro/internal/datadist"
	"repro/internal/db"
	"repro/internal/dhp"
	"repro/internal/eclat"
	"repro/internal/mining"
	"repro/internal/partition"
	"repro/internal/sampling"
	"repro/internal/testutil"
)

type minerFunc func(d *db.Database, minsup int, hp [2]int) *mining.Result

var allMiners = map[string]minerFunc{
	"apriori": func(d *db.Database, minsup int, _ [2]int) *mining.Result {
		res, _, _ := apriori.Mine(context.Background(), d, minsup)
		return res
	},
	"eclat-seq": func(d *db.Database, minsup int, _ [2]int) *mining.Result {
		res, _, _ := eclat.MineParallelLocal(context.Background(), d, minsup, eclat.Options{Workers: 1})
		return res
	},
	"eclat-par": func(d *db.Database, minsup int, hp [2]int) *mining.Result {
		res, _ := eclat.MineOpts(cluster.New(cluster.Default(hp[0], hp[1])), d, minsup, eclat.Options{})
		return res
	},
	"eclat-hybrid": func(d *db.Database, minsup int, hp [2]int) *mining.Result {
		res, _ := eclat.MineHybridOpts(cluster.New(cluster.Default(hp[0], hp[1])), d, minsup, eclat.Options{})
		return res
	},
	"countdist": func(d *db.Database, minsup int, hp [2]int) *mining.Result {
		res, _ := countdist.Mine(cluster.New(cluster.Default(hp[0], hp[1])), d, minsup)
		return res
	},
	"countdist-tri": func(d *db.Database, minsup int, hp [2]int) *mining.Result {
		res, _ := countdist.MineOpts(cluster.New(cluster.Default(hp[0], hp[1])), d, minsup,
			countdist.Options{TriangularPass2: true})
		return res
	},
	"datadist": func(d *db.Database, minsup int, hp [2]int) *mining.Result {
		res, _ := datadist.Mine(cluster.New(cluster.Default(hp[0], hp[1])), d, minsup)
		return res
	},
	"canddist": func(d *db.Database, minsup int, hp [2]int) *mining.Result {
		res, _ := canddist.Mine(cluster.New(cluster.Default(hp[0], hp[1])), d, minsup)
		return res
	},
	"eclat-noshortcircuit": func(d *db.Database, minsup int, _ [2]int) *mining.Result {
		res, _, _ := eclat.MineParallelLocal(context.Background(), d, minsup, eclat.Options{Workers: 1, NoShortCircuit: true})
		return res
	},
	"eclat-roundrobin": func(d *db.Database, minsup int, hp [2]int) *mining.Result {
		res, _ := eclat.MineOpts(cluster.New(cluster.Default(hp[0], hp[1])), d, minsup,
			eclat.Options{RoundRobinSchedule: true})
		return res
	},
	"eclat-supportweighted": func(d *db.Database, minsup int, hp [2]int) *mining.Result {
		res, _ := eclat.MineOpts(cluster.New(cluster.Default(hp[0], hp[1])), d, minsup,
			eclat.Options{SupportWeightedSchedule: true})
		return res
	},
	"eclat-external": func(d *db.Database, minsup int, hp [2]int) *mining.Result {
		res, _ := eclat.MineOpts(cluster.New(cluster.Default(hp[0], hp[1])), d, minsup,
			eclat.Options{ExternalTransform: true})
		return res
	},
	"ccpd-sharedtree": func(d *db.Database, minsup int, hp [2]int) *mining.Result {
		res, _ := countdist.MineOpts(cluster.New(cluster.Default(hp[0], hp[1])), d, minsup,
			countdist.Options{SharedTree: true})
		return res
	},
	"partition": func(d *db.Database, minsup int, hp [2]int) *mining.Result {
		res, _ := partition.Mine(d, minsup, hp[0]*hp[1]+1)
		return res
	},
	"sampling": func(d *db.Database, minsup int, hp [2]int) *mining.Result {
		res, _ := sampling.Mine(d, minsup, sampling.Options{Seed: int64(hp[0]*10 + hp[1])})
		return res
	},
	"dhp": func(d *db.Database, minsup int, _ [2]int) *mining.Result {
		res, _ := dhp.Mine(d, minsup, dhp.Options{})
		return res
	},
}

func TestAllMinersAgreeWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	shapes := [][2]int{{1, 1}, {2, 2}, {4, 1}, {1, 4}}
	for trial := 0; trial < 6; trial++ {
		d := testutil.RandomDB(rng, 120+trial*40, 10+trial, 6)
		minsup := 3 + trial
		want := testutil.BruteForce(d, minsup)
		if err := want.Verify(); err != nil {
			t.Fatalf("oracle inconsistent: %v", err)
		}
		hp := shapes[trial%len(shapes)]
		for name, mine := range allMiners {
			got := mine(d, minsup, hp)
			if !mining.Equal(got, want) {
				t.Fatalf("trial %d, %s (H=%d,P=%d) disagrees with brute force:\n%s",
					trial, name, hp[0], hp[1], mining.Diff(got, want))
			}
		}
	}
}

func TestResultIndependentOfClusterShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4096))
	d := testutil.RandomDB(rng, 250, 14, 7)
	minsup := 5
	base, _, _ := eclat.MineParallelLocal(context.Background(), d, minsup, eclat.Options{Workers: 1})
	for _, name := range []string{"eclat-par", "eclat-hybrid", "countdist", "datadist", "canddist"} {
		mine := allMiners[name]
		for _, hp := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 2}, {2, 3}, {1, 8}} {
			got := mine(d, minsup, hp)
			if !mining.Equal(got, base) {
				t.Fatalf("%s result depends on cluster shape H=%d P=%d:\n%s",
					name, hp[0], hp[1], mining.Diff(got, base))
			}
		}
	}
}

func TestGeneratedDataAgreement(t *testing.T) {
	// Same check on the paper's generator output (structured, skewed)
	// rather than uniform-random transactions.
	d, err := Generate(StandardConfig(2000))
	if err != nil {
		t.Fatal(err)
	}
	minsup := d.MinSupCount(1.0)
	want, _, _ := apriori.Mine(context.Background(), d, minsup)
	for _, name := range []string{"eclat-seq", "eclat-par", "countdist", "canddist"} {
		got := allMiners[name](d, minsup, [2]int{2, 2})
		if !mining.Equal(got, want) {
			t.Fatalf("%s disagrees on generated data:\n%s", name, mining.Diff(got, want))
		}
	}
	if err := want.Verify(); err != nil {
		t.Fatal(err)
	}
}
