package eclat

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/mining"
	"repro/internal/testutil"
)

func TestHybridMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	d := testutil.RandomDB(rng, 300, 14, 7)
	minsup := 6
	want, _ := mineSeq(t, d, minsup)
	for _, hp := range [][2]int{{1, 1}, {1, 4}, {2, 2}, {4, 2}, {2, 4}, {3, 3}} {
		cl := cluster.New(cluster.Default(hp[0], hp[1]))
		got, rep := MineHybridOpts(cl, d, minsup, Options{})
		if !mining.Equal(got, want) {
			t.Fatalf("H=%d P=%d: %s", hp[0], hp[1], mining.Diff(got, want))
		}
		if rep.ElapsedNS <= 0 {
			t.Fatal("no elapsed time")
		}
	}
}

func TestHybridBeatsFlatEclatAtHighProcsPerHost(t *testing.T) {
	// The motivation for the hybrid: with several processors per host,
	// flat Eclat suffers disk contention (every processor scans its own
	// partition through the shared disk) while the hybrid moves each byte
	// once. At P=4 per host the hybrid should win.
	d := gen.MustGenerate(gen.T10I6(4000))
	minsup := d.MinSupCount(0.25)
	cfg := cluster.Default(2, 4)
	clFlat := cluster.New(cfg)
	_, repFlat := MineOpts(clFlat, d, minsup, Options{})
	clHyb := cluster.New(cfg)
	_, repHyb := MineHybridOpts(clHyb, d, minsup, Options{})
	if repHyb.ElapsedNS >= repFlat.ElapsedNS {
		t.Fatalf("hybrid (%v) should beat flat Eclat (%v) at P=4", repHyb.Elapsed(), repFlat.Elapsed())
	}
}

func TestHybridDiskVolumeLower(t *testing.T) {
	// Cooperative chunk scanning: the hybrid's total disk reads of the
	// horizontal data equal the database size per pass, while flat Eclat
	// at P>1 also reads each byte once per pass but with P-way contention;
	// the hybrid's *charged disk time* must be lower.
	d := gen.MustGenerate(gen.T10I6(4000))
	minsup := d.MinSupCount(0.5)
	cfg := cluster.Default(2, 4)
	clFlat := cluster.New(cfg)
	MineOpts(clFlat, d, minsup, Options{})
	clHyb := cluster.New(cfg)
	MineHybridOpts(clHyb, d, minsup, Options{})
	if clHyb.Report().Merged.DiskNS >= clFlat.Report().Merged.DiskNS {
		t.Fatalf("hybrid disk time (%d) should be below flat (%d)",
			clHyb.Report().Merged.DiskNS, clFlat.Report().Merged.DiskNS)
	}
}

func TestHybridDeterministic(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(800))
	run := func() int64 {
		cl := cluster.New(cluster.Default(2, 2))
		_, rep := MineHybridOpts(cl, d, d.MinSupCount(1.0), Options{})
		return rep.ElapsedNS
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}
