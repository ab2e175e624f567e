package eclat

import (
	"bytes"
	"math/rand"
	"reflect"
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

// TestHybridTransformPagingCountsPartials: under tight host memory the
// hybrid's transformation pages for all its host holds, the group's
// lists once and each member's partial lists, as flat Eclat's does. A
// host memory that fits the lists alone but not the partials beside them
// must page.
func TestHybridTransformPagingCountsPartials(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(1200))
	minsup := d.MinSupCount(1.0)
	cfg := cluster.Default(2, 2)
	_, ample := MineHybridOpts(cluster.New(cfg), d, minsup, Options{})
	// Unpaged, each member writes its share of its group's lists, so the
	// largest group's lists fit in g shares plus the rounding.
	g := int64(cfg.ProcsPerHost)
	big := 0
	for i, b := range ample.PerProc {
		if b.DiskBytesWritten > ample.PerProc[big].DiskBytesWritten {
			big = i
		}
	}
	cfg.HostMemBytes = g*ample.PerProc[big].DiskBytesWritten + g - 1
	_, tight := MineHybridOpts(cluster.New(cfg), d, minsup, Options{})
	host := big / cfg.ProcsPerHost
	for i := host * cfg.ProcsPerHost; i < (host+1)*cfg.ProcsPerHost; i++ {
		if w, a := tight.PerProc[i].DiskBytesWritten, ample.PerProc[i].DiskBytesWritten; w < 2*a {
			t.Errorf("processor %d wrote %d bytes at %d bytes of host memory, %d unpaged: no page factor above 1", i, w, cfg.HostMemBytes, a)
		}
	}
}

// TestHybridOneProcPerHostIsFlat: the hybrid groups each host's
// processors, so with one processor per host every group is one
// processor and the hybrid must be flat Eclat, byte for byte and charge
// for charge, under every encoding, with ample and with tight host
// memory, and with either transformation.
func TestHybridOneProcPerHostIsFlat(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(1200))
	minsup := d.MinSupCount(1.0)
	write := func(res *mining.Result) []byte {
		var buf bytes.Buffer
		if err := mining.Write(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, hosts := range []int{1, 2, 4} {
		for _, mem := range []int64{256 << 20, 64 << 10} {
			for _, r := range allReprs {
				for _, ext := range []bool{false, true} {
					cfg := cluster.Default(hosts, 1)
					cfg.HostMemBytes = mem
					opts := Options{Representation: r, ExternalTransform: ext}
					flat, flatRep := MineOpts(cluster.New(cfg), d, minsup, opts)
					hyb, hybRep := MineHybridOpts(cluster.New(cfg), d, minsup, opts)
					if !bytes.Equal(write(hyb), write(flat)) {
						t.Errorf("H=%d mem=%d %s external=%v: hybrid result differs from flat", hosts, mem, r, ext)
					}
					if !reflect.DeepEqual(hybRep, flatRep) {
						t.Errorf("H=%d mem=%d %s external=%v: hybrid report differs from flat: elapsed %d vs %d virtual ns",
							hosts, mem, r, ext, hybRep.ElapsedNS, flatRep.ElapsedNS)
					}
				}
			}
		}
	}
}
