package eclat

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/tidlist"
)

// reprVariants runs every eclat-family miner under a given
// representation: each engine policy on one worker, and the simulated-
// cluster forms. The cluster entries build a fresh simulated cluster per
// run, as Cluster clocks are single-use.
var reprVariants = []struct {
	name string
	mine func(d *db.Database, minsup int, opts Options) *mining.Result
}{
	{"sequential", localVariant(PolicyAll)},
	{"parallel", func(d *db.Database, minsup int, opts Options) *mining.Result {
		res, _ := MineOpts(cluster.New(cluster.Default(2, 2)), d, minsup, opts)
		return res
	}},
	{"hybrid", func(d *db.Database, minsup int, opts Options) *mining.Result {
		res, _ := MineHybridOpts(cluster.New(cluster.Default(2, 2)), d, minsup, opts)
		return res
	}},
	{"maximal", localVariant(PolicyMaximal)},
	{"maximal-parallel", func(d *db.Database, minsup int, opts Options) *mining.Result {
		res, _ := MineMaximalParallelOpts(cluster.New(cluster.Default(2, 2)), d, minsup, opts)
		return res
	}},
	{"closed", localVariant(PolicyClosed)},
	{"charm", localVariant(PolicyCharm)},
	{"diffsets", localVariant(PolicyDiffsets)},
}

// localVariant mines under policy on one worker.
func localVariant(policy Policy) func(d *db.Database, minsup int, opts Options) *mining.Result {
	return func(d *db.Database, minsup int, opts Options) *mining.Result {
		opts.Workers, opts.Policy = 1, policy
		res, _, _ := MineParallelLocal(context.Background(), d, minsup, opts)
		return res
	}
}

var allReprs = []tidlist.Repr{tidlist.ReprSparse, tidlist.ReprBitset, tidlist.ReprRoaring, tidlist.ReprAuto}

// TestAllVariantsAgreeAcrossRepresentations is the acceptance criterion
// for the representation layer: every eclat variant must produce
// identical itemsets under sparse, bitset, and auto. The minsup sweep
// includes values high enough to trigger short-circuit aborts on most
// candidates, so a partial prefix leaking into a result would break the
// equality.
func TestAllVariantsAgreeAcrossRepresentations(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	dbs := []*db.Database{
		testutil.RandomDB(rng, 120, 10, 6), // dense: auto goes bitset
		testutil.RandomDB(rng, 400, 25, 5), // sparser classes
		gen.MustGenerate(gen.T10I6(500)),   // paper-style synthetic data
	}
	for di, d := range dbs {
		for _, minsup := range []int{2, 5, d.Len() / 8, d.Len() / 3} {
			if minsup < 1 {
				continue
			}
			for _, v := range reprVariants {
				want := v.mine(d, minsup, Options{Representation: tidlist.ReprSparse})
				for _, r := range allReprs[1:] {
					got := v.mine(d, minsup, Options{Representation: r})
					if !mining.Equal(got, want) {
						t.Fatalf("db %d minsup %d variant %s: %v differs from sparse:\n%s",
							di, minsup, v.name, r, mining.Diff(got, want))
					}
				}
			}
		}
	}
}

// TestRepresentationsMatchBruteForce anchors the full-mining variants to
// ground truth, not just to each other.
func TestRepresentationsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	d := testutil.RandomDB(rng, 100, 12, 6)
	for _, minsup := range []int{2, 4, 8} {
		want := testutil.BruteForce(d, minsup)
		for _, r := range allReprs {
			got, _, _ := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1, Representation: r})
			if !mining.Equal(got, want) {
				t.Fatalf("minsup %d repr %v differs from brute force:\n%s", minsup, r, mining.Diff(got, want))
			}
		}
	}
}

// TestBitsetRunDispatchesDenseKernel guards against the bitset path
// silently falling back to the sparse merge: an explicit bitset run must
// record dense kernel dispatches in its stats.
func TestBitsetRunDispatchesDenseKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	d := testutil.RandomDB(rng, 200, 12, 7)
	_, st, _ := MineParallelLocal(context.Background(), d, 4, Options{Workers: 1, Representation: tidlist.ReprBitset})
	if st.Intersections == 0 {
		t.Skip("no intersections at this support; adjust test data")
	}
	if st.Kernel.DenseIntersections() == 0 {
		t.Fatal("explicit bitset run performed no dense kernel dispatches")
	}
	if st.Kernel.WordsTouched() == 0 {
		t.Fatal("dense dispatches must touch words")
	}
	// A sparse run on the same data must not touch the dense kernel.
	_, st, _ = MineParallelLocal(context.Background(), d, 4, Options{Workers: 1, Representation: tidlist.ReprSparse})
	if st.Kernel.DenseIntersections() != 0 || st.Kernel.WordsTouched() != 0 {
		t.Fatal("explicit sparse run dispatched to the dense kernel")
	}
}

// TestAdaptivePolicySwitchesByDensity pins the auto policy's two sides
// on data engineered to sit on either side of the priced break-even,
// where a class's joins cost as much in words as in merged elements.
func TestAdaptivePolicySwitchesByDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	// Dense: 10 items over 120 transactions, every class far above the
	// break-even density, so auto must pack classes into bitsets.
	dense := testutil.RandomDB(rng, 120, 8, 6)
	_, st, _ := MineParallelLocal(context.Background(), dense, 2, Options{Workers: 1, Representation: tidlist.ReprAuto})
	if st.Intersections > 0 && st.Kernel.DenseIntersections() == 0 {
		t.Fatal("auto on dense data never used the bitset kernel")
	}
	// Sparse: supports near minsup over a wide tid range keep density
	// far below the break-even, so auto must stay on the merge kernel.
	sparse := testutil.RandomDB(rng, 4000, 120, 4)
	_, st, _ = MineParallelLocal(context.Background(), sparse, 2, Options{Workers: 1, Representation: tidlist.ReprAuto})
	if st.Kernel.DenseIntersections() != 0 {
		t.Fatalf("auto on sparse data dispatched %d dense intersections", st.Kernel.DenseIntersections())
	}
}

// TestAutoKeepsDenseVerticalClassesPacked: on dense vertical data held
// in bitsets, every derived pair set stays the bitset its two item sets
// produce, and auto prices every class packed, so the mine converts
// nothing and every kernel dispatch — derivation and recursion — is
// dense. Its output is byte-identical to every explicit encoding at one
// and two workers and under a residency budget.
func TestAutoKeepsDenseVerticalClassesPacked(t *testing.T) {
	// The benchmark's dense family at test size: long baskets (|T|=20)
	// over few items (N=200), about 10% density per item.
	cfg := gen.T10I6(1000)
	cfg.AvgTxLen, cfg.NumItems = 20, 200
	d := gen.MustGenerate(cfg)
	minsup := d.MinSupCount(1.25)
	in := VerticalInput{NumTransactions: d.Len(), Items: verticalSets(d, tidlist.ReprBitset)}
	ctx := context.Background()
	res, st, err := MineVerticalLocal(ctx, in, minsup, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Intersections == 0 {
		t.Fatal("no intersections: the dense input mined nothing")
	}
	if n := st.Kernel.Conversions(); n != 0 {
		t.Fatalf("auto converted %d member sets of a dense class", n)
	}
	if dense := st.Kernel.DenseIntersections(); dense != st.Intersections {
		t.Fatalf("%d of %d kernel dispatches were dense, want all", dense, st.Intersections)
	}
	want := resultBytes(t, res)

	path := filepath.Join(t.TempDir(), "dense.ds")
	if err := store.CreateDatasetSeg(path, store.DatasetMeta("dense", "test", d), d, store.VerticalLists(d), 512); err != nil {
		t.Fatal(err)
	}
	ds, err := store.OpenDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for _, r := range allReprs {
		for _, workers := range []int{1, 2} {
			for _, budgeted := range []bool{false, true} {
				name := fmt.Sprintf("repr=%v/workers=%d/budgeted=%v", r, workers, budgeted)
				rin := VerticalInput{NumTransactions: d.Len(), Items: verticalSets(d, r)}
				if budgeted {
					rin.Items = ds.Sets(r)
					if rin.Residency = ds.NewResidency(ds.BytesMapped() / 4); rin.Residency == nil {
						t.Fatalf("%s: NewResidency = nil", name)
					}
				}
				got, _, err := MineVerticalLocal(ctx, rin, minsup, Options{Representation: r, Workers: workers})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(resultBytes(t, got), want) {
					t.Fatalf("%s: output differs from auto on bitset item sets", name)
				}
			}
		}
	}
}

// TestAutoMatchesSparseOnT10Vertical: on the paper's T10 data every
// class prices sparse, so auto's mine from sparse item sets is the
// sparse mine, counter for counter.
func TestAutoMatchesSparseOnT10Vertical(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(2000))
	in := VerticalInput{NumTransactions: d.Len(), Items: verticalSets(d, tidlist.ReprSparse)}
	minsup := d.MinSupCount(0.5)
	_, want, err := MineVerticalLocal(context.Background(), in, minsup, Options{Representation: tidlist.ReprSparse, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := MineVerticalLocal(context.Background(), in, minsup, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want.Intersections == 0 {
		t.Fatal("no intersections at this support")
	}
	if got != want {
		t.Fatalf("auto stats %+v differ from sparse %+v", got, want)
	}
}

// TestRoaringRunDispatchesContainerKernel is the roaring analog of the
// dense-kernel guard: an explicit roaring run must record containerized
// dispatches and container work, and a sparse run must record none.
func TestRoaringRunDispatchesContainerKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	d := testutil.RandomDB(rng, 200, 12, 7)
	_, st, _ := MineParallelLocal(context.Background(), d, 4, Options{Workers: 1, Representation: tidlist.ReprRoaring})
	if st.Intersections == 0 {
		t.Skip("no intersections at this support; adjust test data")
	}
	if st.Kernel.RoaringIntersections() == 0 {
		t.Fatal("explicit roaring run performed no containerized dispatches")
	}
	if st.Kernel.RoaringElemOps()+st.Kernel.RoaringWords() == 0 {
		t.Fatal("containerized dispatches must record container work")
	}
	_, st, _ = MineParallelLocal(context.Background(), d, 4, Options{Workers: 1, Representation: tidlist.ReprSparse})
	if st.Kernel.RoaringIntersections() != 0 {
		t.Fatal("explicit sparse run dispatched to the roaring kernel")
	}
}

// TestDiffsetTransitionByDensity pins the dEclat gate's two sides: dense
// classes (children retain most of their parent's support) must switch
// sub-classes to diffsets by default, a break-even above 1 (which no
// retention estimate can meet) must not, and both must mine identical
// itemsets under every representation.
func TestDiffsetTransitionByDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	// Each transaction keeps all but one of 6 items: every pair retains
	// ~2/3 of the transactions and every extension ~3/4 of its parent,
	// comfortably above the 0.5 break-even.
	dense := &db.Database{NumItems: 6}
	for i := 0; i < 200; i++ {
		drop := rng.Intn(6)
		var items []itemset.Item
		for it := 0; it < 6; it++ {
			if it != drop {
				items = append(items, itemset.Item(it))
			}
		}
		dense.Transactions = append(dense.Transactions, db.Transaction{
			TID:   itemset.TID(i),
			Items: itemset.New(items...),
		})
	}
	for _, r := range allReprs {
		want, stOff, _ := MineParallelLocal(context.Background(), dense, 2,
			Options{Workers: 1, Representation: r, DiffsetBreakEven: 1.5})
		if stOff.DiffsetClasses != 0 {
			t.Fatalf("repr %v: DiffsetBreakEven 1.5 still switched %d sub-classes", r, stOff.DiffsetClasses)
		}
		got, stOn, _ := MineParallelLocal(context.Background(), dense, 2, Options{Workers: 1, Representation: r})
		if stOn.DiffsetClasses == 0 {
			t.Fatalf("repr %v: dense data never crossed the diffset break-even", r)
		}
		if !mining.Equal(got, want) {
			t.Fatalf("repr %v: diffset-first output differs from tid-list output:\n%s",
				r, mining.Diff(got, want))
		}
	}
	// Sparse data sits far below the break-even: the default must keep
	// tid-lists so the §5.3 short-circuit stays in play.
	sparse := testutil.RandomDB(rng, 4000, 120, 4)
	_, st, _ := MineParallelLocal(context.Background(), sparse, 2, Options{Workers: 1, Representation: tidlist.ReprAuto})
	if st.DiffsetClasses != 0 {
		t.Fatalf("sparse data switched %d sub-classes to diffsets below the break-even", st.DiffsetClasses)
	}
}

// TestParallelReportTaggedWithRepresentation checks the cluster report
// carries the representation it was mined through, for all parallel
// variants.
func TestParallelReportTaggedWithRepresentation(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(400))
	minsup := d.MinSupCount(1.0)
	for _, r := range allReprs {
		opts := Options{Representation: r}
		_, rep := MineOpts(cluster.New(cluster.Default(2, 2)), d, minsup, opts)
		if rep.Representation != r.String() {
			t.Fatalf("Mine report representation %q, want %q", rep.Representation, r)
		}
		_, rep = MineHybridOpts(cluster.New(cluster.Default(2, 2)), d, minsup, opts)
		if rep.Representation != r.String() {
			t.Fatalf("hybrid report representation %q, want %q", rep.Representation, r)
		}
		_, rep = MineMaximalParallelOpts(cluster.New(cluster.Default(2, 2)), d, minsup, opts)
		if rep.Representation != r.String() {
			t.Fatalf("maximal report representation %q, want %q", rep.Representation, r)
		}
	}
}

// TestPayloadSplitAccounted checks the transformation-phase exchange
// records its per-representation payload split: under an explicit
// encoding all payload bytes land on that side, and the split never
// exceeds the total network volume.
func TestPayloadSplitAccounted(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(400))
	minsup := d.MinSupCount(1.0)
	for _, r := range allReprs {
		_, rep := MineOpts(cluster.New(cluster.Default(2, 2)), d, minsup, Options{Representation: r})
		sparse := rep.Merged.NetBytesSparse
		dense := rep.Merged.NetBytesDense
		if sparse+dense == 0 {
			t.Fatalf("repr %v: no payload split recorded", r)
		}
		if sparse+dense > rep.Merged.NetBytes {
			t.Fatalf("repr %v: payload split %d exceeds total net bytes %d", r, sparse+dense, rep.Merged.NetBytes)
		}
		switch r {
		case tidlist.ReprSparse:
			if dense != 0 {
				t.Fatalf("sparse run shipped %d dense payload bytes", dense)
			}
		case tidlist.ReprBitset:
			if sparse != 0 {
				t.Fatalf("bitset run shipped %d sparse payload bytes", sparse)
			}
		}
	}
}
