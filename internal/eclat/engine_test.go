package eclat

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/mining"
)

// TestMaximalClosedMulticoreSteals is the acceptance check that the
// engine's work-stealing driver really runs the maximal and closed
// policies on multiple cores: output byte-identical to sequential AND a
// nonzero steal count. Stealing depends on scheduling, so each variant
// retries until a run observes a steal — deterministic output is
// asserted on every attempt either way.
func TestMaximalClosedMulticoreSteals(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(2000))
	minsup := d.MinSupCount(0.6)

	seqMax, _, err := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1, Policy: PolicyMaximal})
	if err != nil {
		t.Fatal(err)
	}
	seqClosed, _, err := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1, Policy: PolicyClosed})
	if err != nil {
		t.Fatal(err)
	}

	const attempts = 50
	stole := false
	for i := 0; i < attempts && !stole; i++ {
		res, st, err := MineParallelLocal(context.Background(), d, minsup, Options{Policy: PolicyMaximal, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !byteIdentical(res, seqMax) {
			t.Fatalf("maximal workers=4 attempt %d differs from sequential:\n%s",
				i, mining.Diff(res, seqMax))
		}
		if st.Workers != 4 {
			t.Fatalf("maximal Stats.Workers = %d, want 4", st.Workers)
		}
		stole = st.Steals > 0
	}
	if !stole {
		t.Fatalf("maximal: no steal observed in %d multicore runs", attempts)
	}

	stole = false
	for i := 0; i < attempts && !stole; i++ {
		res, st, err := MineParallelLocal(context.Background(), d, minsup, Options{Policy: PolicyClosed, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !byteIdentical(res, seqClosed) {
			t.Fatalf("closed workers=4 attempt %d differs from sequential:\n%s",
				i, mining.Diff(res, seqClosed))
		}
		if st.Workers != 4 {
			t.Fatalf("closed Stats.Workers = %d, want 4", st.Workers)
		}
		stole = st.Steals > 0
	}
	if !stole {
		t.Fatalf("closed: no steal observed in %d multicore runs", attempts)
	}
}
