package eclat

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/mining"
)

// TestMaximalClosedMulticore is the acceptance check that the engine's
// shared class queue really runs the maximal and closed policies on
// multiple cores: at 4 workers the output is byte-identical to the
// one-worker mine's.
func TestMaximalClosedMulticore(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(2000))
	minsup := d.MinSupCount(0.6)
	for _, policy := range []Policy{PolicyMaximal, PolicyClosed} {
		seq, _, err := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 1, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		res, st, err := MineParallelLocal(context.Background(), d, minsup, Options{Workers: 4, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		if !byteIdentical(res, seq) {
			t.Fatalf("%s workers=4 differs from sequential:\n%s", goldenKeys[policy], mining.Diff(res, seq))
		}
		if st.Workers != 4 {
			t.Fatalf("%s Stats.Workers = %d, want 4", goldenKeys[policy], st.Workers)
		}
	}
}
