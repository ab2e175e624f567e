package eclat

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"os"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/mining"
	"repro/internal/tidlist"
)

// The golden-stats suite pins the class-task engine to the work-counter
// profile and output fingerprints captured from the pre-engine variants
// (scripts/golden_stats.go regenerates the file; the committed copy was
// produced by the PR 7 tree). Equality here is the refactor's contract:
// same kernel call sequence, same short-circuits, same counted classes,
// same bytes out — at every representation and worker count, not just on
// one lucky configuration. The simulated-cluster
// forms' elapsed and per-phase virtual times are pinned too, so a
// refactor of their SPMD program that moves a single charge shows.

type kernelGold struct {
	SparseOps      int64 `json:"sparseOps"`
	WordsTouched   int64 `json:"wordsTouched"`
	RoaringElemOps int64 `json:"roaringElemOps"`
	RoaringWords   int64 `json:"roaringWords"`
	Conversions    int64 `json:"conversions"`
}

type statsGold struct {
	Scans          int        `json:"scans"`
	Intersections  int64      `json:"intersections"`
	ShortCircuited int64      `json:"shortCircuited"`
	IntersectOps   int64      `json:"intersectOps"`
	Classes        int        `json:"classes"`
	Kernel         kernelGold `json:"kernel"`
}

type maxGold struct {
	statsGold
	Lookaheads    int64 `json:"lookaheads"`
	LookaheadHits int64 `json:"lookaheadHits"`
	Candidates    int   `json:"candidates"`
}

// virtualGold pins one simulated-cluster run's virtual time: the elapsed
// time and every phase's maximum per-processor time.
type virtualGold struct {
	ElapsedNS   int64            `json:"elapsedNS"`
	PhaseMaxima map[string]int64 `json:"phaseMaxima"`
}

type goldenEntry struct {
	Dataset      string                 `json:"dataset"`
	MinSup       int                    `json:"minsup"`
	Repr         string                 `json:"repr"`
	Stats        statsGold              `json:"stats"`
	Max          maxGold                `json:"max"`
	Fingerprints map[string]uint64      `json:"fingerprints"`
	Virtual      map[string]virtualGold `json:"virtual"`
}

func loadGoldens(t *testing.T) []goldenEntry {
	t.Helper()
	buf, err := os.ReadFile("testdata/golden_stats.json")
	if err != nil {
		t.Fatalf("read goldens: %v", err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(buf, &entries); err != nil {
		t.Fatalf("parse goldens: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("no golden entries")
	}
	return entries
}

// goldenDense names the dense golden dataset: T10I6's generator over 12
// items with |T|=8 and |I|=4, where at 30 % support figure 3 counts
// classes and runs deep in the lattice.
const goldenDense = "T8I4N12-800"

// goldenDB rebuilds the deterministic seed datasets the goldens were
// captured on (generation is pure in the config seed).
func goldenDB(t *testing.T, name string) *db.Database {
	t.Helper()
	switch name {
	case "T10I6-2000":
		return gen.MustGenerate(gen.T10I6(2000))
	case "T5I2-800":
		return gen.MustGenerate(gen.T5I2(800))
	case goldenDense:
		cfg := gen.T10I6(800)
		cfg.NumItems, cfg.AvgTxLen, cfg.AvgPatternLen = 12, 8, 4
		return gen.MustGenerate(cfg)
	default:
		t.Fatalf("unknown golden dataset %q", name)
		return nil
	}
}

// goldenFingerprint matches scripts/golden_stats.go: FNV-64a over the
// canonical sorted (minsup, |D|, itemset, support) stream.
func goldenFingerprint(res *mining.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(res.MinSup))
	put(int64(res.NumTransactions))
	for _, f := range res.Itemsets {
		put(int64(f.Set.K()))
		for _, it := range f.Set {
			put(int64(it))
		}
		put(int64(f.Support))
	}
	return h.Sum64()
}

func kernelOf(k *tidlist.KernelStats) kernelGold {
	return kernelGold{
		SparseOps:      k.SparseOps(),
		WordsTouched:   k.WordsTouched(),
		RoaringElemOps: k.RoaringElemOps(),
		RoaringWords:   k.RoaringWords(),
		Conversions:    k.Conversions(),
	}
}

func statsOf(st *Stats) statsGold {
	return statsGold{
		Scans:          st.Scans,
		Intersections:  st.Intersections,
		ShortCircuited: st.ShortCircuited,
		IntersectOps:   st.IntersectOps,
		Classes:        st.Classes,
		Kernel:         kernelOf(&st.Kernel),
	}
}

func virtualOf(rep cluster.Report) virtualGold {
	v := virtualGold{ElapsedNS: rep.ElapsedNS, PhaseMaxima: map[string]int64{}}
	for _, pm := range rep.PhaseMaxima() {
		v.PhaseMaxima[pm.Name] = pm.NS
	}
	return v
}

func parseGoldenRepr(t *testing.T, s string) tidlist.Repr {
	t.Helper()
	r, err := tidlist.ParseRepr(s)
	if err != nil {
		t.Fatalf("golden repr %q: %v", s, err)
	}
	return r
}

// goldenKeys names each policy's output fingerprint in the golden file.
var goldenKeys = map[Policy]string{
	PolicyAll:     "all",
	PolicyMaximal: "maximal",
	PolicyClosed:  "closed",
}

// TestEngineMatchesGoldenStats drives every engine policy over the
// frozen profile through MineParallelLocal at workers 1–8: the output
// fingerprint of each policy, the all-frequent counters (which the
// closed policy shares: it runs the same search) and the maximal
// counters; then the fingerprints of the two simulated-cluster forms,
// which mine the all-frequent output under every policy. Workers is a
// scheduling figure, not a work counter, and is deliberately outside
// the comparison.
func TestEngineMatchesGoldenStats(t *testing.T) {
	dbs := map[string]*db.Database{}
	for _, e := range loadGoldens(t) {
		d, ok := dbs[e.Dataset]
		if !ok {
			d = goldenDB(t, e.Dataset)
			dbs[e.Dataset] = d
		}
		repr := parseGoldenRepr(t, e.Repr)
		t.Run(e.Dataset+"/"+e.Repr, func(t *testing.T) {
			for workers := 1; workers <= 8; workers++ {
				for _, policy := range allPolicies {
					key := goldenKeys[policy]
					opts := Options{Representation: repr, Workers: workers, Policy: policy}
					res, st, err := MineParallelLocal(context.Background(), d, e.MinSup, opts)
					if err != nil {
						t.Fatal(err)
					}
					if fp := goldenFingerprint(res); fp != e.Fingerprints[key] {
						t.Errorf("%s workers=%d fingerprint = %#x, want %#x", key, workers, fp, e.Fingerprints[key])
					}
					switch policy {
					case PolicyAll, PolicyClosed:
						if got := statsOf(&st); got != e.Stats {
							t.Errorf("%s workers=%d stats = %+v, want %+v", key, workers, got, e.Stats)
						}
					case PolicyMaximal:
						got := maxGold{
							statsGold:     statsOf(&st),
							Lookaheads:    st.Lookaheads,
							LookaheadHits: st.LookaheadHits,
							Candidates:    st.Candidates,
						}
						if got != e.Max {
							t.Errorf("maximal workers=%d stats = %+v, want %+v", workers, got, e.Max)
						}
					}
				}
			}

			forms := []struct {
				key  string
				mine func(*cluster.Cluster, *db.Database, int, Options) (*mining.Result, cluster.Report)
			}{{"cluster", MineOpts}, {"hybrid", MineHybridOpts}}
			for _, policy := range allPolicies {
				opts := Options{Representation: repr, Policy: policy}
				for _, f := range forms {
					res, rep := f.mine(cluster.New(cluster.Default(2, 2)), d, e.MinSup, opts)
					if fp := goldenFingerprint(res); fp != e.Fingerprints[f.key] {
						t.Errorf("%s %s fingerprint = %#x, want %#x", f.key, goldenKeys[policy], fp, e.Fingerprints[f.key])
					}
					if got := virtualOf(rep); !reflect.DeepEqual(got, e.Virtual[f.key]) {
						t.Errorf("%s %s virtual time = %+v, want %+v", f.key, goldenKeys[policy], got, e.Virtual[f.key])
					}
				}
			}
		})
	}
}
