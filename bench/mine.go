package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/store"
)

// mineWorkload is one of the two in-process workloads: a closed loop of
// one caller mining a round-robin of seeded datasets through the library
// facade, with no store or service layer in the way (mine_t10) or
// through the persistent store (mine_dense).
type mineWorkload struct {
	env    env
	family string
	n, k   int
	pct    float64
	stored bool // open each dataset from the store per mine (mine_dense)

	dbs   []*repro.Database
	dir   string
	paths []string

	used usage           // CPU time and heap allocation inside the measured calls
	refs []*repro.Result // per dataset, computed off the clock by check
}

// Both mine workloads cycle over several seeded datasets, so a run's
// per-operation costs average over the generator's randomness and stay
// steady across seeds. T10.I6's cost varies most from dataset to dataset
// (a coefficient of variation near 0.2 at D20K), so mine_t10 cycles over
// the most.

func newMineT10(e env) *mineWorkload {
	w := &mineWorkload{env: e, family: "t10", n: 20000, k: 24, pct: 0.75}
	if e.smoke {
		w.n, w.k, w.pct = 2000, 2, 1
	}
	return w
}

func newMineDense(e env) *mineWorkload {
	w := &mineWorkload{env: e, family: "dense", n: 5000, k: 5, pct: 1.25, stored: true}
	if e.smoke {
		w.n, w.k, w.pct = 1000, 2, 3
	}
	return w
}

func (w *mineWorkload) setUp(ctx context.Context) error {
	dbs, err := generate(w.family, w.n, w.env.seed, w.k)
	if err != nil {
		return err
	}
	w.dbs = dbs
	if w.stored {
		if w.dir, err = os.MkdirTemp(w.env.workdir, "mine_dense-"); err != nil {
			return err
		}
		w.paths = make([]string, len(dbs))
		for j, d := range dbs {
			w.paths[j] = filepath.Join(w.dir, fmt.Sprintf("d%d", j))
			if err := store.CreateDataset(w.paths[j], store.DatasetMeta(fmt.Sprintf("d%d", j), "bench", d), d, store.VerticalLists(d)); err != nil {
				return err
			}
		}
	}
	// One untimed mine lets the heap grow to its working size first.
	_, _, err = w.mine(ctx, 0, repro.ReprAuto, nil, 0, 0)
	return err
}

func (w *mineWorkload) tearDown() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// mine is one operation: repro.Mine on dataset j (mine_t10), or
// store.OpenDataset → repro.MineFrom → Close (mine_dense), with spans
// around each call when tr is non-nil.
func (w *mineWorkload) mine(ctx context.Context, j int, r repro.Representation, tr *tracer, parent int, req int64) (*repro.Result, *repro.RunInfo, error) {
	opts := repro.MineOptions{SupportPct: w.pct, Representation: r}
	if !w.stored {
		start := time.Now()
		res, info, err := repro.Mine(ctx, w.dbs[j], opts)
		if tr != nil && err == nil {
			id := tr.add("repro.Mine", parent, req, 0, start, time.Now())
			tr.phases(id, req, 0, start, toPhaseSpans(info.Phases))
		}
		return res, info, err
	}
	t0 := time.Now()
	sd, err := store.OpenDataset(w.paths[j])
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	res, info, err := repro.MineFrom(ctx, sd, opts)
	t2 := time.Now()
	cerr := sd.Close()
	t3 := time.Now()
	if tr != nil && err == nil {
		tr.add("store.OpenDataset", parent, req, 0, t0, t1)
		id := tr.add("repro.MineFrom", parent, req, 0, t1, t2)
		tr.phases(id, req, 0, t1, toPhaseSpans(info.Phases))
		tr.add("store.Close", parent, req, 0, t2, t3)
	}
	if err == nil {
		err = cerr
	}
	return res, info, err
}

func (w *mineWorkload) run(ctx context.Context, _ int, window time.Duration, tr *tracer) []op {
	var ops []op
	var ms runtime.MemStats
	self := os.Getpid()
	deadline := time.Now().Add(window)
	ready := time.Now()
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		j := i % len(w.dbs)
		req := nextReq()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		c0, cerr := cpuTime(self)
		g0 := w.env.gauge.cpu()
		start := time.Now()
		root := tr.add("client.op", 0, req, 0, start, start) // end set below
		res, info, err := w.mine(ctx, j, repro.ReprAuto, tr, root, req)
		end := time.Now()
		c1, cerr1 := cpuTime(self)
		runtime.ReadMemStats(&ms)
		w.used.alloc += ms.TotalAlloc - before
		w.used.cpu += c1 - c0 - (w.env.gauge.cpu() - g0)
		tr.setEnd(root, end)
		if err == nil {
			err = errors.Join(cerr, cerr1)
		}
		o := op{due: start, start: start, end: end, late: start.Sub(ready), want: j, err: err}
		if err == nil {
			o.fp = fingerprint(res)
			o.wallNS, o.phases = info.WallNS, toPhaseSpans(info.Phases)
		}
		ops = append(ops, o)
		ready = time.Now()
	}
	return ops
}

// check compares every output with the reference of its dataset.
func (w *mineWorkload) check(ctx context.Context, ops []op) (int, error) {
	if w.refs == nil {
		w.refs = make([]*repro.Result, len(w.dbs))
		for j, d := range w.dbs {
			minsup := int(math.Ceil(w.pct / 100 * float64(d.Len())))
			ref, err := reference(ctx, d, minsup)
			if err != nil {
				return 0, err
			}
			w.refs[j] = ref
		}
	}
	want := make([]uint64, len(w.refs))
	for j, r := range w.refs {
		want[j] = fingerprint(r)
	}
	failed := 0
	for _, o := range ops {
		if o.err != nil || o.fp != want[o.want] {
			failed++
		}
	}
	return failed, nil
}

func (w *mineWorkload) pid() int { return os.Getpid() }

func (w *mineWorkload) usage(context.Context) (usage, error) { return w.used, nil }

func (w *mineWorkload) counters(context.Context) (map[string]float64, error) { return localCounters() }

func (w *mineWorkload) layerInput() layerInput {
	d := w.dbs[0]
	minsup := int(math.Ceil(w.pct / 100 * float64(d.Len())))
	return layerInput{
		db: d, minsup: minsup, vertical: w.stored, results: w.refs, serviceSupport: 4 * minsup,
		mine: func(ctx context.Context, r repro.Representation) (*repro.RunInfo, error) {
			_, info, err := w.mine(ctx, 0, r, nil, 0, 0)
			return info, err
		},
	}
}

func toPhaseSpans(ps []repro.PhaseSpan) []phaseSpan {
	out := make([]phaseSpan, len(ps))
	for i, p := range ps {
		out[i] = phaseSpan{Name: p.Name, StartNS: p.StartNS, DurationNS: p.DurationNS}
	}
	return out
}
