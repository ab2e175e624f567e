package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/eclat"
	"repro/internal/mining"
	"repro/internal/obsv"
	"repro/internal/paircount"
	"repro/internal/store"
	"repro/internal/tidlist"
)

// layerInput is what the layer replays of a traced run need from the
// workload: its first dataset, the support its operations mine at, which
// engine path they take, its distinct outputs, and its daemon, if any.
type layerInput struct {
	db       *repro.Database
	minsup   int
	vertical bool // the workload mines vertical data (store or registry)
	// mine is the workload's own mining call at a given representation;
	// nil means repro.MineFrom on a store-backed copy of db with one worker,
	// the daemon's per-job share on this host.
	mine    func(ctx context.Context, r repro.Representation) (*repro.RunInfo, error)
	results []*repro.Result

	f              *fleet // nil: the service replay starts its own daemon on db
	dataset        string
	serviceSupport int
}

var reprs = []repro.Representation{repro.ReprSparse, repro.ReprBitset, repro.ReprRoaring, repro.ReprAuto}

// timed runs fn reps times and returns each duration in ms.
func timed(reps int, fn func() error) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(start)))
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// replayLibrary times the calls into each library layer on the
// workload's data, so every workload reports every layer, including the
// ones its operations bypass. Each call gets a span on lane 20.
func replayLibrary(ctx context.Context, tr *tracer, in layerInput, dir string, reps int) (map[string]float64, error) {
	m := make(map[string]float64)
	req := nextReq()
	const lane = 20
	spanned := func(name string, fn func() error) func() error {
		return func() error {
			start := time.Now()
			err := fn()
			tr.add(name, 0, req, lane, start, time.Now())
			return err
		}
	}
	d, minsup := in.db, in.minsup

	// paircount: the horizontal L2 count (the paper's initialization scan).
	var pc *paircount.Counter
	t, err := timed(reps, spanned("paircount.AddPartition", func() error {
		pc = paircount.New(d.NumItems)
		pc.AddPartition(d)
		return nil
	}))
	if err != nil {
		return nil, err
	}
	m["paircount.count_ms"] = median(t)

	// tidlist.BuildPairs: the vertical transformation of the frequent pairs.
	want := make(map[tidlist.Pair]bool)
	for _, fp := range pc.Frequent(minsup) {
		want[fp.Pair] = true
	}
	if t, err = timed(reps, spanned("tidlist.BuildPairs", func() error {
		tidlist.BuildPairs(d, want)
		return nil
	})); err != nil {
		return nil, err
	}
	m["tidlist.build_pairs_ms"] = median(t)

	// store: register, open, and build each encoding's view.
	st, err := store.Open(filepath.Join(dir, "store"), nil)
	if err != nil {
		return nil, err
	}
	lists := store.VerticalLists(d)
	start := time.Now()
	sd, err := st.Register(store.DatasetMeta("replay", "bench", d), d, lists)
	tr.add("store.Register", 0, req, lane, start, time.Now())
	if err != nil {
		st.Close()
		return nil, err
	}
	m["store.register_ms"] = ms(time.Since(start))
	m["store.bytes_mapped"] = float64(sd.BytesMapped())
	if err := st.Close(); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "open")
	if err := store.CreateDataset(path, store.DatasetMeta("open", "bench", d), d, lists); err != nil {
		return nil, err
	}
	if t, err = timed(2*reps, spanned("store.OpenDataset", func() error {
		sd, err := store.OpenDataset(path)
		if err != nil {
			return err
		}
		return sd.Close()
	})); err != nil {
		return nil, err
	}
	m["store.open_ms_p50"] = median(t)
	if sd, err = store.OpenDataset(path); err != nil {
		return nil, err
	}
	defer sd.Close()
	for _, r := range []repro.Representation{repro.ReprAuto, repro.ReprBitset, repro.ReprRoaring} {
		if t, err = timed(reps, spanned("store.Sets", func() error {
			sd.Sets(r)
			return nil
		})); err != nil {
			return nil, err
		}
		m["store.sets_ms."+r.String()] = median(t)
	}

	// tidlist kernels: every frequent-item pair through the
	// short-circuited intersection, as the vertical L2 runs them.
	var frequent []int
	for it, l := range sd.SparseLists() {
		if len(l) >= minsup {
			frequent = append(frequent, it)
		}
	}
	for _, r := range reprs {
		sets := sd.Sets(r)
		var ks tidlist.KernelStats
		var scratch tidlist.Set
		var ms0, ms1 runtime.MemStats
		calls := 0
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for i, a := range frequent {
			for _, b := range frequent[i+1:] {
				scratch, _, _ = tidlist.IntersectSetsSC(scratch, sets[a], sets[b], minsup, &ks)
				calls++
			}
		}
		el := time.Since(start)
		runtime.ReadMemStats(&ms1)
		tr.add("tidlist.IntersectSetsSC", 0, req, lane, start, start.Add(el))
		calls = max(calls, 1)
		m["tidlist.l2_sc_ns_per_call."+r.String()] = float64(el.Nanoseconds()) / float64(calls)
		m["tidlist.l2_alloc_b_per_call."+r.String()] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(calls)
	}

	// repro: the workload's own mining call per representation, and a
	// horizontal repro.Mine for the transformation phase every workload
	// reports.
	mine := in.mine
	if mine == nil {
		mine = func(ctx context.Context, r repro.Representation) (*repro.RunInfo, error) {
			_, info, err := repro.MineFrom(ctx, sd, repro.MineOptions{SupportCount: minsup, Representation: r, Parallelism: 1})
			return info, err
		}
	}
	var inits, asyncs, overheads []float64
	for _, r := range reprs {
		var runs []float64
		for i := 0; i < reps; i++ {
			start := time.Now()
			info, err := mine(ctx, r)
			if err != nil {
				return nil, err
			}
			runs = append(runs, ms(time.Since(start)))
			id := tr.add("repro.mine."+r.String(), 0, req, lane, start, time.Now())
			tr.phases(id, req, lane, start, toPhaseSpans(info.Phases))
			overheads = append(overheads, ms(time.Duration(info.WallNS-phaseSum(info.Phases))))
			if r == repro.ReprAuto {
				inits = append(inits, ms(time.Duration(phaseNS(info.Phases, "initialization"))))
				asyncs = append(asyncs, ms(time.Duration(phaseNS(info.Phases, "asynchronous"))))
			}
		}
		m["repro.mine_ms."+r.String()] = median(runs)
	}
	m["eclat.init_ms_p50"] = median(inits)
	m["eclat.async_ms_p50"] = median(asyncs)
	m["repro.overhead_ms_p50"] = median(overheads)
	var transforms []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		_, info, err := repro.Mine(ctx, d, repro.MineOptions{SupportCount: minsup})
		if err != nil {
			return nil, err
		}
		id := tr.add("repro.Mine", 0, req, lane, start, time.Now())
		tr.phases(id, req, lane, start, toPhaseSpans(info.Phases))
		transforms = append(transforms, ms(time.Duration(phaseNS(info.Phases, "transformation"))))
	}
	m["eclat.transform_ms_p50"] = median(transforms)

	// eclat: one engine run on the workload's path for its work counters.
	before, err := localCounters()
	if err != nil {
		return nil, err
	}
	start = time.Now()
	var es eclat.Stats
	if in.vertical {
		_, es, err = eclat.MineVerticalLocal(ctx, eclat.VerticalInput{NumTransactions: d.Len(), Items: sd.Sets(repro.ReprAuto)},
			minsup, eclat.Options{Workers: runtime.GOMAXPROCS(0)})
	} else {
		_, es, err = eclat.MineParallelLocal(ctx, d, minsup, eclat.Options{Workers: runtime.GOMAXPROCS(0)})
	}
	if err != nil {
		return nil, err
	}
	tr.add("eclat.engine", 0, req, lane, start, time.Now())
	after, err := localCounters()
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	m["eclat.intersections"] = float64(es.Intersections)
	m["eclat.shortcircuit_ratio"] = float64(es.ShortCircuited) / float64(max(es.Intersections, 1))
	m["eclat.kernel_ops"] = float64(es.IntersectOps)
	m["eclat.steals"] = float64(es.Steals)
	m["eclat.diffset_classes"] = float64(es.DiffsetClasses)
	m["eclat.classes"] = delta("eclat_classes_total") + delta("eclat_classes_mined_total")
	var dispatches float64
	for _, k := range []string{"sparse", "dense", "mixed", "roaring"} {
		dispatches += delta("tidlist_intersect_" + k + "_total")
	}
	for _, k := range []string{"sparse", "dense", "mixed", "roaring"} {
		m["eclat.kernel_split."+k] = delta("tidlist_intersect_"+k+"_total") / max(dispatches, 1)
	}

	// mining: serialize each distinct output of the workload.
	var writes, sizes []float64
	for _, res := range in.results {
		var n countWriter
		start := time.Now()
		if err := mining.Write(&n, res); err != nil {
			return nil, err
		}
		writes = append(writes, ms(time.Since(start)))
		sizes = append(sizes, float64(n)/1024)
	}
	m["mining.write_ms_p50"] = median(writes)
	m["mining.result_kb_p50"] = median(sizes)
	return m, nil
}

func phaseSum(ps []repro.PhaseSpan) int64 {
	var sum int64
	for _, p := range ps {
		if !p.Virtual() {
			sum += p.DurationNS
		}
	}
	return sum
}

func phaseNS(ps []repro.PhaseSpan, name string) int64 {
	var sum int64
	for _, p := range ps {
		if p.Name == name {
			sum += p.DurationNS
		}
	}
	return sum
}

// localCounters snapshots this process's metrics registry.
func localCounters() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := obsv.Default.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return flattenMetrics(buf.Bytes())
}

// replayService runs four uncached all/auto jobs at supports outside the
// workload's key set and then each once more as a cache hit, so every
// workload reports every service hop. Without a workload daemon it starts
// one on the workload's first dataset.
func replayService(ctx context.Context, e env, tr *tracer, in layerInput) ([]op, error) {
	f, name := in.f, in.dataset
	if f == nil {
		var err error
		if f, err = startFleet(ctx, e, "replay", []*repro.Database{in.db}); err != nil {
			return nil, err
		}
		defer f.stop()
		name = f.names[0]
	}
	var ops []op
	var buf bytes.Buffer
	for round := 0; round < 2; round++ {
		for i := 0; i < 4; i++ {
			spec := jobSpec{Dataset: name, SupportCount: in.serviceSupport + i}
			o := httpOp(ctx, f.d, spec, time.Now(), 21, 0, tr, &buf)
			if o.err != nil {
				return nil, fmt.Errorf("service replay: %w", o.err)
			}
			ops = append(ops, o)
		}
	}
	return ops, nil
}
