package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(xs, 90); math.Abs(got-9.1) > 1e-9 {
		t.Errorf("p90 = %v, want 9.1", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// Python: statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v, %v, want 1, 4", q1, q3)
	}
	if got := spread([]float64{2, 2, 2, 2}); got != 0 {
		t.Errorf("spread of constants = %v", got)
	}
}

func TestColdGenKeysUniqueAndMixExact(t *testing.T) {
	datasets := []coldDataset{{name: "a", top: []int{1, 2, 3}, budget: 100}, {name: "b", top: []int{4, 5}, budget: 200}}
	gen := newColdGen(7, datasets, 10, 40)
	seen := map[string]bool{}
	var specs []jobSpec
	for {
		s, ok := gen.next()
		if !ok {
			break
		}
		if k := s.cacheKey(); seen[k] {
			t.Fatalf("repeated key %s", k)
		} else {
			seen[k] = true
		}
		if s.SupportCount < 10 || s.SupportCount > 40 {
			t.Fatalf("support %d outside [10, 40]", s.SupportCount)
		}
		specs = append(specs, s)
	}
	if len(specs) < 2*len(coldDeck) {
		t.Fatalf("only %d jobs before exhaustion", len(specs))
	}
	// Every full deck of 20 has the exact mix: 9 all/auto (one budgeted),
	// 2 maximal, 1 closed.
	for i := 0; i+len(coldDeck) <= len(specs); i += len(coldDeck) {
		auto, budget, maximal, closed := 0, 0, 0, 0
		for _, s := range specs[i : i+len(coldDeck)] {
			switch {
			case s.Variant == "maximal":
				maximal++
			case s.Variant == "closed":
				closed++
			case s.Representation == "" && s.TopK == 0 && s.MustContain == nil:
				auto++
				if s.MemoryBudget > 0 {
					budget++
				}
			}
		}
		if auto != 9 || budget != 1 || maximal != 2 || closed != 1 {
			t.Fatalf("deck at %d: auto=%d budget=%d maximal=%d closed=%d", i, auto, budget, maximal, closed)
		}
	}
	again := newColdGen(7, datasets, 10, 40)
	for i, s := range specs {
		if a, _ := again.next(); !reflect.DeepEqual(a, s) {
			t.Fatalf("job %d differs for the same seed: %+v vs %+v", i, a, s)
		}
	}
	other := newColdGen(8, datasets, 10, 40)
	same := true
	for _, s := range specs[:20] {
		if o, _ := other.next(); !reflect.DeepEqual(o, s) {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 dealt the same jobs")
	}
}

func TestSpreadOrderIsPermutation(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 61} {
		seen := make([]bool, n)
		for _, v := range spreadOrder(n) {
			if seen[v] {
				t.Fatalf("n=%d: %d repeated", n, v)
			}
			seen[v] = true
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("n=%d: %d missing", n, v)
			}
		}
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(3, 100, 20*time.Second)
	b := poissonSchedule(3, 100, 20*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(4, 100, 20*time.Second)) {
		t.Fatal("different seeds, same schedule")
	}
	for i, at := range a {
		if at < 0 || at >= 20*time.Second || (i > 0 && at < a[i-1]) {
			t.Fatalf("offset %d = %v out of order or window", i, at)
		}
	}
	if n := len(a); n != 2000 {
		t.Fatalf("%d arrivals in 20s at 100/s, want 2000", n)
	}
	deck := zipfDeck(3, 1.1, 8, 1000)
	if !reflect.DeepEqual(deck, zipfDeck(3, 1.1, 8, 1000)) {
		t.Fatal("zipf deck not deterministic")
	}
	if reflect.DeepEqual(deck, zipfDeck(4, 1.1, 8, 1000)) {
		t.Fatal("different seeds, same zipf deck")
	}
	counts := make([]int, 8)
	for _, k := range deck {
		counts[k]++
	}
	// 1000 · (k+1)^-1.1 / Σ_{j=1..8} j^-1.1, by largest remainder.
	if want := []int{398, 186, 119, 87, 68, 55, 47, 40}; len(deck) != 1000 || !reflect.DeepEqual(counts, want) {
		t.Fatalf("zipf deck of %d has counts %v, want %v", len(deck), counts, want)
	}
	if small := zipfDeck(5, 1.1, 8, 7); len(small) != 7 {
		t.Fatalf("deck of 7 has %d cards", len(small))
	}
}

func TestJudgeBounds(t *testing.T) {
	a := []float64{100, 101, 99, 100, 100, 102, 98}
	for _, c := range []struct {
		b      []float64
		better string
		want   string
	}{
		{[]float64{104, 104, 103, 105, 104, 104, 104}, "lower", "within bound"},
		{[]float64{110, 111, 109, 110, 110, 112, 108}, "lower", "REGRESSED"},
		{[]float64{90, 91, 89, 90, 90, 92, 88}, "higher", "REGRESSED"},
		{[]float64{110, 111, 109, 110, 110, 112, 108}, "higher", "within bound"},
		{[]float64{60, 140, 100, 80, 120, 100, 100}, "lower", "unresolved (spread > bound)"},
	} {
		if got, _ := judge(a, c.b, c.better, 0.05); got != c.want {
			t.Errorf("judge(%v, %s) = %q, want %q", c.b, c.better, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "service.run", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "service.result", Start: 50, End: 80}, // overlaps run by 10
		{ID: 4, Parent: 2, Name: "eclat.initialization", Start: 10, End: 40},
		{ID: 5, Parent: 1, Name: "service.submit", Start: 90, End: 120}, // clipped to the parent
	}
	got := selfTimes(spans)
	want := map[string]int64{"client.request": 100 - 70 - 10, "service.run": 50 - 30,
		"service.result": 30, "eclat.initialization": 30, "service.submit": 30}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, spans); err != nil || !bytes.Contains(buf.Bytes(), []byte(`"traceEvents"`)) {
		t.Fatalf("chrome trace: %v %s", err, buf.String())
	}
}

func TestJudgeFailures(t *testing.T) {
	clean := &sideRuns{runs: 10, attempted: 1000}
	for _, c := range []struct {
		a, b *sideRuns
		want string
	}{
		{clean, nil, "ok"},
		{&sideRuns{runs: 10, attempted: 1000, failed: 1, incorrect: 1}, nil, "FAIL"},
		{clean, &sideRuns{runs: 10, attempted: 900}, "within bound"},
		{clean, &sideRuns{runs: 10, attempted: 900, failed: 2}, "REGRESSED"},
		{clean, &sideRuns{runs: 10, attempted: 900, incorrect: 1}, "REGRESSED"},
	} {
		if got := judgeFailures(c.a, c.b); got != c.want {
			t.Errorf("judgeFailures(%+v, %+v) = %q, want %q", c.a, c.b, got, c.want)
		}
	}
}

// TestExpectedMatchesMiners checks the derived references against the
// program's own query options on a small database, for every query of
// the all variant the workloads issue.
func TestExpectedMatchesMiners(t *testing.T) {
	ctx := context.Background()
	d, err := repro.Generate(genConfig("t10", 600, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	base, err := reference(ctx, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	top := topItems(d, 3)
	for _, spec := range []jobSpec{
		{SupportCount: 5}, {SupportCount: 6, TopK: 25}, {SupportCount: 5, MustContain: []int{top[1]}},
	} {
		got, _, err := repro.Mine(ctx, d, repro.MineOptions{SupportCount: spec.SupportCount, TopK: spec.TopK, MustContain: spec.MustContain})
		if err != nil {
			t.Fatal(err)
		}
		exp, err := expected(ctx, d, base, spec)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(got) != fingerprint(exp) {
			t.Errorf("%+v: derived reference differs from the miner's output", spec)
		}
	}
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metrics this
// package reports in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf, err := readBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, code has %v", names, workloadNames)
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, e2eMetrics) {
		t.Errorf("end_to_end %v, code has %v", e2e, e2eMetrics)
	}
	if !reflect.DeepEqual(layer, layerMetrics) {
		t.Errorf("per_layer %v, code has %v", layer, layerMetrics)
	}
}

// TestSmoke runs every workload, untraced and traced, on the smoke preset
// against a freshly built daemon. It takes about 20 seconds, so it runs
// only with BENCH_SMOKE=1.
func TestSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") != "1" {
		t.Skip("set BENCH_SMOKE=1 to run the smoke preset")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "assocmined")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/assocmined")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the daemon: %v\n%s", err, out)
	}
	var log bytes.Buffer
	e := env{seed: 1, seconds: 1, smoke: true, daemon: bin, workdir: dir, log: &log}
	start := time.Now()
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			rep, err := runOne(context.Background(), name, e, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			defs := e2eMetrics
			if trace {
				defs = layerMetrics
			}
			r := rep.Result
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 || len(r.Metrics) != len(defs) {
				t.Fatalf("%s trace=%v: %+v\n%s", name, trace, r, log.String())
			}
		}
	}
	t.Logf("smoke preset: %v", time.Since(start))
}
