package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
)

// jobSpec is the JSON body of POST /v1/jobs.
type jobSpec struct {
	Dataset        string `json:"dataset"`
	Variant        string `json:"variant,omitempty"`
	Representation string `json:"representation,omitempty"`
	SupportCount   int    `json:"supportCount"`
	TopK           int    `json:"topK,omitempty"`
	MustContain    []int  `json:"mustContain,omitempty"`
	MemoryBudget   int64  `json:"memoryBudget,omitempty"`
}

// cacheKey mirrors the daemon's result-cache identity: every field but
// the memory budget, with the daemon's defaults filled in. Two specs with
// one key would make the second a cache hit.
func (j jobSpec) cacheKey() string {
	variant, repr := j.Variant, j.Representation
	if variant == "" {
		variant = "all"
	}
	if repr == "" {
		repr = "auto"
	}
	must := append([]int(nil), j.MustContain...)
	sort.Ints(must)
	ms := make([]string, len(must))
	for i, it := range must {
		ms[i] = strconv.Itoa(it)
	}
	return fmt.Sprintf("%s/%s/%s/%d/topk=%d/contains=%s", j.Dataset, variant, repr, j.SupportCount, j.TopK, strings.Join(ms, ","))
}

// coldKind is one entry of serve_cold's request mix.
type coldKind int

const (
	kindAuto coldKind = iota
	kindSparse
	kindRoaring
	kindBitset
	kindMaximal
	kindClosed
	kindTopK
	kindMust
	kindBudget
)

// coldDeck is the serve_cold mix as 20 cards, dealt in a fresh seeded
// shuffle every 20 jobs, so every window of 20 jobs has the exact mix:
// 40% all/auto, 10% sparse, 10% roaring, 5% bitset, 10% maximal,
// 5% closed, 10% top-k, 5% must-contain, 5% all/auto under a memory budget.
var coldDeck = [20]coldKind{
	kindAuto, kindAuto, kindAuto, kindAuto, kindAuto, kindAuto, kindAuto, kindAuto,
	kindSparse, kindSparse, kindRoaring, kindRoaring, kindBitset,
	kindMaximal, kindMaximal, kindClosed, kindTopK, kindTopK, kindMust, kindBudget,
}

// coldDataset is what the generator needs to know about one dataset.
type coldDataset struct {
	name   string
	top    []int // the ten most frequent items, for must-contain queries
	budget int64 // a quarter of the dataset's mapped bundle bytes
}

// coldGen deals serve_cold's job stream: each job's kind from the deck,
// its dataset round-robin, and its support from [lo, hi] in a
// low-discrepancy order per (dataset, cache-key class), so any prefix of
// the stream samples the support range evenly and every seed sees the
// same spread of job costs. Every key is distinct (asserted); when a
// class has used every support in the range the stream ends.
type coldGen struct {
	rng      *rand.Rand
	datasets []coldDataset
	lo, hi   int
	order    []int
	deck     [20]coldKind
	n        int
	cursor   map[string]int // per class: supports used
	offset   map[string]int // per class: seeded rotation of the order
	used     map[string]bool
}

func newColdGen(seed int64, datasets []coldDataset, lo, hi int) *coldGen {
	return &coldGen{rng: rand.New(rand.NewSource(seed)), datasets: datasets, lo: lo, hi: hi,
		order: spreadOrder(hi - lo + 1), cursor: map[string]int{}, offset: map[string]int{}, used: map[string]bool{}}
}

// next returns the next job, or ok=false once the key space is exhausted.
func (g *coldGen) next() (jobSpec, bool) {
	if g.n%len(g.deck) == 0 {
		g.deck = coldDeck
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	kind := g.deck[g.n%len(g.deck)]
	ds := g.datasets[g.n%len(g.datasets)]
	g.n++
	spec := jobSpec{Dataset: ds.name}
	switch kind {
	case kindSparse:
		spec.Representation = "sparse"
	case kindRoaring:
		spec.Representation = "roaring"
	case kindBitset:
		spec.Representation = "bitset"
	case kindMaximal:
		spec.Variant = "maximal"
	case kindClosed:
		spec.Variant = "closed"
	case kindTopK:
		spec.TopK = 100
	case kindMust:
		spec.MustContain = []int{ds.top[g.rng.Intn(len(ds.top))]}
	case kindBudget:
		spec.MemoryBudget = ds.budget
	}
	// The support is the only field left to vary, so the class is the key
	// without it: a budgeted job shares its class with plain all/auto.
	class := spec.cacheKey()
	c := g.cursor[class]
	if c >= len(g.order) {
		return jobSpec{}, false
	}
	if c == 0 {
		g.offset[class] = g.rng.Intn(len(g.order))
	}
	g.cursor[class] = c + 1
	spec.SupportCount = g.lo + (g.order[c]+g.offset[class])%len(g.order)
	key := spec.cacheKey()
	if g.used[key] {
		panic("bench: serve_cold generator repeated cache key " + key)
	}
	g.used[key] = true
	return spec, true
}

// spreadOrder returns a permutation of 0..n-1 in bit-reversed
// (van der Corput) order: every prefix is spread nearly evenly over the
// range.
func spreadOrder(n int) []int {
	bits := 0
	for 1<<bits < n {
		bits++
	}
	out := make([]int, 0, n)
	for i := 0; i < 1<<bits; i++ {
		r := 0
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				r |= 1 << (bits - 1 - b)
			}
		}
		if r < n {
			out = append(out, r)
		}
	}
	return out
}

// poissonSchedule returns the send offsets of a Poisson arrival process
// at rate per second over window, conditioned on its expected count: that
// many uniform offsets, sorted. Every seed then offers the same load;
// the seed moves only the arrival times. Deterministic in seed.
func poissonSchedule(seed int64, rate float64, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, int(rate*window.Seconds()))
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// zipfDeck returns n key ranks in [0, keys) with Zipf(s) frequencies, rank
// k taking a share proportional to (k+1)^-s, conditioned like
// poissonSchedule on their expected counts: each rank appears its share
// of n times, rounded by largest remainder, in a seeded shuffle. Every
// seed then requests the same mix; the seed moves only the order.
func zipfDeck(seed int64, s float64, keys, n int) []int {
	w := make([]float64, keys)
	var sum float64
	for k := range w {
		w[k] = math.Pow(float64(k+1), -s)
		sum += w[k]
	}
	out := make([]int, 0, n)
	rem := make([]int, keys) // ranks by fractional part of their share, descending
	for k := range w {
		share := w[k] / sum * float64(n)
		for i := 0; i < int(share); i++ {
			out = append(out, k)
		}
		w[k] = share - math.Floor(share)
		rem[k] = k
	}
	sort.SliceStable(rem, func(i, j int) bool { return w[rem[i]] > w[rem[j]] })
	for i := 0; len(out) < n; i++ {
		out = append(out, rem[i])
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
