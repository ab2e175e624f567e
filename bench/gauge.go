package main

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// gauge measures how fast the host runs while a run takes place. On a
// shared host the CPU time of a fixed computation drifts by ±20% over
// minutes with the other tenants' load, even though CPU time already
// leaves out stolen time. The gauge is a fixed unit of the work the
// miners' hot loops do (a sorted merge, bitset AND and popcount, scattered
// counter increments), small enough to stay in the L2 cache so that where
// the kernel places its pages does not change its speed, and written in
// the benchmark alone, so no change to the program can change its cost.
// A sampler runs one unit every gaugePeriod through the setups and the
// measured window, and the median unit CPU time scales the run's CPU
// metrics to the host's reference speed (see factor).
type gauge struct {
	a, b   []uint32
	x, y   []uint64
	counts []uint32
	sink   int

	total atomic.Int64 // CPU ns of all units so far

	mu      sync.Mutex
	samples []time.Duration // CPU time of each unit
	err     error

	stopOnce sync.Once
	done     chan struct{}
	exited   chan struct{}
}

// refUnit is the gauge unit's CPU time on the calibration host at its
// usual speed (bench/README.md). It only sets the scale of the normalized
// metrics and must never change, or every recorded result would shift.
const refUnit = 1600 * time.Microsecond

// gaugePeriod keeps the sampler near 3% of one CPU.
const gaugePeriod = 50 * time.Millisecond

func newGauge() *gauge {
	g := &gauge{a: make([]uint32, 50000), b: make([]uint32, 50000),
		x: make([]uint64, 4096), y: make([]uint64, 4096), counts: make([]uint32, 1<<14)}
	for i := range g.a {
		g.a[i], g.b[i] = uint32(2*i), uint32(3*i)
	}
	for i := range g.x {
		g.x[i], g.y[i] = uint64(i)*0x9E3779B97F4A7C15, uint64(i)*0xC2B2AE3D27D4EB4F
	}
	return g
}

// start runs the sampler until stop.
func (g *gauge) start() {
	g.done, g.exited = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(g.exited)
		runtime.LockOSThread() // thread CPU time must cover exactly one unit
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(gaugePeriod)
		defer tick.Stop()
		for {
			select {
			case <-g.done:
				return
			case <-tick.C:
			}
			t0, err := threadCPU()
			if err == nil {
				g.unit()
				var t1 time.Duration
				if t1, err = threadCPU(); err == nil {
					g.total.Add(int64(t1 - t0))
					g.mu.Lock()
					g.samples = append(g.samples, t1-t0)
					g.mu.Unlock()
					continue
				}
			}
			g.mu.Lock()
			g.err = err
			g.mu.Unlock()
			return
		}
	}()
}

// stop stops the sampler and returns once it has exited. It may be called
// more than once.
func (g *gauge) stop() {
	g.stopOnce.Do(func() {
		if g.done != nil {
			close(g.done)
			<-g.exited
		}
	})
}

func (g *gauge) unit() {
	n := 0
	for i, j := 0, 0; i < len(g.a) && j < len(g.b); {
		switch {
		case g.a[i] < g.b[j]:
			i++
		case g.a[i] > g.b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	for r := 0; r < 8; r++ {
		for k := range g.x {
			n += bits.OnesCount64(g.x[k] & g.y[k])
		}
	}
	s := uint64(88172645463325252)
	for k := 0; k < 300000; k++ { // xorshift64: scattered increments
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		g.counts[s%uint64(len(g.counts))]++
	}
	g.sink += n
}

// cpu is the CPU time the sampler has spent so far, which callers take out
// of this process's CPU time.
func (g *gauge) cpu() time.Duration { return time.Duration(g.total.Load()) }

// factor is refUnit over the median unit CPU time: a CPU time measured in
// this run, multiplied by it, is what it would have been at the reference
// speed. It also returns the number of units behind it.
func (g *gauge) factor() (float64, int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return 0, 0, fmt.Errorf("gauge: %w", g.err)
	}
	if len(g.samples) == 0 {
		return 0, 0, fmt.Errorf("gauge: no samples")
	}
	xs := make([]float64, len(g.samples))
	for i, d := range g.samples {
		xs[i] = float64(d)
	}
	return float64(refUnit) / median(xs), len(xs), nil
}
