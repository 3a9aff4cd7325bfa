package main

import (
	"context"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	f := pos - float64(lo)
	return s[lo] + f*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// replays times op over items 0..n-1 in passes: at least minPasses whole
// passes, then on until budget is spent. It returns each item's fastest
// time over the passes (op returns the item's wall time in seconds).
// Every pass repeats identical work, and host interference comes in
// bursts of seconds, so an item's fastest replay is its time without the
// interference. An error from op ends the run.
func replays(n, minPasses int, budget time.Duration, op func(pass, item int) (float64, error)) ([]float64, error) {
	best := make([]float64, n)
	for i := range best {
		best[i] = math.Inf(1)
	}
	start := time.Now()
	for pass := 0; ; pass++ {
		for i := range best {
			if pass >= minPasses && time.Since(start) >= budget {
				return best, nil
			}
			t, err := op(pass, i)
			if err != nil {
				return nil, err
			}
			best[i] = min(best[i], t)
		}
	}
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// seconds times fn in wall-clock seconds.
func seconds(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// medianOf runs fn reps times and returns the median of the durations fn
// reports (fn times only the part it wants measured).
func medianOf(reps int, fn func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = fn()
	}
	return median(xs)
}

// labeled runs fn under runtime/pprof labels naming the workload and the
// layer, so the traced run's CPU profile splits by layer. Goroutines fn
// starts inherit the labels.
func labeled(workload, layer string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("workload", workload, "layer", layer),
		func(context.Context) { fn() })
}

// allocBytes returns the bytes allocated on the heap so far.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
