package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

// bankNoise is the receiver noise RMS of the rendered CIRs, as in the
// fullbank experiment.
const bankNoise = 1.4e-5

// bankCIR is one rendered CIR with its ground truth: the pulse centers in
// samples and the shape index of each rendered responder.
type bankCIR struct {
	in     core.BatchInput
	delays []float64
	shapes []int
}

// renderBankCIR builds CIR idx of a seed's stream: 1, 2 or 3 overlapped
// responders in rotation, each with a random one of the bank's shapes,
// equal-distance arrivals spread over the ~8 ns delayed-TX step, plus
// receiver noise (the construction of experiments.fullBankTrain).
func renderBankCIR(bank *pulse.Bank, seed uint64, idx int) bankCIR {
	r := rand.New(rand.NewPCG(seed+uint64(idx)*9241, 73))
	c := bankCIR{in: core.BatchInput{Taps: make([]complex128, dw1000.CIRLength), NoiseRMS: bankNoise}}
	base := 80 + r.Float64()*800
	for i := 0; i < 1+idx%3; i++ {
		mag := bankNoise * (30 + r.Float64()*300)
		ph := r.Float64() * 2 * math.Pi
		delay := base + (r.Float64()-0.5)*8
		shape := r.IntN(bank.Len())
		bank.Shape(shape).RenderInto(c.in.Taps, complex(mag*math.Cos(ph), mag*math.Sin(ph)), delay, dw1000.SampleInterval)
		c.delays = append(c.delays, delay)
		c.shapes = append(c.shapes, shape)
	}
	sigma := bankNoise / math.Sqrt2
	for i := range c.in.Taps {
		c.in.Taps[i] += complex(r.NormFloat64()*sigma, r.NormFloat64()*sigma)
	}
	return c
}

// bankScore tallies identification accuracy against the rendered truth.
type bankScore struct {
	rendered, matched, rightShape, emitted int
}

// add matches rendered responders to detections one to one, closest pairs
// first, within ±0.5 sample.
func (sc *bankScore) add(c bankCIR, got []core.Response) {
	type pair struct {
		d    float64
		t, g int
	}
	var pairs []pair
	for t, delay := range c.delays {
		for g, r := range got {
			if d := math.Abs(r.Delay/dw1000.SampleInterval - delay); d <= 0.5 {
				pairs = append(pairs, pair{d, t, g})
			}
		}
	}
	slices.SortFunc(pairs, func(a, b pair) int {
		switch {
		case a.d < b.d:
			return -1
		case a.d > b.d:
			return 1
		}
		return 0
	})
	usedT, usedG := map[int]bool{}, map[int]bool{}
	matched := 0
	for _, p := range pairs {
		if usedT[p.t] || usedG[p.g] {
			continue
		}
		usedT[p.t], usedG[p.g] = true, true
		matched++
		if got[p.g].TemplateIndex == c.shapes[p.t] {
			sc.rightShape++
		}
	}
	sc.rendered += len(c.delays)
	sc.matched += matched
	sc.emitted += len(got)
}

func (sc *bankScore) metrics(m map[string]float64) {
	m["delay_match_frac"] = ratio(float64(sc.matched), float64(sc.rendered))
	m["found_frac"] = m["delay_match_frac"]
	m["shape_id_frac"] = ratio(float64(sc.rightShape), float64(sc.matched))
	m["spurious_frac"] = ratio(float64(sc.emitted-sc.matched), float64(sc.emitted))
}

func fullBank() (*pulse.Bank, error) {
	return pulse.DefaultBank(dw1000.SampleInterval, pulse.NumShapes)
}

// runBank is the untraced bank108 run: a pool of seeded CIRs in batches
// through core.BatchDetector.DetectBatch with one worker per CPU and the
// default auto-stop.
func runBank(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	setup, err := medianSetup(cfg.size(15, 1, 1), func() error {
		bank, err := fullBank()
		if err != nil {
			return err
		}
		bd, err := core.NewBatchDetector(bank, core.DetectorConfig{}, cfg.workers)
		if err != nil {
			return err
		}
		bd.Close()
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = setup

	bank, err := fullBank()
	if err != nil {
		return nil, err
	}
	bd, err := core.NewBatchDetector(bank, core.DetectorConfig{}, cfg.workers)
	if err != nil {
		return nil, err
	}
	defer bd.Close()
	batch := 3 * cfg.workers // whole 1-2-3 rotations per worker
	pool := make([]bankCIR, cfg.size(120, 2, 1)*batch)
	inputs := make([]core.BatchInput, len(pool))
	for i := range pool {
		pool[i] = renderBankCIR(bank, cfg.seed, i)
		inputs[i] = pool[i].in
	}
	// Each pass detects the whole pool; later passes must repeat the
	// first pass's detections bit for bit. The pool is sized for the
	// accuracy fractions, so one pass takes about the whole budget.
	first := make([][]core.Response, len(pool))
	best, err := replays(len(pool)/batch, 1, cfg.budget, func(pass, k int) (float64, error) {
		var res []core.BatchResult
		t := seconds(func() { res = bd.DetectBatch(inputs[k*batch : (k+1)*batch]) })
		for j, r := range res {
			i := k*batch + j
			out.attempted++
			switch {
			case r.Err != nil:
				out.fail("pass %d CIR %d: %v", pass, i, r.Err)
			case pass == 0:
				first[i] = slices.Clone(r.Responses)
			case !slices.Equal(first[i], r.Responses):
				out.fail("pass %d CIR %d: detection differs from pass 0", pass, i)
			}
		}
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	var score bankScore
	for i, c := range pool {
		score.add(c, first[i])
	}
	m := out.metrics
	m["round_p50_ms"] = 1e3 * median(best)
	m["round_p90_ms"] = 1e3 * quantile(best, 0.9)
	m["cirs_per_s"] = float64(len(pool)) / sum(best)
	m["events_per_s"] = float64(score.emitted) / sum(best)
	score.metrics(m)

	// Correctness: batch results must be bit-identical to a single-thread
	// warm detector.
	det, err := core.NewDetector(bank, core.DetectorConfig{Workers: 1})
	if err != nil {
		return nil, err
	}
	for i := range pool[:batch] {
		want, err := det.Detect(pool[i].in.Taps, pool[i].in.NoiseRMS)
		if err != nil {
			out.fail("warm CIR %d: %v", i, err)
			continue
		}
		if first[i] != nil && !slices.Equal(want, first[i]) {
			out.fail("CIR %d: batch result differs from the warm single-thread Detect", i)
		}
	}
	return out, nil
}

// traceBank is the traced bank108 run. One set of CIRs goes through an
// untraced batch pass, a warm single-thread Detect loop, and a batch pass
// with an obs.Registry attached; both batch passes must equal the warm
// loop bit for bit.
func traceBank(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	bank, err := fullBank()
	if err != nil {
		return nil, err
	}
	batch := 3 * cfg.workers
	minCIRs := cfg.size(8, 1, 1) * batch
	var cirs []bankCIR
	var plain []float64
	var plainRes [][]core.Response
	// Batch detectors are built under the labels so that the pool's
	// worker goroutines carry them.
	var bd *core.BatchDetector
	labeled("bank108", "core.batch", func() {
		bd, err = core.NewBatchDetector(bank, core.DetectorConfig{}, cfg.workers)
	})
	if err != nil {
		return nil, err
	}
	var allocs uint64
	start := time.Now()
	for len(cirs) < minCIRs || time.Since(start) < cfg.budget/4 {
		inputs := make([]core.BatchInput, batch)
		for j := range inputs {
			c := renderBankCIR(bank, cfg.seed, len(cirs))
			cirs = append(cirs, c)
			inputs[j] = c.in
		}
		var res []core.BatchResult
		a0 := allocBytes()
		labeled("bank108", "core.batch", func() {
			plain = append(plain, seconds(func() { res = bd.DetectBatch(inputs) }))
		})
		allocs += allocBytes() - a0
		for _, r := range res {
			plainRes = append(plainRes, slices.Clone(r.Responses))
		}
	}
	allocPerCIR := float64(allocs) / float64(len(cirs))
	bd.Close()

	det, err := core.NewDetector(bank, core.DetectorConfig{Workers: 1})
	if err != nil {
		return nil, err
	}
	warm := make([]float64, len(cirs))
	warmRes := make([][]core.Response, len(cirs))
	var score bankScore
	for i, c := range cirs {
		out.attempted++
		var derr error
		labeled("bank108", "core.detect", func() {
			warm[i] = seconds(func() { warmRes[i], derr = det.Detect(c.in.Taps, c.in.NoiseRMS) })
		})
		if derr != nil {
			out.fail("warm CIR %d: %v", i, derr)
			continue
		}
		score.add(c, warmRes[i])
		if !slices.Equal(warmRes[i], plainRes[i]) {
			out.fail("CIR %d: batch result differs from the warm single-thread Detect", i)
		}
	}

	reg := obs.NewRegistry()
	var traced []float64
	var tbd *core.BatchDetector
	labeled("bank108", "core.batch", func() {
		tbd, err = core.NewBatchDetector(bank, core.DetectorConfig{}, cfg.workers)
	})
	if err != nil {
		return nil, err
	}
	defer tbd.Close()
	tbd.SetRecorder(reg)
	for lo := 0; lo < len(cirs); lo += batch {
		inputs := make([]core.BatchInput, batch)
		for j := range inputs {
			inputs[j] = cirs[lo+j].in
		}
		var res []core.BatchResult
		labeled("bank108", "core.batch", func() {
			traced = append(traced, seconds(func() { res = tbd.DetectBatch(inputs) }))
		})
		for j, r := range res {
			if r.Err != nil {
				out.fail("traced CIR %d: %v", lo+j, r.Err)
			} else if !slices.Equal(warmRes[lo+j], r.Responses) {
				out.fail("traced CIR %d: batch result differs from the warm single-thread Detect", lo+j)
			}
		}
	}

	n := float64(len(cirs))
	m := out.metrics
	m["core.detect1_p50_ms"] = 1e3 * median(warm)
	m["core.detect_p50_ms"] = 1e3 * median(warm)
	m["core.detect_p90_ms"] = 1e3 * quantile(warm, 0.9)
	m["core.batch_s"] = median(plain)
	m["core.batch_parallel_eff"] = sum(warm) / (float64(cfg.workers) * sum(plain))
	m["core.warm_loop_cirs_per_s"] = n / sum(warm)
	m["core.batch_speedup"] = sum(warm) / sum(plain)
	detectorCounts(reg, n, m)
	m["core.useful_round_frac"] = ratio(float64(score.matched), reg.Histogram(core.MetricDetectIterations).Sum())
	m["alloc_bytes_per_op"] = allocPerCIR
	m["trace_overhead_frac"] = sum(traced)/sum(plain) - 1
	return out, nil
}
