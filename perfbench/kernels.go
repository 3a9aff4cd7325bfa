package main

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/geom"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
	"github.com/uwb-sim/concurrent-ranging/internal/sim"
)

// workloadShapes is the pulse-shape count of each workload's bank: the
// museum's 3, the full 108, and the 4 of the swarm's slot plan.
var workloadShapes = map[string]int{"session": museumShapes, "bank108": pulse.NumShapes, "swarm": 4}

// upLen is the up-sampled CIR length the detector searches (U = 4).
const upLen = core.DefaultUpsample * dw1000.CIRLength

// kernels times the layer kernels directly at the detector's sizes, and
// the set-up layers at the workload's bank size. Each value is the median
// over blocks of calls.
func kernels(workload string, cfg runConfig) (*outcome, error) {
	out := newOutcome()
	m := out.metrics
	m["host.calib_ms"] = calibrate()
	blocks := cfg.size(7, 3, 2)
	calls := cfg.size(200, 20, 4)
	rng := rand.New(rand.NewPCG(cfg.seed, 0x6b))
	sig := make([]complex128, upLen)
	for i := range sig {
		sig[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}

	// FFTPlan.Execute at the spectral search size NextPow2(U·CIRLength);
	// forward and inverse alternate so the data stay bounded.
	plan, err := dsp.NewFFTPlan(dsp.NextPow2(upLen))
	if err != nil {
		return nil, err
	}
	v := make([]complex128, plan.Len())
	copy(v, sig)
	labeled(workload, "dsp.fft", func() {
		m["dsp.fft_us"] = 1e6 * medianOf(blocks, func() float64 {
			return seconds(func() {
				for i := 0; i < calls; i++ {
					plan.Execute(v)
					plan.ExecuteInverse(v)
				}
			}) / float64(2*calls)
		})
	})

	// MatchedFilterBank.FilterPeak over the session's 3 templates and
	// SpectralBank.ScanBest over all 108, on one ingested signal.
	for _, k := range []struct {
		name   string
		shapes int
		scan   func(bank [][]complex128) (func(t int) error, error)
	}{
		{"dsp.filter_peak_us", museumShapes, func(tmpls [][]complex128) (func(int) error, error) {
			fb, err := dsp.NewMatchedFilterBank(tmpls, upLen)
			if err != nil {
				return nil, err
			}
			if err := fb.Transform(sig); err != nil {
				return nil, err
			}
			scratch := fb.NewScratch()
			return func(t int) error { _, _, _, err := fb.FilterPeak(scratch, t, nil); return err }, nil
		}},
		{"dsp.scan_best_us", pulse.NumShapes, func(tmpls [][]complex128) (func(int) error, error) {
			sb, err := dsp.NewSpectralBank(tmpls, upLen)
			if err != nil {
				return nil, err
			}
			if err := sb.Ingest(sig); err != nil {
				return nil, err
			}
			scratch := sb.NewScratch()
			return func(t int) error { _, _, _, err := sb.ScanBest(scratch, t, nil); return err }, nil
		}},
	} {
		bank, err := pulse.DefaultBank(dw1000.SampleInterval, k.shapes)
		if err != nil {
			return nil, err
		}
		tmpls := make([][]complex128, bank.Len())
		for i := range tmpls {
			tmpls[i] = bank.Shape(i).Template(dw1000.SampleInterval / core.DefaultUpsample)
		}
		call, err := k.scan(tmpls)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.name, err)
		}
		var cerr error
		labeled(workload, strings.TrimSuffix(k.name, "_us"), func() {
			m[k.name] = 1e6 * medianOf(blocks, func() float64 {
				return seconds(func() {
					for i := 0; i < calls; i++ {
						if err := call(i % len(tmpls)); err != nil && cerr == nil {
							cerr = err
						}
					}
				}) / float64(calls)
			})
		})
		if cerr != nil {
			return nil, fmt.Errorf("%s: %w", k.name, cerr)
		}
	}

	// Set-up layers at the workload's bank size.
	shapes := workloadShapes[workload]
	var bank *pulse.Bank
	labeled(workload, "pulse.bank_build", func() {
		m["pulse.bank_build_ms"] = 1e3 * medianOf(blocks, func() float64 {
			return seconds(func() { bank, err = pulse.DefaultBank(dw1000.SampleInterval, shapes) })
		})
	})
	if err != nil {
		return nil, err
	}
	labeled(workload, "core.new_detector", func() {
		m["core.new_detector_ms"] = 1e3 * medianOf(cfg.size(3, 1, 1), func() float64 {
			return seconds(func() {
				if _, e := core.NewDetector(bank, core.DetectorConfig{}); e != nil {
					err = e
				}
			})
		})
	})
	if err != nil {
		return nil, err
	}

	// Track.Pos on swarm-like tracks: default mobility over the default
	// horizon plus the swarm's 10 ms margin, queried at random times.
	const horizon = 0.21
	tracks := make([]sim.Track, 256)
	for i := range tracks {
		home := geom.Point{X: 100 * rng.Float64(), Y: 100 * rng.Float64()}
		tracks[i] = sim.NewTrack(home, sim.MobilityConfig{RoamRadius: 10, MinSpeed: 0.5, MaxSpeed: 1.5},
			rand.New(rand.NewPCG(cfg.seed, uint64(i))), horizon)
	}
	times := make([]float64, 4096)
	for i := range times {
		times[i] = horizon * rng.Float64()
	}
	posCalls := 1000 * calls
	var sink geom.Point
	labeled(workload, "sim.track_pos", func() {
		m["sim.track_pos_ns"] = 1e9 * medianOf(blocks, func() float64 {
			return seconds(func() {
				for i := 0; i < posCalls; i++ {
					p := tracks[i%len(tracks)].Pos(times[i%len(times)])
					sink.X += p.X
				}
			}) / float64(posCalls)
		})
	})
	kernelSink = sink.X

	// Single-heap Engine: schedule events at random times, then run them.
	evCalls := 500 * calls
	at := make([]float64, evCalls)
	for i := range at {
		at[i] = rng.Float64()
	}
	noop := func() {}
	labeled(workload, "sim.engine", func() {
		m["sim.engine_event_ns"] = 1e9 * medianOf(blocks, func() float64 {
			var e sim.Engine
			return seconds(func() {
				for _, t := range at {
					if err := e.Schedule(t, noop); err != nil {
						panic(err) // times are non-negative and fn is non-nil
					}
				}
				e.Run()
			}) / float64(evCalls)
		})
	})
	return out, nil
}

// kernelSink keeps kernel results live.
var kernelSink float64
