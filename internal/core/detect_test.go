package core

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

const ts = dw1000.SampleInterval

// pulseAt describes one synthetic response for test CIRs.
type pulseAt struct {
	shape pulse.Shape
	delay float64 // seconds relative to tap 0 (peak position)
	amp   complex128
}

// makeCIR renders the given pulses plus complex white noise of the given
// RMS into a 1016-tap CIR.
func makeCIR(t *testing.T, pulses []pulseAt, noiseRMS float64, seed uint64) []complex128 {
	t.Helper()
	taps := make([]complex128, dw1000.CIRLength)
	for _, p := range pulses {
		p.shape.RenderInto(taps, p.amp, p.delay/ts, ts)
	}
	if noiseRMS > 0 {
		rng := rand.New(rand.NewPCG(seed, 17))
		sigma := noiseRMS / math.Sqrt2
		for i := range taps {
			taps[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
		}
	}
	return taps
}

func shapeFor(t *testing.T, reg byte) pulse.Shape {
	t.Helper()
	s, err := pulse.ForRegister(reg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestDetector(t *testing.T, nShapes int, cfg DetectorConfig) *Detector {
	t.Helper()
	bank, err := pulse.DefaultBank(ts, nShapes)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDetector(bank, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDetectorValidation(t *testing.T) {
	bank, _ := pulse.DefaultBank(ts, 1)
	if _, err := NewDetector(nil, DetectorConfig{}); err == nil {
		t.Error("nil bank accepted")
	}
	if _, err := NewDetector(bank, DetectorConfig{Upsample: -1}); err == nil {
		t.Error("negative upsample accepted")
	}
	if _, err := NewDetector(bank, DetectorConfig{ThresholdFactor: -2}); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := NewDetector(bank, DetectorConfig{MaxResponses: -1}); err == nil {
		t.Error("negative MaxResponses accepted")
	}
	d, err := NewDetector(bank, DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := d.Config()
	if cfg.Upsample != DefaultUpsample || cfg.ThresholdFactor != DefaultThresholdFactor {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestDetectSinglePulse(t *testing.T) {
	const noise = 1e-4
	s1 := shapeFor(t, pulse.RegisterS1)
	amp := complex(0.02, 0.01)
	delay := 200.4 * ts
	taps := makeCIR(t, []pulseAt{{s1, delay, amp}}, noise, 1)
	d := newTestDetector(t, 1, DetectorConfig{})
	got, err := d.Detect(taps, noise)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("detected %d responses, want 1", len(got))
	}
	// Delay recovered within one up-sampled sample.
	if e := math.Abs(got[0].Delay - delay); e > ts/float64(DefaultUpsample) {
		t.Fatalf("delay error %g s", e)
	}
	// Amplitude magnitude within 10%.
	if e := math.Abs(got[0].Magnitude() - cmplx.Abs(amp)); e > 0.1*cmplx.Abs(amp) {
		t.Fatalf("amplitude %g, want %g", got[0].Magnitude(), cmplx.Abs(amp))
	}
}

func TestDetectThreeSeparatedResponses(t *testing.T) {
	// The Fig. 4 situation: three responders at 3/6/10 m from the
	// initiator produce three CIR peaks separated by the doubled extra
	// path delays.
	const noise = 2e-5
	s1 := shapeFor(t, pulse.RegisterS1)
	base := 12 * ts
	d2 := base + 2*(6-3)/2.99792458e8
	d3 := base + 2*(10-3)/2.99792458e8
	taps := makeCIR(t, []pulseAt{
		{s1, base, 12e-4},
		{s1, d2, 6e-4},
		{s1, d3, 3.5e-4},
	}, noise, 2)
	d := newTestDetector(t, 1, DetectorConfig{MaxResponses: 3})
	got, err := d.Detect(taps, noise)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("detected %d responses, want 3", len(got))
	}
	want := []float64{base, d2, d3}
	for i, w := range want {
		if e := math.Abs(got[i].Delay - w); e > ts/2 {
			t.Fatalf("response %d delay error %g", i, e)
		}
	}
	// Sorted ascending regardless of amplitude order.
	for i := 1; i < len(got); i++ {
		if got[i].Delay < got[i-1].Delay {
			t.Fatal("responses not sorted by delay")
		}
	}
}

func TestDetectAutomaticModeStopsAtNoise(t *testing.T) {
	// With MaxResponses = 0 the detector must find exactly the two real
	// responses and then stop at the noise floor (challenge I: run-time
	// automatic detection).
	const noise = 2e-5
	s1 := shapeFor(t, pulse.RegisterS1)
	taps := makeCIR(t, []pulseAt{
		{s1, 40 * ts, 9e-4},
		{s1, 300 * ts, 4e-4},
	}, noise, 3)
	d := newTestDetector(t, 1, DetectorConfig{})
	got, err := d.Detect(taps, noise)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("automatic mode found %d responses, want 2", len(got))
	}
}

func TestDetectAmplitudeIndependence(t *testing.T) {
	// Challenge IV: detection must work regardless of absolute amplitude.
	// A 30 dB weaker pair of responses is detected just as well.
	s1 := shapeFor(t, pulse.RegisterS1)
	for _, scale := range []float64{1, 0.03} {
		noise := 1e-6
		taps := makeCIR(t, []pulseAt{
			{s1, 50 * ts, complex(2e-3*scale, 0)},
			{s1, 90 * ts, complex(1e-3*scale, 0)},
		}, noise, 4)
		d := newTestDetector(t, 1, DetectorConfig{})
		got, err := d.Detect(taps, noise)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("scale %g: found %d responses, want 2", scale, len(got))
		}
	}
}

func TestDetectWeakerResponseBeforeStrongMultipath(t *testing.T) {
	// Challenge IV continued: a responder whose direct path is weaker
	// than another responder's multipath must still be detected; the
	// detector reports peaks by delay, not by assuming amplitude order.
	const noise = 1e-5
	s1 := shapeFor(t, pulse.RegisterS1)
	taps := makeCIR(t, []pulseAt{
		{s1, 30 * ts, 3e-4},  // weak direct path of responder A
		{s1, 120 * ts, 9e-4}, // strong responder B
	}, noise, 5)
	d := newTestDetector(t, 1, DetectorConfig{MaxResponses: 2})
	got, err := d.Detect(taps, noise)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("found %d", len(got))
	}
	if got[0].Delay > got[1].Delay {
		t.Fatal("not sorted")
	}
	if got[0].Magnitude() >= got[1].Magnitude() {
		t.Fatal("test setup broken: first response should be the weak one")
	}
}

func TestDetectOverlappingResponses(t *testing.T) {
	// Sect. VI: two responders at the same distance whose responses
	// overlap within a pulse duration. Search and subtract must resolve
	// both.
	const noise = 1e-5
	s1 := shapeFor(t, pulse.RegisterS1)
	base := 60 * ts
	sep := 2.5 * ts // well inside one pulse duration (~9 samples)
	taps := makeCIR(t, []pulseAt{
		{s1, base, complex(8e-4, 0)},
		{s1, base + sep, complex(0, 6.5e-4)},
	}, noise, 6)
	d := newTestDetector(t, 1, DetectorConfig{MaxResponses: 2, Upsample: 8})
	got, err := d.Detect(taps, noise)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("found %d responses, want 2", len(got))
	}
	if e := math.Abs(got[1].Delay - got[0].Delay - sep); e > ts {
		t.Fatalf("separation error %g", e)
	}
}

func TestDetectIdentifiesPulseShapes(t *testing.T) {
	// Sect. V / Fig. 6: responders using different TC_PGDELAY values are
	// identified by the template with the maximum response amplitude.
	const noise = 1e-5
	s1 := shapeFor(t, pulse.RegisterS1)
	s3 := shapeFor(t, pulse.RegisterS3)
	taps := makeCIR(t, []pulseAt{
		{s1, 40 * ts, 10e-4}, // responder 1: default shape (4 m)
		{s3, 80 * ts, 5e-4},  // responder 2: wide shape (10 m)
	}, noise, 7)
	d := newTestDetector(t, 3, DetectorConfig{MaxResponses: 2})
	got, err := d.Detect(taps, noise)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("found %d responses", len(got))
	}
	if got[0].TemplateIndex != 0 {
		t.Fatalf("first response identified as template %d, want 0 (s1)", got[0].TemplateIndex)
	}
	if got[1].TemplateIndex != 2 {
		t.Fatalf("second response identified as template %d, want 2 (s3)", got[1].TemplateIndex)
	}
}

func TestDetectErrors(t *testing.T) {
	d := newTestDetector(t, 1, DetectorConfig{})
	if _, err := d.Detect(nil, 1e-5); err == nil {
		t.Error("empty CIR accepted")
	}
	if _, err := d.Detect(make([]complex128, 64), 0); err == nil {
		t.Error("zero noise RMS accepted for thresholded detection")
	}
}

// TestDetectRejectsNonFiniteInput: a NaN or infinite tap, or a noise RMS
// that is not positive and finite, is an error on both search paths —
// never a silent empty result or an iteration cap's worth of junk.
func TestDetectRejectsNonFiniteInput(t *testing.T) {
	const noise = 1e-4
	taps := makeCIR(t, []pulseAt{{shapeFor(t, pulse.RegisterS1), 300 * ts, complex(0.02, 0.01)}}, noise, 3)
	withTap := func(i int, v complex128) []complex128 {
		out := append([]complex128(nil), taps...)
		out[i] = v
		return out
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name     string
		taps     []complex128
		noiseRMS float64
	}{
		{"NaN noise RMS", taps, nan},
		{"+Inf noise RMS", taps, inf},
		{"-Inf noise RMS", taps, -inf},
		{"zero noise RMS", taps, 0},
		{"negative noise RMS", taps, -noise},
		{"NaN real tap", withTap(300, complex(nan, 0)), noise},
		{"NaN imaginary tap", withTap(0, complex(0, nan)), noise},
		{"+Inf tap", withTap(700, complex(inf, 0)), noise},
		{"-Inf imaginary tap", withTap(dw1000.CIRLength-1, complex(1, -inf)), noise},
	}
	// Three shapes on the forced reference path, the full bank on the
	// production (spectral) one.
	bank3, err := pulse.DefaultBank(ts, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newDetector(bank3, DetectorConfig{}, pathReference)
	if err != nil {
		t.Fatal(err)
	}
	// Every rejection is counted in detector.detect_errors.
	for _, d := range []*Detector{ref, newTestDetector(t, pulse.NumShapes, DetectorConfig{})} {
		shapes := d.Bank().Len()
		reg := obs.NewRegistry()
		d.SetRecorder(reg)
		for _, tc := range cases {
			got, err := d.Detect(tc.taps, tc.noiseRMS)
			if err == nil || len(got) != 0 {
				t.Errorf("%d shapes, %s: %d responses, err %v; want an error", shapes, tc.name, len(got), err)
			}
		}
		if got := reg.Snapshot().CounterValue(MetricDetectErrors); got != int64(len(cases)) {
			t.Errorf("%d shapes: %s = %d, want %d", shapes, MetricDetectErrors, got, len(cases))
		}
		// The same detector still serves finite input afterwards.
		if got, err := d.Detect(taps, noise); err != nil || len(got) != 1 {
			t.Errorf("%d shapes, finite CIR: %d responses, err %v; want 1", shapes, len(got), err)
		}
	}
}

func TestDetectEmptyCIRYieldsNothing(t *testing.T) {
	taps := makeCIR(t, nil, 1e-5, 8)
	d := newTestDetector(t, 1, DetectorConfig{})
	got, err := d.Detect(taps, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("noise-only CIR produced %d responses", len(got))
	}
}

// TestDetectShortCIRs: windows far shorter than the DW1000 accumulator —
// down to a single tap, shorter than any up-sampled template — are valid
// input on the production path at every bank size, and yield finite,
// delay-sorted responses.
func TestDetectShortCIRs(t *testing.T) {
	const noise = 1e-5
	s1 := shapeFor(t, pulse.RegisterS1)
	for _, shapes := range []int{3, minParallelTemplates} {
		d := newTestDetector(t, shapes, DetectorConfig{})
		for _, n := range []int{1, 2, 4, 8, 16, 32} {
			taps := make([]complex128, n)
			s1.RenderInto(taps, complex(1e-3, 5e-4), float64(n)/2, ts)
			rng := rand.New(rand.NewPCG(uint64(n), 23))
			for i := range taps {
				taps[i] += complex(rng.NormFloat64()*noise/math.Sqrt2, rng.NormFloat64()*noise/math.Sqrt2)
			}
			got, err := d.Detect(taps, noise)
			if err != nil {
				t.Fatalf("%d shapes, %d taps: %v", shapes, n, err)
			}
			for i, r := range got {
				if math.IsNaN(r.Delay) || math.IsInf(r.Delay, 0) || cmplx.IsNaN(r.Amplitude) || cmplx.IsInf(r.Amplitude) {
					t.Fatalf("%d shapes, %d taps: non-finite response %+v", shapes, n, r)
				}
				if i > 0 && r.Delay < got[i-1].Delay {
					t.Fatalf("%d shapes, %d taps: responses not sorted by delay", shapes, n)
				}
			}
		}
	}
}

func TestMatchedFilterOutputs(t *testing.T) {
	const noise = 1e-5
	s1 := shapeFor(t, pulse.RegisterS1)
	taps := makeCIR(t, []pulseAt{{s1, 100 * ts, 1e-3}}, noise, 9)
	d := newTestDetector(t, 3, DetectorConfig{})
	outs, tsUp, err := d.MatchedFilterOutputs(taps)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("outputs for %d templates", len(outs))
	}
	if tsUp != ts/DefaultUpsample {
		t.Fatalf("tsUp = %g", tsUp)
	}
	// The matched template's peak must beat the mismatched ones.
	peak := func(v []float64) float64 {
		m := 0.0
		for _, x := range v {
			m = math.Max(m, x)
		}
		return m
	}
	if peak(outs[0]) <= peak(outs[1]) || peak(outs[0]) <= peak(outs[2]) {
		t.Fatal("matched template does not have the strongest response")
	}
}
