package core_test

// Instrumentation contract tests: a Recorder attached to the Detector
// must observe the search without perturbing it (bit-identical responses)
// and must stay free when nil (benchmark below; acceptance gate of the
// observability PR).

import (
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

func TestDetectWithRecorderIsBitIdentical(t *testing.T) {
	taps := goldenSimCIR(t)
	bank, err := pulse.DefaultBank(goldenTs, 1)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := core.NewDetector(bank, core.DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	instrumented, err := core.NewDetector(bank, core.DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	instrumented.SetRecorder(obs.NewRegistry())

	const noiseRMS = 1e-4
	want, err := bare.Detect(taps, noiseRMS)
	if err != nil {
		t.Fatal(err)
	}
	got, err := instrumented.Detect(taps, noiseRMS)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recorder changed the response count: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("response %d differs with a recorder attached:\n  got  %+v\n  want %+v",
				i, got[i], want[i])
		}
	}
}

// TestDetectRecordsDiagnostics checks the recorded search structure on
// both paths: the production (spectral) detector upsamples and transforms
// once per Detect, the forced-reference oracle once per extraction round.
func TestDetectRecordsDiagnostics(t *testing.T) {
	for _, tc := range []struct {
		name     string
		build    func(*pulse.Bank, core.DetectorConfig) (*core.Detector, error)
		perRound bool
	}{
		{"production", core.NewDetector, false},
		{"reference", core.NewReferenceDetector, true},
	} {
		t.Run(tc.name, func(t *testing.T) { checkRecordedDiagnostics(t, tc.build, tc.perRound) })
	}
}

func checkRecordedDiagnostics(t *testing.T,
	build func(*pulse.Bank, core.DetectorConfig) (*core.Detector, error), perRound bool) {
	taps := goldenSimCIR(t)
	bank, err := pulse.DefaultBank(goldenTs, 1)
	if err != nil {
		t.Fatal(err)
	}
	det, err := build(bank, core.DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	det.SetRecorder(reg)

	const calls = 3
	var responses int
	for i := 0; i < calls; i++ {
		rs, err := det.Detect(taps, 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		responses = len(rs)
	}
	if responses == 0 {
		t.Fatal("expected detections in the golden CIR")
	}
	snap := reg.Snapshot()

	if got := snap.CounterValue(core.MetricDetectCalls); got != calls {
		t.Errorf("%s = %d, want %d", core.MetricDetectCalls, got, calls)
	}
	iters, ok := snap.HistogramByName(core.MetricDetectIterations)
	if !ok || iters.Count != calls {
		t.Fatalf("%s histogram = %+v, want %d observations", core.MetricDetectIterations, iters, calls)
	}
	if iters.Sum < float64(calls) {
		t.Errorf("iteration sum %g < one round per call", iters.Sum)
	}
	// One template in the bank: template evals == extraction rounds, and
	// the dsp plan counters must agree with the search structure.
	evals := snap.CounterValue(core.MetricDetectTemplateEvals)
	if evals != int64(iters.Sum) {
		t.Errorf("template evals %d != iteration sum %g (single-template bank)", evals, iters.Sum)
	}
	// One upsample and one bank transform per Detect on the spectral
	// path, per round on the reference path.
	transforms := int64(calls)
	if perRound {
		transforms = int64(iters.Sum)
	}
	if got := snap.CounterValue(core.MetricUpsampleExecs); got != transforms {
		t.Errorf("%s = %d, want %d", core.MetricUpsampleExecs, got, transforms)
	}
	if got := snap.CounterValue(core.MetricBankTransforms); got != transforms {
		t.Errorf("%s = %d, want %d", core.MetricBankTransforms, got, transforms)
	}
	// Full-length template filters: every round on the reference path,
	// only the first round on the spectral path, whose later rounds are
	// windowed rescans (one per extracted response).
	filters := int64(calls)
	if perRound {
		filters = evals
	}
	if got := snap.CounterValue(core.MetricBankFilters); got != filters {
		t.Errorf("%s = %d, want %d", core.MetricBankFilters, got, filters)
	}
	if !perRound {
		if got, want := snap.CounterValue(core.MetricBankShiftSubtracts), int64(calls*responses); got != want {
			t.Errorf("%s = %d, want %d", core.MetricBankShiftSubtracts, got, want)
		}
	}
	if h, ok := snap.HistogramByName(core.MetricDetectResponses); !ok || h.Count != calls ||
		int(h.Sum) != calls*responses {
		t.Errorf("%s = %+v, want %d calls × %d responses", core.MetricDetectResponses, h, calls, responses)
	}
	if h, ok := snap.HistogramByName(core.MetricDetectRefineSteps); !ok || h.Sum <= 0 {
		t.Errorf("%s = %+v, want positive refinement work", core.MetricDetectRefineSteps, h)
	}
	// Every accepted response clears the threshold, so margins are >= 0
	// and one is recorded per response per call.
	margins, ok := snap.HistogramByName(core.MetricDetectMarginDB)
	if !ok || margins.Count != int64(calls*responses) {
		t.Fatalf("%s = %+v, want %d observations", core.MetricDetectMarginDB, margins, calls*responses)
	}
	if *margins.Min < 0 {
		t.Errorf("peak-to-threshold margin %g dB below zero", *margins.Min)
	}
	frac, ok := snap.HistogramByName(core.MetricDetectResidualFrac)
	if !ok || frac.Count != calls {
		t.Fatalf("%s = %+v, want %d observations", core.MetricDetectResidualFrac, frac, calls)
	}
	if *frac.Min <= 0 || *frac.Max >= 1 {
		t.Errorf("residual energy fraction outside (0, 1): min %g max %g", *frac.Min, *frac.Max)
	}
}

// benchmarkDetect measures Detect on the golden three-responder CIR with
// the given recorder; the nil-recorder variant is the acceptance gate
// that instrumentation is free when disabled.
func benchmarkDetect(b *testing.B, rec obs.Recorder) {
	bank, err := pulse.DefaultBank(goldenTs, 1)
	if err != nil {
		b.Fatal(err)
	}
	det, err := core.NewDetector(bank, core.DetectorConfig{})
	if err != nil {
		b.Fatal(err)
	}
	det.SetRecorder(rec)
	taps := goldenSimCIR(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Detect(taps, 1e-4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectNilRecorder(b *testing.B) { benchmarkDetect(b, nil) }

func BenchmarkDetectWithRecorder(b *testing.B) { benchmarkDetect(b, obs.NewRegistry()) }
