package core_test

// Golden equivalence test for the reference detector path: the expected
// responses below were captured from the seed (pre-plan-cache)
// implementation of Detector.Detect on fixed-seed CIRs. The reference
// path — the oracle, built through NewReferenceDetector — must reproduce
// every delay, complex amplitude and template index to within 1e-9
// relative. The production spectral path is held to the same response
// set within the coarse-search tolerance of
// TestDetectSpectralMatchesReference (TestDetectGoldenSimulatedReceptionProduction).

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/channel"
	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/geom"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
	"github.com/uwb-sim/concurrent-ranging/internal/sim"
)

const goldenTs = dw1000.SampleInterval

type goldenPulse struct {
	reg   byte
	delay float64 // seconds
	amp   complex128
}

type goldenResponse struct {
	delay         float64
	amp           complex128
	templateIndex int
}

// goldenCIR renders pulses plus fixed-seed complex white noise into a full
// accumulator window, exactly as the seed capture program did.
func goldenCIR(t *testing.T, pulses []goldenPulse, noiseRMS float64, seed uint64) []complex128 {
	t.Helper()
	taps := make([]complex128, dw1000.CIRLength)
	for _, p := range pulses {
		s, err := pulse.ForRegister(p.reg)
		if err != nil {
			t.Fatal(err)
		}
		s.RenderInto(taps, p.amp, p.delay/goldenTs, goldenTs)
	}
	rng := rand.New(rand.NewPCG(seed, 17))
	sigma := noiseRMS / math.Sqrt2
	for i := range taps {
		taps[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	return taps
}

// goldenSimCIR regenerates the three-responder hallway reception the
// micro-benchmarks use (seed 5), through the full radio model.
func goldenSimCIR(t testing.TB) []complex128 {
	t.Helper()
	net, err := sim.NewNetwork(sim.NetworkConfig{Environment: channel.Hallway(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	init, err := net.AddNode(sim.NodeConfig{ID: -1, Name: "init", Pos: geom.Point{X: 2, Y: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	var resps []*sim.Node
	for j, d := range []float64{3, 6, 10} {
		n, err := net.AddNode(sim.NodeConfig{ID: j, Pos: geom.Point{X: 2 + d, Y: 0.9}})
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, n)
	}
	round, err := net.RunConcurrentRound(init, resps, sim.RoundConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return round.Reception.CIR.Taps
}

// relClose reports |a-b| ≤ tol·max(|a|,|b|) with an absolute floor for
// values near zero.
func relClose(a, b, tol float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= tol*scale
}

func checkGolden(t *testing.T, got []core.Response, want []goldenResponse) {
	t.Helper()
	const tol = 1e-9
	if len(got) != len(want) {
		t.Fatalf("detected %d responses, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.TemplateIndex != w.templateIndex {
			t.Errorf("response %d: template %d, want %d", i, g.TemplateIndex, w.templateIndex)
		}
		if !relClose(g.Delay, w.delay, tol) {
			t.Errorf("response %d: delay %.17g, want %.17g", i, g.Delay, w.delay)
		}
		if d := cmplx.Abs(g.Amplitude - w.amp); d > tol*math.Max(1, cmplx.Abs(w.amp)) {
			t.Errorf("response %d: amplitude %v, want %v (|Δ| = %g)", i, g.Amplitude, w.amp, d)
		}
	}
}

func goldenDetect(t *testing.T, nShapes int, cfg core.DetectorConfig, taps []complex128, noiseRMS float64) []core.Response {
	t.Helper()
	bank, err := pulse.DefaultBank(goldenTs, nShapes)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.NewReferenceDetector(bank, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := det.Detect(taps, noiseRMS)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestDetectGoldenSinglePulse(t *testing.T) {
	taps := goldenCIR(t, []goldenPulse{
		{pulse.RegisterS1, 200.4 * goldenTs, complex(0.02, 0.01)},
	}, 1e-4, 1)
	got := goldenDetect(t, 1, core.DetectorConfig{}, taps, 1e-4)
	checkGolden(t, got, []goldenResponse{
		{2.0072132152751607e-07, complex(0.020040219260835622, 0.010097389108172292), 0},
	})
}

func TestDetectGoldenThreeResponses(t *testing.T) {
	base := 12 * goldenTs
	d2 := base + 2*(6-3)/2.99792458e8
	d3 := base + 2*(10-3)/2.99792458e8
	taps := goldenCIR(t, []goldenPulse{
		{pulse.RegisterS1, base, 12e-4},
		{pulse.RegisterS1, d2, 6e-4},
		{pulse.RegisterS1, d3, 3.5e-4},
	}, 2e-5, 2)
	got := goldenDetect(t, 1, core.DetectorConfig{MaxResponses: 3}, taps, 2e-5)
	checkGolden(t, got, []goldenResponse{
		{1.2019610535847272e-08, complex(0.001215882571204203, -4.1233393526067649e-06), 0},
		{3.2049331344670783e-08, complex(0.00061844704693786131, 2.449675606206834e-05), 0},
		{5.8698604183094544e-08, complex(0.00037565867037079871, -5.599672918645878e-06), 0},
	})
}

func TestDetectGoldenOverlappingResponses(t *testing.T) {
	taps := goldenCIR(t, []goldenPulse{
		{pulse.RegisterS1, 60 * goldenTs, complex(8e-4, 0)},
		{pulse.RegisterS1, 60*goldenTs + 2.5*goldenTs, complex(0, 6.5e-4)},
	}, 1e-5, 6)
	got := goldenDetect(t, 1, core.DetectorConfig{MaxResponses: 2, Upsample: 8}, taps, 1e-5)
	checkGolden(t, got, []goldenResponse{
		{6.0098422268174743e-08, complex(0.00079868186230093853, 2.857124145983888e-05), 0},
		{6.2596906161984785e-08, complex(1.0908552504487728e-06, 0.00064758861166934933), 0},
	})
}

func TestDetectGoldenPulseShapes(t *testing.T) {
	taps := goldenCIR(t, []goldenPulse{
		{pulse.RegisterS1, 40 * goldenTs, 10e-4},
		{pulse.RegisterS3, 80 * goldenTs, 5e-4},
	}, 1e-5, 7)
	got := goldenDetect(t, 3, core.DetectorConfig{MaxResponses: 2}, taps, 1e-5)
	checkGolden(t, got, []goldenResponse{
		{4.0061435255845283e-08, complex(0.00099856987663278019, -6.6137428194777506e-06), 0},
		{8.0133731586990257e-08, complex(0.00050184506221089009, 2.7384997949738152e-06), 2},
	})
}

func TestDetectGoldenGridMode(t *testing.T) {
	// DisableRefinement exercises the literal Sect. IV steps 3–5 path and
	// its grid-amplitude rescaling.
	taps := goldenCIR(t, []goldenPulse{
		{pulse.RegisterS1, 40 * goldenTs, 10e-4},
		{pulse.RegisterS3, 80 * goldenTs, 5e-4},
	}, 1e-5, 7)
	got := goldenDetect(t, 3, core.DetectorConfig{MaxResponses: 2, DisableRefinement: true}, taps, 1e-5)
	checkGolden(t, got, []goldenResponse{
		{4.0064102564102562e-08, complex(0.00099964417198535505, -6.7312463625603998e-06), 0},
		{8.0128205128205124e-08, complex(0.0005018347501337477, 2.6972734517561695e-06), 2},
	})
}

// goldenSimResponses is the reference detector's response set on
// goldenSimCIR with the 3-shape bank.
var goldenSimResponses = []goldenResponse{
	{1.2038150725876326e-08, complex(0.0012021287477320529, 0.00041898577719392041), 0},
	{1.3573997379875022e-08, complex(-3.3419807534898176e-05, 0.00022710093528354762), 0},
	{1.51696393706246e-08, complex(4.5342550338300668e-05, -7.502880526935337e-05), 0},
	{1.6043970231748398e-08, complex(0.00019650983027835002, 9.150094037137181e-05), 0},
	{2.5362744985633823e-08, complex(-0.00013242863994480009, 3.8084201754303873e-05), 0},
	{3.0048681468088261e-08, complex(0.00045035452879003588, 0.00046889992733087658), 0},
	{3.1104798515923276e-08, complex(-0.00012627495434151446, 4.0735479618429582e-05), 0},
	{3.2404715627352897e-08, complex(3.4957553915006694e-05, -0.00016012557169606264), 0},
	{3.5391792425010325e-08, complex(-8.9065271892079802e-05, 7.8742410977037679e-05), 0},
	{3.7753025856320761e-08, complex(0.00012615254191286946, -2.5901762129529189e-05), 0},
	{5.9255464977536762e-08, complex(-0.0003884678446840061, -5.7790344548168866e-05), 0},
	{6.0645197191381825e-08, complex(0.00010808099717253443, 3.6598220289281036e-05), 0},
}

func TestDetectGoldenSimulatedReception(t *testing.T) {
	// Full radio model: three responders in the hallway environment at
	// seed 5, automatic-mode detection with the 3-shape bank — twelve
	// responses including multipath.
	got := goldenDetect(t, 3, core.DetectorConfig{}, goldenSimCIR(t), dw1000.DefaultNoiseRMS)
	checkGolden(t, got, goldenSimResponses)
}

// TestDetectGoldenSimulatedReceptionProduction holds the production
// (spectral) detector to the pinned reference response set: the same
// twelve responses with the same templates, delays within 0.05 T_s, and a
// fit that explains the CIR as well (residual energy within 1%, the
// criterion of TestDetectSpectralMatchesReference).
func TestDetectGoldenSimulatedReceptionProduction(t *testing.T) {
	taps := goldenSimCIR(t)
	bank, err := pulse.DefaultBank(goldenTs, 3)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.NewDetector(bank, core.DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := det.Detect(taps, dw1000.DefaultNoiseRMS)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(goldenSimResponses) {
		t.Fatalf("detected %d responses, want %d", len(got), len(goldenSimResponses))
	}
	want := make([]core.Response, len(goldenSimResponses))
	maxDelta := 0.0
	for i, w := range goldenSimResponses {
		want[i] = core.Response{Delay: w.delay, Amplitude: w.amp, TemplateIndex: w.templateIndex}
		if got[i].TemplateIndex != w.templateIndex {
			t.Errorf("response %d: template %d, want %d", i, got[i].TemplateIndex, w.templateIndex)
		}
		d := math.Abs(got[i].Delay-w.delay) / goldenTs
		if d > 0.05 {
			t.Errorf("response %d: delay %.17g is %g T_s from the reference %.17g", i, got[i].Delay, d, w.delay)
		}
		maxDelta = max(maxDelta, d)
	}
	r := core.ResidualEnergy(bank, taps, got) / core.ResidualEnergy(bank, taps, want)
	if r > 1.01 || r < 1/1.01 {
		t.Errorf("residual energy %g× the reference fit's", r)
	}
	t.Logf("max |Δdelay| %.3g T_s, residual energy %.5f× the reference fit's", maxDelta, r)
}

func TestDetectRepeatedCallsAreDeterministic(t *testing.T) {
	// The cached scratch state must not leak between calls: detecting the
	// same CIR twice — with a differently-sized detection in between to
	// force a plan rebuild — returns identical responses.
	taps := goldenCIR(t, []goldenPulse{
		{pulse.RegisterS1, 40 * goldenTs, 10e-4},
		{pulse.RegisterS3, 80 * goldenTs, 5e-4},
	}, 1e-5, 7)
	bank, err := pulse.DefaultBank(goldenTs, 3)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.NewDetector(bank, core.DetectorConfig{MaxResponses: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, err := det.Detect(taps, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Detect(taps[:512], 1e-5); err != nil {
		t.Fatal(err)
	}
	second, err := det.Detect(taps, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("%d then %d responses", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("response %d: %+v then %+v", i, first[i], second[i])
		}
	}
}
