package dw1000

import (
	"math"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

func closeTo(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDTUResolutionMatchesPaper(t *testing.T) {
	// Sect. II: 15.65 ps units from a 63.9 GHz sampling clock → 4.69 mm.
	if !closeTo(DTU, 15.65e-12, 0.01e-12) {
		t.Fatalf("DTU = %g, want ~15.65 ps", DTU)
	}
	const c = 299792458.0
	if !closeTo(DTU*c, 4.69e-3, 0.01e-3) {
		t.Fatalf("distance resolution %g, want ~4.69 mm", DTU*c)
	}
}

func TestDelayedTXGranularityMatchesPaper(t *testing.T) {
	// Sect. III: ignoring the low 9 bits limits TX resolution to ~8 ns.
	if !closeTo(DelayedTXGranularity, 8.013e-9, 0.01e-9) {
		t.Fatalf("granularity = %g, want ~8.013 ns", DelayedTXGranularity)
	}
}

func TestTruncateDelayedTX(t *testing.T) {
	v := DeviceTime(0x123456789)
	got := TruncateDelayedTX(v)
	if got&0x1FF != 0 {
		t.Fatalf("low 9 bits not cleared: %x", got)
	}
	if got > v || v.Sub(got) >= DelayedTXGranularity {
		t.Fatalf("truncation moved %x to %x", v, got)
	}
	// Already aligned values are unchanged.
	if TruncateDelayedTX(got) != got {
		t.Fatal("aligned value changed")
	}
}

func TestTruncationAlwaysEarlierProperty(t *testing.T) {
	f := func(raw uint64) bool {
		v := DeviceTime(raw & (counterWrap - 1))
		tr := TruncateDelayedTX(v)
		d := v.Sub(tr)
		return d >= 0 && d < DelayedTXGranularity
	}
	cfg := &quick.Config{MaxCount: 200, Rand: mrand.New(mrand.NewSource(54))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceTimeSubWrapAware(t *testing.T) {
	a := DeviceTime(10)
	b := DeviceTime(counterWrap - 10)
	// a is 20 ticks "after" b across the wrap.
	if got := a.Sub(b); !closeTo(got, 20*DTU, 1e-18) {
		t.Fatalf("wrap-aware diff %g, want %g", got, 20*DTU)
	}
	if got := b.Sub(a); !closeTo(got, -20*DTU, 1e-18) {
		t.Fatalf("reverse diff %g, want %g", got, -20*DTU)
	}
}

func TestDeviceTimeAddSubRoundTripProperty(t *testing.T) {
	f := func(raw uint64, deltaNS int32) bool {
		v := DeviceTime(raw & (counterWrap - 1))
		d := float64(deltaNS) * 1e-9
		moved := v.Add(d)
		// The recovered difference matches d to within one tick.
		return math.Abs(moved.Sub(v)-d) <= DTU
	}
	cfg := &quick.Config{MaxCount: 300, Rand: mrand.New(mrand.NewSource(55))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFromSecondsQuantizes(t *testing.T) {
	s := 1.23456789e-3
	v := FromSeconds(s)
	if math.Abs(v.Seconds()-s) > DTU {
		t.Fatalf("quantization error %g > 1 DTU", math.Abs(v.Seconds()-s))
	}
}

func TestClockOffsetAndPhase(t *testing.T) {
	c := Clock{OffsetPPM: 10, Phase: 5}
	// After 1 simulated second, a +10 ppm clock has advanced 1 s + 10 µs.
	if got := c.DeviceSeconds(1); !closeTo(got, 6+10e-6, 1e-12) {
		t.Fatalf("device seconds %g", got)
	}
	// Round trip.
	for _, simT := range []float64{0, 0.5, 2.75} {
		if got := c.SimSeconds(c.DeviceSeconds(simT)); !closeTo(got, simT, 1e-12) {
			t.Fatalf("round trip %g -> %g", simT, got)
		}
	}
}

func TestClockZeroValueIsIdeal(t *testing.T) {
	var c Clock
	if got := c.DeviceSeconds(3.25); got != 3.25 {
		t.Fatalf("ideal clock reads %g at 3.25", got)
	}
}

func TestTwoClocksDiverge(t *testing.T) {
	fast := Clock{OffsetPPM: 5}
	slow := Clock{OffsetPPM: -5}
	// After 290 µs (the paper's Δ_RESP) the clocks diverge by 2.9 ns.
	dt := fast.DeviceSeconds(290e-6) - slow.DeviceSeconds(290e-6)
	if !closeTo(dt, 10e-6*1e-6*290e-6/1e-6, 1e-12) { // 290e-6 · 10e-6
		t.Fatalf("divergence %g, want %g", dt, 290e-6*10e-6)
	}
}

func TestCIRGeometryMatchesPaper(t *testing.T) {
	if math.Abs(SampleInterval-1.0016e-9) > 0.001e-9 {
		t.Fatalf("sample interval %g, want ~1.0016 ns", SampleInterval)
	}
	if math.Abs(WindowDuration-1017e-9) > 1e-9 {
		t.Fatalf("window %g, want ~1017 ns", WindowDuration)
	}
	if CIRLength != 1016 {
		t.Fatalf("CIR length %d, want 1016 (Sect. VII)", CIRLength)
	}
	// δ_max·c ≈ 307 m (Sect. VII).
	const c = 299792458.0
	if !closeTo(WindowDuration*c, 307, 2) {
		t.Fatalf("window distance span %g m, want ~307 m", WindowDuration*c)
	}
}

func TestClockRateRatio(t *testing.T) {
	fast := Clock{OffsetPPM: 10}
	slow := Clock{OffsetPPM: -10}
	ratio := fast.RateRatio(slow)
	// (1+10e-6)/(1-10e-6) ≈ 1 + 20e-6.
	if !closeTo(ratio, 1+20e-6, 1e-9) {
		t.Fatalf("ratio %.9f", ratio)
	}
	var ideal Clock
	if ideal.RateRatio(ideal) != 1 {
		t.Fatal("identical clocks must have ratio 1")
	}
}
