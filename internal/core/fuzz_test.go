package core

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

// FuzzDetect feeds arbitrary complex CIRs (16 bytes per tap: real then
// imaginary part) and noise levels through the search-and-subtract
// detector, on a 2-shape bank forced onto the reference path or on the
// production (spectral) detector with an 8-shape bank: it must never
// panic, always terminate, reject non-finite input with an error, and
// otherwise return delay-sorted responses with finite fields.
func FuzzDetect(f *testing.F) {
	tail := func(v float64) []byte {
		return binary.LittleEndian.AppendUint64(make([]byte, 64*16+8), math.Float64bits(v))
	}
	f.Add(make([]byte, 1016*16), 1e-5, false)
	f.Add([]byte{0xff, 0x10, 0x22}, 1e-5, false)
	f.Add(make([]byte, 1016*16), 1e-5, true)
	f.Add(tail(math.NaN()), 1e-5, true)
	f.Add(tail(math.Inf(-1)), 1e-5, false)
	f.Add(make([]byte, 64*16), math.NaN(), true)
	f.Add(make([]byte, 64*16), math.Inf(1), false)
	f.Add(make([]byte, 64*16), 0.0, true)
	// A valid CIR shorter than any up-sampled template: 3 taps, a pulse
	// peak on the middle one.
	short := make([]byte, 0, 3*16)
	for _, v := range []float64{2e-4, -1e-4, 1e-3, 4e-4, 3e-4, -2e-4} {
		short = binary.LittleEndian.AppendUint64(short, math.Float64bits(v))
	}
	f.Add(short, 1e-5, false)
	f.Add(short, 1e-5, true)
	// dets[0] is the forced-reference oracle, dets[1] a production
	// detector (NewDetector's path).
	var dets [2]*Detector
	for i, c := range []struct {
		shapes int
		path   searchPath
	}{{2, pathReference}, {8, pathSpectral}} {
		bank, err := pulse.DefaultBank(1.0016e-9, c.shapes)
		if err != nil {
			f.Fatal(err)
		}
		if dets[i], err = newDetector(bank, DetectorConfig{}, c.path); err != nil {
			f.Fatal(err)
		}
	}
	// Rendered 2- and 3-pulse CIRs on the production detector's bank, so
	// the search runs rounds after the first: windowed rescans on the
	// full window, and on a short window (where a window transform would
	// not be shorter than the full one) full rescans. Pulses on the first
	// and last taps push the windows against both signal ends.
	type rendered struct {
		shape    int
		tap, amp float64
	}
	bank := dets[1].Bank()
	for _, c := range []struct {
		taps   int
		pulses []rendered
	}{
		{1016, []rendered{{2, 400, 1e-3}, {5, 404.6, -6e-4}}},
		{1016, []rendered{{0, 0, 8e-4}, {7, 611.3, 1e-3}, {3, 1015, 5e-4}}},
		{1016, []rendered{{1, 0.4, 1e-3}, {6, 1014.7, -9e-4}}},
		{100, []rendered{{4, 0, 1e-3}, {2, 50.2, 7e-4}, {0, 99, -6e-4}}},
	} {
		cir := make([]complex128, c.taps)
		for _, p := range c.pulses {
			bank.Shape(p.shape).RenderInto(cir, complex(p.amp, p.amp/3), p.tap, bank.SampleInterval())
		}
		data := make([]byte, 0, 16*len(cir))
		for _, v := range cir {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(real(v)))
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(imag(v)))
		}
		f.Add(data, 1e-5, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, noiseRMS float64, spectral bool) {
		n := min(len(data)/16, 1016)
		if n == 0 {
			t.Skip()
		}
		valid := noiseRMS > 0 && !math.IsInf(noiseRMS, 1)
		part := func(off int) float64 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			if math.IsNaN(x) || math.IsInf(x, 0) {
				valid = false
				return x
			}
			return math.Max(-1e3, math.Min(1e3, x))
		}
		taps := make([]complex128, n)
		for i := range taps {
			taps[i] = complex(part(16*i), part(16*i+8))
		}
		det := dets[0]
		if spectral {
			det = dets[1]
		}
		responses, err := det.Detect(taps, noiseRMS)
		if !valid {
			if err == nil || len(responses) != 0 {
				t.Fatalf("non-finite input: %d responses, err %v", len(responses), err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range responses {
			if math.IsNaN(r.Delay) || math.IsInf(r.Delay, 0) {
				t.Fatalf("non-finite delay %v", r.Delay)
			}
			if cmplx.IsNaN(r.Amplitude) || cmplx.IsInf(r.Amplitude) {
				t.Fatalf("non-finite amplitude %v", r.Amplitude)
			}
			if i > 0 && responses[i].Delay < responses[i-1].Delay {
				t.Fatal("responses not sorted")
			}
			if r.TemplateIndex < 0 || r.TemplateIndex >= det.Bank().Len() {
				t.Fatalf("template index %d out of range", r.TemplateIndex)
			}
		}
	})
}

// FuzzSlotPlan checks Assign/IDFor/SlotOf consistency on arbitrary plans.
func FuzzSlotPlan(f *testing.F) {
	f.Add(uint8(4), uint8(3), uint16(7))
	f.Fuzz(func(t *testing.T, slots, shapes uint8, id uint16) {
		plan := SlotPlan{
			NumSlots:  int(slots%32) + 1,
			NumShapes: int(shapes%16) + 1,
		}
		plan.SlotWidth = MaxSlotDelay / float64(plan.NumSlots)
		if err := plan.Validate(); err != nil {
			t.Fatal(err)
		}
		rid := int(id) % plan.Capacity()
		slot, shape, err := plan.Assign(rid)
		if err != nil {
			t.Fatal(err)
		}
		back, err := plan.IDFor(slot, shape)
		if err != nil || back != rid {
			t.Fatalf("round trip %d -> (%d,%d) -> %d (%v)", rid, slot, shape, back, err)
		}
		if got := plan.SlotOf(plan.ExtraDelay(slot)); got != slot {
			t.Fatalf("SlotOf(nominal position of %d) = %d", slot, got)
		}
	})
}
