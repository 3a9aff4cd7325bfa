package core

import (
	"math"
	"math/cmplx"
	mrand "math/rand"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

// TestDetectRandomTrainsProperty: any train of well-separated, sufficiently
// strong pulses is fully recovered — positions, amplitudes, and count.
func TestDetectRandomTrainsProperty(t *testing.T) {
	bank, err := pulse.DefaultBank(ts, 1)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(bank, DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	shape := bank.Shape(0)
	const noise = 1.4e-5
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 21))
		n := 1 + r.IntN(6)
		type truth struct {
			delay float64
			amp   complex128
		}
		var pulses []truth
		pos := 30 + r.Float64()*20
		for i := 0; i < n; i++ {
			mag := noise * (20 + r.Float64()*300) // 26–47 dB above noise
			ph := r.Float64() * 2 * math.Pi
			pulses = append(pulses, truth{
				delay: pos * ts,
				amp:   complex(mag*math.Cos(ph), mag*math.Sin(ph)),
			})
			pos += 12 + r.Float64()*80 // ≥ one pulse duration apart
			if pos > 900 {
				break
			}
		}
		taps := make([]complex128, 1016)
		for _, p := range pulses {
			shape.RenderInto(taps, p.amp, p.delay/ts, ts)
		}
		rr := rand.New(rand.NewPCG(seed, 22))
		sigma := noise / math.Sqrt2
		for i := range taps {
			taps[i] += complex(rr.NormFloat64()*sigma, rr.NormFloat64()*sigma)
		}
		got, err := det.Detect(taps, noise)
		if err != nil || len(got) != len(pulses) {
			return false
		}
		for i, p := range pulses {
			if math.Abs(got[i].Delay-p.delay) > ts/2 {
				return false
			}
			if cmplx.Abs(got[i].Amplitude-p.amp) > 0.2*cmplx.Abs(p.amp)+3*noise {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: mrand.New(mrand.NewSource(70))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDetectLinearityProperty: scaling the CIR scales the detected
// amplitudes and leaves delays unchanged (amplitude independence,
// challenge IV).
func TestDetectLinearityProperty(t *testing.T) {
	bank, _ := pulse.DefaultBank(ts, 1)
	det, _ := NewDetector(bank, DetectorConfig{MaxResponses: 2})
	shape := bank.Shape(0)
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 23))
		taps := make([]complex128, 1016)
		shape.RenderInto(taps, complex(1e-3, 2e-4), 100.3, ts)
		shape.RenderInto(taps, complex(-4e-4, 3e-4), 300.8, ts)
		const noise = 1e-6
		sigma := noise / math.Sqrt2
		for i := range taps {
			taps[i] += complex(r.NormFloat64()*sigma, r.NormFloat64()*sigma)
		}
		scale := complex(0.1+r.Float64()*10, 0)
		scaled := make([]complex128, len(taps))
		for i := range taps {
			scaled[i] = taps[i] * scale
		}
		a, err1 := det.Detect(taps, noise)
		b, err2 := det.Detect(scaled, noise*real(scale))
		if err1 != nil || err2 != nil || len(a) != len(b) || len(a) != 2 {
			return false
		}
		for i := range a {
			if math.Abs(a[i].Delay-b[i].Delay) > ts/8 {
				return false
			}
			want := a[i].Amplitude * scale
			if cmplx.Abs(b[i].Amplitude-want) > 0.05*cmplx.Abs(want) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20, Rand: mrand.New(mrand.NewSource(71))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSlotPlanAssignBijectiveProperty: Assign is a bijection from IDs to
// (slot, shape) pairs for arbitrary valid plans.
func TestSlotPlanAssignBijectiveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 29))
		plan := SlotPlan{
			NumSlots:  1 + r.IntN(15),
			NumShapes: 1 + r.IntN(10),
		}
		plan.SlotWidth = MaxSlotDelay / float64(plan.NumSlots)
		if plan.Validate() != nil {
			return false
		}
		seen := make(map[[2]int]bool, plan.Capacity())
		for id := 0; id < plan.Capacity(); id++ {
			slot, shape, err := plan.Assign(id)
			if err != nil {
				return false
			}
			key := [2]int{slot, shape}
			if seen[key] {
				return false
			}
			seen[key] = true
			back, err := plan.IDFor(slot, shape)
			if err != nil || back != id {
				return false
			}
		}
		return len(seen) == plan.Capacity()
	}
	cfg := &quick.Config{MaxCount: 50, Rand: mrand.New(mrand.NewSource(72))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSlotOfRoundTripProperty: a response placed at slot k with an
// intra-slot offset below the decision margin classifies back to k.
func TestSlotOfRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 31))
		plan := SlotPlan{NumSlots: 2 + r.IntN(10), NumShapes: 1}
		plan.SlotWidth = MaxSlotDelay / float64(plan.NumSlots)
		k := r.IntN(plan.NumSlots)
		offset := (r.Float64() - 0.5) * 0.9 * plan.SlotWidth // within ±0.45 δ
		rel := plan.ExtraDelay(k) + offset
		got := plan.SlotOf(rel)
		// Clamping at the edges is acceptable; interior slots must match.
		if k > 0 && k < plan.NumSlots-1 {
			return got == k
		}
		return got >= 0 && got < plan.NumSlots
	}
	cfg := &quick.Config{MaxCount: 100, Rand: mrand.New(mrand.NewSource(73))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTWRReciprocityProperty: Eq. 2 is invariant to both clocks' phase
// and, to first order, reports the true distance for ideal clocks.
func TestTWRReciprocityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 37))
		d := 0.5 + r.Float64()*50
		tof := d / 299792458.0
		turnaround := 100e-6 + r.Float64()*500e-6
		t0 := r.Float64()
		roundTrip := 2*tof + turnaround
		got := TWRSpans(roundTrip, turnaround)
		_ = t0
		return math.Abs(got-d) < 1e-6
	}
	cfg := &quick.Config{MaxCount: 200, Rand: mrand.New(mrand.NewSource(74))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
