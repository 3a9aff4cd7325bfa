// Package channel models UWB radio propagation: free-space/log-distance
// path loss, deterministic specular multipath components enumerated from a
// floor plan with the image method (Fig. 1 of the paper), a Saleh–
// Valenzuela-style diffuse tail ν(t) (Eq. 1), and per-environment presets.
//
// A channel realization is a list of taps (α_k, τ_k); rendering the taps
// through the transmitted pulse shape into the CIR accumulator is the
// radio's job (internal/dw1000), keeping propagation and hardware models
// independent.
package channel

import (
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/uwb-sim/concurrent-ranging/internal/geom"
)

// SpeedOfLight is the propagation speed c used by Eq. 2 and Eq. 4, in m/s.
const SpeedOfLight = 299792458.0

// Channel7CenterFrequency is the center frequency of DW1000 Channel 7 in
// Hz, used for path-loss and carrier-phase computations.
const Channel7CenterFrequency = 6.4896e9

// Tap is one resolvable multipath component of a channel realization.
type Tap struct {
	// Delay is the absolute propagation delay τ_k in seconds.
	Delay float64
	// Gain is the complex amplitude α_k (linear, relative to unit
	// transmitted pulse energy).
	Gain complex128
	// Order is the number of specular bounces; 0 is the direct path and
	// DiffuseOrder marks a diffuse-tail component.
	Order int
}

// DiffuseOrder marks taps belonging to the diffuse multipath tail ν(t).
const DiffuseOrder = -1

// PathLoss is a log-distance path-loss model with free space as the
// special case Exponent = 2.
type PathLoss struct {
	// Exponent is the path-loss exponent n (2 in free space, larger in
	// cluttered indoor environments).
	Exponent float64
	// RefLossDB is the power loss at the 1 m reference distance in dB.
	RefLossDB float64
}

// FreeSpacePathLoss returns the free-space model at carrier frequency fc,
// with the 1 m reference loss from the Friis equation.
func FreeSpacePathLoss(fc float64) PathLoss {
	ref := 20 * math.Log10(4*math.Pi*fc/SpeedOfLight)
	return PathLoss{Exponent: 2, RefLossDB: ref}
}

// AmplitudeGain returns the linear amplitude gain at distance d (meters).
// Distances below 0.1 m are clamped to keep near-field gains finite.
func (pl PathLoss) AmplitudeGain(d float64) float64 {
	d = math.Max(d, 0.1)
	lossDB := pl.RefLossDB + 10*pl.Exponent*math.Log10(d)
	return math.Pow(10, -lossDB/20)
}

// Diffuse parameterizes the dense multipath tail ν(t): Poisson ray
// arrivals with exponentially decaying power.
type Diffuse struct {
	// PowerRatio is the total diffuse power relative to the power of an
	// unobstructed direct path at the same distance (linear). 0 disables
	// the tail.
	PowerRatio float64
	// Decay is the exponential power-decay constant Γ in seconds.
	Decay float64
	// ArrivalRate is the mean ray arrival rate λ in rays per second.
	ArrivalRate float64
	// MaxExcessDelay truncates the tail this long after the first path.
	MaxExcessDelay float64
}

// Environment bundles the propagation parameters of one deployment area.
type Environment struct {
	// Name labels the preset.
	Name string
	// Plan is the floor plan for deterministic reflections; nil means
	// free space (no specular MPCs).
	Plan *geom.FloorPlan
	// MaxReflectionOrder bounds the image-method enumeration.
	MaxReflectionOrder int
	// PathLoss is the large-scale loss model.
	PathLoss PathLoss
	// Diffuse parameterizes ν(t).
	Diffuse Diffuse
	// CarrierFrequency is the center frequency used for per-path carrier
	// phase, Hz.
	CarrierFrequency float64
}

// Realize draws one channel realization between tx and rx. Deterministic
// taps (LOS + specular reflections) are derived from the floor plan with
// carrier phase set by the path length; diffuse taps are drawn from the
// Poisson/exponential model using rng. The returned taps are sorted by
// delay. rng may be nil only when the environment has no diffuse tail.
func (e *Environment) Realize(tx, rx geom.Point, rng *rand.Rand) ([]Tap, error) {
	if e.CarrierFrequency <= 0 {
		return nil, fmt.Errorf("channel: environment %q has no carrier frequency", e.Name)
	}
	d := tx.Dist(rx)
	if d <= 0 {
		return nil, fmt.Errorf("channel: tx and rx are co-located at %v", tx)
	}
	var taps []Tap
	if e.Plan != nil {
		paths, err := e.Plan.Paths(tx, rx, e.MaxReflectionOrder)
		if err != nil {
			return nil, fmt.Errorf("environment %q: %w", e.Name, err)
		}
		taps = make([]Tap, 0, len(paths))
		for _, p := range paths {
			taps = append(taps, e.tapForPath(p))
		}
	} else {
		taps = []Tap{e.tapForPath(geom.Path{
			Points: []geom.Point{tx, rx},
			Length: d,
			Gain:   1,
			Order:  0,
		})}
	}
	if e.Diffuse.PowerRatio > 0 {
		if rng == nil {
			return nil, fmt.Errorf("channel: environment %q needs an RNG for its diffuse tail", e.Name)
		}
		taps = append(taps, e.diffuseTaps(d, rng)...)
	}
	sortTapsByDelay(taps)
	return taps, nil
}

// tapForPath converts a geometric path into a channel tap: amplitude from
// the path-loss model over the full path length times the reflection/
// transmission gain, and carrier phase from the electrical length.
func (e *Environment) tapForPath(p geom.Path) Tap {
	amp := e.PathLoss.AmplitudeGain(p.Length) * p.Gain
	phase := -2 * math.Pi * e.CarrierFrequency * p.Length / SpeedOfLight
	return Tap{
		Delay: p.Length / SpeedOfLight,
		Gain:  complex(amp*math.Cos(phase), amp*math.Sin(phase)),
		Order: p.Order,
	}
}

// diffuseTaps samples the dense tail: Poisson arrivals after the direct
// path with exponentially decaying complex-Gaussian amplitudes, scaled so
// the expected total tail power equals PowerRatio times the unobstructed
// direct-path power at distance d.
func (e *Environment) diffuseTaps(d float64, rng *rand.Rand) []Tap {
	cfg := e.Diffuse
	losDelay := d / SpeedOfLight
	directPower := e.PathLoss.AmplitudeGain(d)
	directPower *= directPower
	// Expected tail power = λ · ∫₀^∞ P0·exp(-τ/Γ) dτ = λ·P0·Γ.
	p0 := cfg.PowerRatio * directPower / (cfg.ArrivalRate * cfg.Decay)
	var taps []Tap
	excess := 0.0
	for {
		// Exponential inter-arrival times.
		excess += rng.ExpFloat64() / cfg.ArrivalRate
		if excess > cfg.MaxExcessDelay {
			break
		}
		power := p0 * math.Exp(-excess/cfg.Decay)
		sigma := math.Sqrt(power / 2)
		taps = append(taps, Tap{
			Delay: losDelay + excess,
			Gain:  complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma),
			Order: DiffuseOrder,
		})
	}
	return taps
}

func sortTapsByDelay(taps []Tap) {
	// Insertion sort: tap lists are short and mostly sorted already.
	for i := 1; i < len(taps); i++ {
		for j := i; j > 0 && taps[j].Delay < taps[j-1].Delay; j-- {
			taps[j], taps[j-1] = taps[j-1], taps[j]
		}
	}
}
