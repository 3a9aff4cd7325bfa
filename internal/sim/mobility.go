package sim

import (
	"math"
	"math/rand/v2"
	"slices"

	"github.com/uwb-sim/concurrent-ranging/internal/geom"
)

// MobilityConfig parameterizes the random-waypoint walks of swarm nodes.
// Every node roams inside a disk around its home position, so shard
// ownership (decided by the home) stays valid while actual distances — and
// with them flight times and ranging geometry — change over the run.
type MobilityConfig struct {
	// RoamRadius is the maximum distance from the home position in meters.
	// 0 pins every node to its home (static deployment).
	RoamRadius float64
	// MinSpeed and MaxSpeed bound the uniform walking-speed draw in m/s.
	MinSpeed, MaxSpeed float64
	// Pause is the dwell time at each waypoint in seconds.
	Pause float64
}

// leg is one piece of a trajectory: linear motion (or dwell, when from ==
// to) over [t0, t1].
type leg struct {
	t0, t1   float64
	from, to geom.Point
}

// Track is one node's precomputed piecewise-linear trajectory over the
// simulation horizon. Tracks are built before the run from the node's own
// RNG stream and are immutable afterwards, so any shard may evaluate any
// node's position without synchronization.
//
// The first leg is stored inline and only the further legs in a separate
// slice: at swarm scale a leg lasts seconds while the run horizon is a
// fraction of one, so nearly every moving track has exactly one leg and
// Pos reads it from the node's own cache lines instead of chasing a
// second pointer. Every walk starts at home, so first.from is the home
// position; a stationary track is a dwell at home starting at +Inf,
// which Pos clamps to for every t.
type Track struct {
	first leg
	rest  []leg // legs after first; nil for one-leg and stationary tracks
}

// NewTrack builds a waypoint walk covering [0, horizon] seconds. All draws
// come from rng — the node's split stream — so one node's trajectory does
// not depend on how many other nodes exist or in which order they are
// built. A zero RoamRadius (or non-positive speeds/horizon) yields a
// stationary track.
func NewTrack(home geom.Point, cfg MobilityConfig, rng *rand.Rand, horizon float64) Track {
	if cfg.RoamRadius <= 0 || cfg.MaxSpeed <= 0 || horizon <= 0 {
		return trackOf(home, nil)
	}
	minSpeed := cfg.MinSpeed
	if minSpeed <= 0 || minSpeed > cfg.MaxSpeed {
		minSpeed = cfg.MaxSpeed
	}
	var buf [8]leg // typical walks are built without a heap allocation
	legs := buf[:0]
	pos := home
	t := 0.0
	for t < horizon {
		// Waypoint uniform in the roam disk around home.
		r := cfg.RoamRadius * math.Sqrt(rng.Float64())
		theta := 2 * math.Pi * rng.Float64()
		next := geom.Point{X: home.X + r*math.Cos(theta), Y: home.Y + r*math.Sin(theta)}
		speed := minSpeed + (cfg.MaxSpeed-minSpeed)*rng.Float64()
		dur := pos.Dist(next) / speed
		if dur > 0 {
			legs = append(legs, leg{t0: t, t1: t + dur, from: pos, to: next})
			t += dur
			pos = next
		}
		if cfg.Pause > 0 {
			legs = append(legs, leg{t0: t, t1: t + cfg.Pause, from: pos, to: pos})
			t += cfg.Pause
		}
		if dur <= 0 && cfg.Pause <= 0 {
			// Degenerate draw (waypoint == current position, no pause):
			// spend the leg dwelling so the loop always advances.
			legs = append(legs, leg{t0: t, t1: horizon, from: pos, to: pos})
			break
		}
	}
	return trackOf(home, legs)
}

// trackOf lays out a walk from home over legs (in time order, the first
// starting at home): the first leg inline, copies of the rest in an
// exactly sized slice. No legs makes a stationary track.
func trackOf(home geom.Point, legs []leg) Track {
	if len(legs) == 0 {
		inf := math.Inf(1)
		return Track{first: leg{t0: inf, t1: inf, from: home, to: home}}
	}
	tr := Track{first: legs[0]}
	if len(legs) > 1 {
		tr.rest = slices.Clone(legs[1:])
	}
	return tr
}

// Home returns the track's home position (the shard anchor).
func (tr *Track) Home() geom.Point { return tr.first.from }

// Pos evaluates the position at time t, clamping outside the built
// horizon: before the first leg the node is at its start, after the last
// at its final waypoint. The legs are scanned in time order, inline leg
// first; !(t > t1) rather than t <= t1 keeps a NaN t on the first leg.
func (tr *Track) Pos(t float64) geom.Point {
	if t <= tr.first.t0 {
		return tr.first.from
	}
	if !(t > tr.first.t1) {
		return tr.first.at(t)
	}
	for i := range tr.rest {
		if lg := &tr.rest[i]; !(t > lg.t1) {
			return lg.at(t)
		}
	}
	if n := len(tr.rest); n > 0 {
		return tr.rest[n-1].to
	}
	return tr.first.to
}

// at interpolates the leg at a time t ≤ t1; a zero-duration leg is at its
// end point.
func (lg *leg) at(t float64) geom.Point {
	if lg.t1 <= lg.t0 {
		return lg.to
	}
	f := (t - lg.t0) / (lg.t1 - lg.t0)
	return geom.Point{
		X: lg.from.X + f*(lg.to.X-lg.from.X),
		Y: lg.from.Y + f*(lg.to.Y-lg.from.Y),
	}
}
