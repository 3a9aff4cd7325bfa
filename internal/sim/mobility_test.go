package sim

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/geom"
)

func TestTrackStaysInRoamDisk(t *testing.T) {
	home := geom.Point{X: 100, Y: 50}
	cfg := MobilityConfig{RoamRadius: 10, MinSpeed: 0.5, MaxSpeed: 1.5, Pause: 0.2}
	tr := NewTrack(home, cfg, rand.New(rand.NewPCG(1, 2)), 600)
	for i := 0; i <= 6000; i++ {
		ts := float64(i) * 0.1
		p := tr.Pos(ts)
		if d := p.Dist(home); d > cfg.RoamRadius+1e-9 {
			t.Fatalf("t=%g: %g m from home, roam radius %g", ts, d, cfg.RoamRadius)
		}
	}
}

func TestTrackContinuityAndSpeed(t *testing.T) {
	cfg := MobilityConfig{RoamRadius: 10, MinSpeed: 0.5, MaxSpeed: 1.5}
	tr := NewTrack(geom.Point{}, cfg, rand.New(rand.NewPCG(3, 4)), 300)
	const dt = 0.01
	prev := tr.Pos(0)
	for i := 1; i <= 30000; i++ {
		p := tr.Pos(float64(i) * dt)
		if v := p.Dist(prev) / dt; v > cfg.MaxSpeed*1.01 {
			t.Fatalf("t=%g: speed %g m/s exceeds max %g", float64(i)*dt, v, cfg.MaxSpeed)
		}
		prev = p
	}
}

func TestTrackDeterministicAndClamped(t *testing.T) {
	home := geom.Point{X: 1, Y: 2}
	cfg := MobilityConfig{RoamRadius: 5, MaxSpeed: 1}
	a := NewTrack(home, cfg, rand.New(rand.NewPCG(9, 9)), 100)
	b := NewTrack(home, cfg, rand.New(rand.NewPCG(9, 9)), 100)
	for _, ts := range []float64{-1, 0, 33.3, 99.9, 100, 1e6} {
		if a.Pos(ts) != b.Pos(ts) {
			t.Fatalf("t=%g: same-seed tracks differ", ts)
		}
	}
	if a.Pos(-5) != a.Pos(0) {
		t.Error("pre-horizon position not clamped to start")
	}
	if a.Pos(1e6) != a.Pos(1e5) {
		t.Error("post-horizon position not clamped to end")
	}
	// Static configs pin the node to home.
	st := NewTrack(home, MobilityConfig{}, rand.New(rand.NewPCG(1, 1)), 100)
	if st.Pos(42) != home {
		t.Error("static track moved")
	}
	if st.Home() != home {
		t.Error("home mismatch")
	}
}

// refPos is the reference trajectory evaluation: a linear scan over the
// full leg list, as Pos evaluated it before the first leg moved inline.
func refPos(legs []leg, home geom.Point, t float64) geom.Point {
	if len(legs) == 0 {
		return home
	}
	if t <= legs[0].t0 {
		return legs[0].from
	}
	for i := range legs {
		lg := &legs[i]
		if t > lg.t1 {
			continue
		}
		if lg.t1 <= lg.t0 {
			return lg.to
		}
		f := (t - lg.t0) / (lg.t1 - lg.t0)
		return geom.Point{
			X: lg.from.X + f*(lg.to.X-lg.from.X),
			Y: lg.from.Y + f*(lg.to.Y-lg.from.Y),
		}
	}
	return legs[len(legs)-1].to
}

// allLegs returns the track's legs in time order; nil for a stationary
// track.
func (tr *Track) allLegs() []leg {
	if math.IsInf(tr.first.t0, 1) {
		return nil
	}
	return append([]leg{tr.first}, tr.rest...)
}

// TestTrackPosMatchesLinearScan checks Pos bit for bit against the linear
// leg scan at random times, at every leg's exact endpoints, and outside
// the built horizon, for every track shape Pos distinguishes.
func TestTrackPosMatchesLinearScan(t *testing.T) {
	home := geom.Point{X: 40, Y: -7}
	p1, p2 := geom.Point{X: 43, Y: -5}, geom.Point{X: 38, Y: -9}
	swarmWalk := MobilityConfig{RoamRadius: 10, MinSpeed: 0.5, MaxSpeed: 1.5}
	tracks := []struct {
		name string
		tr   Track
		legs int // expected leg count; -1: at least 8
	}{
		{"stationary", NewTrack(home, MobilityConfig{}, rand.New(rand.NewPCG(1, 1)), 100), 0},
		{"one leg", NewTrack(home, swarmWalk, rand.New(rand.NewPCG(2, 2)), 0.21), 1},
		{"multi-leg with pause", NewTrack(home,
			MobilityConfig{RoamRadius: 10, MinSpeed: 0.5, MaxSpeed: 1.5, Pause: 0.2},
			rand.New(rand.NewPCG(3, 3)), 60), -1},
		{"degenerate", trackOf(home, []leg{
			{t0: 0, t1: 0, from: home, to: home},
			{t0: 0, t1: 1, from: home, to: p1},
			{t0: 1, t1: 1, from: p1, to: p1},
			{t0: 1, t1: 2.5, from: p1, to: p2},
			{t0: 2.5, t1: 2.5, from: p2, to: p2},
		}), 5},
		{"one zero-duration leg", trackOf(home, []leg{{t0: 3, t1: 3, from: home, to: home}}), 1},
	}
	same := func(a, b geom.Point) bool {
		return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
	}
	rng := rand.New(rand.NewPCG(7, 7))
	for _, tc := range tracks {
		legs := tc.tr.allLegs()
		if tc.legs >= 0 && len(legs) != tc.legs || tc.legs < 0 && len(legs) < 8 {
			t.Fatalf("%s: %d legs, want %d", tc.name, len(legs), tc.legs)
		}
		if tc.tr.Home() != home {
			t.Errorf("%s: home %v, want %v", tc.name, tc.tr.Home(), home)
		}
		last := 0.0
		if len(legs) > 0 {
			last = legs[len(legs)-1].t1
		}
		times := []float64{math.Inf(-1), -1, 0, last, last + 1, math.Inf(1), math.NaN()}
		for _, lg := range legs {
			times = append(times, lg.t0, lg.t1, math.Nextafter(lg.t0, math.Inf(-1)), math.Nextafter(lg.t1, math.Inf(1)))
		}
		for i := 0; i < 2000; i++ {
			times = append(times, -0.5+(last+1)*rng.Float64())
		}
		for _, ts := range times {
			if got, want := tc.tr.Pos(ts), refPos(legs, home, ts); !same(got, want) {
				t.Fatalf("%s: Pos(%v) = %v, linear scan %v", tc.name, ts, got, want)
			}
		}
	}
}
