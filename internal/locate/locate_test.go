package locate

import (
	"fmt"
	"math"
	mrand "math/rand"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"github.com/uwb-sim/concurrent-ranging/internal/geom"
)

func obsFor(truth geom.Point, anchors []geom.Point, noise float64, rng *rand.Rand) []RangeObservation {
	out := make([]RangeObservation, len(anchors))
	for i, a := range anchors {
		d := truth.Dist(a)
		if noise > 0 {
			d += rng.NormFloat64() * noise
		}
		out[i] = RangeObservation{Anchor: a, Distance: d}
	}
	return out
}

var squareAnchors = []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 8}, {X: 0, Y: 8}}

func TestSolveExactRanges(t *testing.T) {
	truth := geom.Point{X: 3.2, Y: 5.7}
	res, err := Solve(obsFor(truth, squareAnchors, 0, nil), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Position.Dist(truth) > 1e-6 {
		t.Fatalf("position %v, want %v", res.Position, truth)
	}
	if res.Residual > 1e-6 {
		t.Fatalf("residual %g", res.Residual)
	}
}

func TestSolveNoisyRanges(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 92))
	truth := geom.Point{X: 6.1, Y: 2.4}
	var worst float64
	for trial := 0; trial < 50; trial++ {
		res, err := Solve(obsFor(truth, squareAnchors, 0.03, rng), Config{})
		if err != nil {
			t.Fatal(err)
		}
		worst = math.Max(worst, res.Position.Dist(truth))
	}
	// 3 cm range noise with 4 anchors → position errors of a few cm.
	if worst > 0.15 {
		t.Fatalf("worst position error %g m", worst)
	}
}

func TestSolveThreeAnchorsMinimum(t *testing.T) {
	truth := geom.Point{X: 2, Y: 3}
	res, err := Solve(obsFor(truth, squareAnchors[:3], 0, nil), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Position.Dist(truth) > 1e-6 {
		t.Fatalf("position %v", res.Position)
	}
	if _, err := Solve(obsFor(truth, squareAnchors[:2], 0, nil), Config{}); err == nil {
		t.Fatal("two anchors accepted")
	}
}

func TestSolveCollinearAnchorsRejected(t *testing.T) {
	line := []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 10, Y: 0}}
	_, err := Solve(obsFor(geom.Point{X: 3, Y: 4}, line, 0, nil), Config{})
	if err == nil {
		t.Fatal("collinear anchors accepted")
	}
}

func TestSolveWeightsDownweightBadRange(t *testing.T) {
	truth := geom.Point{X: 5, Y: 4}
	obs := obsFor(truth, squareAnchors, 0, nil)
	// Corrupt one range badly; with a tiny weight the fix stays accurate.
	obs = append(obs, RangeObservation{Anchor: geom.Point{X: 5, Y: 0}, Distance: 12, Weight: 1e-6})
	res, err := Solve(obs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Position.Dist(truth) > 0.01 {
		t.Fatalf("down-weighted outlier still moved the fix: %v", res.Position)
	}
	// The same outlier at full weight visibly degrades the fix.
	obs[len(obs)-1].Weight = 1
	res2, err := Solve(obs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Position.Dist(truth) < res.Position.Dist(truth) {
		t.Fatal("full-weight outlier should hurt more")
	}
}

func TestSolveRecoversRandomPositionsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		truth := geom.Point{X: rng.Float64()*8 + 1, Y: rng.Float64()*6 + 1}
		res, err := Solve(obsFor(truth, squareAnchors, 0, nil), Config{})
		return err == nil && res.Position.Dist(truth) < 1e-5
	}
	cfg := &quick.Config{MaxCount: 60, Rand: mrand.New(mrand.NewSource(60))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSolveConfigDefaults(t *testing.T) {
	truth := geom.Point{X: 4, Y: 4}
	res, err := Solve(obsFor(truth, squareAnchors, 0, nil), Config{MaxIterations: 1, Tolerance: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("iterations %d, want 1", res.Iterations)
	}
}

func TestSolveRobustRejectsNLOSOutlier(t *testing.T) {
	truth := geom.Point{X: 4, Y: 3}
	obs := obsFor(truth, squareAnchors, 0.02, rand.New(rand.NewPCG(95, 96)))
	// One NLOS range, inflated by 3 m (positively biased, as reflections
	// always lengthen the path).
	obs = append(obs, RangeObservation{
		Anchor:   geom.Point{X: 5, Y: 8},
		Distance: truth.Dist(geom.Point{X: 5, Y: 8}) + 3,
	})
	plain, err := Solve(obs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	robust, err := SolveRobust(obs, RobustConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if robust.Position.Dist(truth) > 0.15 {
		t.Fatalf("robust fix error %g m", robust.Position.Dist(truth))
	}
	if robust.Position.Dist(truth) >= plain.Position.Dist(truth) {
		t.Fatalf("robust (%g) not better than plain (%g)",
			robust.Position.Dist(truth), plain.Position.Dist(truth))
	}
}

func TestSolveRobustCleanDataMatchesPlain(t *testing.T) {
	truth := geom.Point{X: 6, Y: 5}
	obs := obsFor(truth, squareAnchors, 0, nil)
	robust, err := SolveRobust(obs, RobustConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if robust.Position.Dist(truth) > 1e-5 {
		t.Fatalf("clean-data robust fix error %g", robust.Position.Dist(truth))
	}
}

func TestSolveRobustRequiresRedundancy(t *testing.T) {
	truth := geom.Point{X: 2, Y: 2}
	obs := obsFor(truth, squareAnchors[:3], 0, nil)
	if _, err := SolveRobust(obs, RobustConfig{}); err == nil {
		t.Fatal("three ranges accepted for robust solve")
	}
}

func TestSolveRejectsNonFiniteInput(t *testing.T) {
	truth := geom.Point{X: 4, Y: 3}
	cases := map[string]func(o *RangeObservation){
		"NaN distance":  func(o *RangeObservation) { o.Distance = math.NaN() },
		"+Inf distance": func(o *RangeObservation) { o.Distance = math.Inf(1) },
		"-Inf distance": func(o *RangeObservation) { o.Distance = math.Inf(-1) },
		"NaN weight":    func(o *RangeObservation) { o.Weight = math.NaN() },
		"+Inf weight":   func(o *RangeObservation) { o.Weight = math.Inf(1) },
		"NaN anchor X":  func(o *RangeObservation) { o.Anchor.X = math.NaN() },
		"-Inf anchor Y": func(o *RangeObservation) { o.Anchor.Y = math.Inf(-1) },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			obs := obsFor(truth, squareAnchors, 0, nil)
			corrupt(&obs[2])
			res, err := Solve(obs, Config{})
			if err == nil || !strings.Contains(err.Error(), "observation 2") {
				t.Fatalf("Solve = %+v, err %v; want an error naming observation 2", res, err)
			}
			res, err = SolveRobust(obs, RobustConfig{})
			if err == nil || !strings.Contains(err.Error(), "observation 2") {
				t.Fatalf("SolveRobust = %+v, err %v; want an error naming observation 2", res, err)
			}
		})
	}
}

func TestSolveAcceptsSlightlyNegativeRange(t *testing.T) {
	// Noise can push a range measured next to an anchor below zero; that
	// is a measurement, not corrupt input.
	truth := geom.Point{X: 0.01, Y: 0.01}
	obs := obsFor(truth, squareAnchors, 0, nil)
	obs[0].Distance = -0.02
	res, err := Solve(obs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Position.Dist(truth); d > 0.1 {
		t.Fatalf("fix %v is %g m from truth", res.Position, d)
	}
}

func TestSolveIterationsCountsStepsTaken(t *testing.T) {
	obs := obsFor(geom.Point{X: 4, Y: 3}, squareAnchors, 0.05, rand.New(rand.NewPCG(5, 6)))
	// A negative tolerance never converges, so the solver runs to its cap.
	for _, maxIter := range []int{0, 1, 7} {
		t.Run(fmt.Sprint(maxIter), func(t *testing.T) {
			want := maxIter
			if want == 0 {
				want = 50 // the default cap
			}
			res, err := Solve(obs, Config{MaxIterations: maxIter, Tolerance: -1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations != want {
				t.Fatalf("Iterations = %d, want %d", res.Iterations, want)
			}
		})
	}
}
