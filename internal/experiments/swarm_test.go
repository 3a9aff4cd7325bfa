package experiments

import (
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/obs"
)

func TestSwarmScaleCarriesThroughputAndProfile(t *testing.T) {
	cfg := SwarmScaleConfig{Seed: 1, Workers: 2, Sizes: []int{100, 400}}
	SetInstrumentation(nil)
	bare, err := SwarmScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Profile != nil {
		t.Fatal("uninstrumented sweep carries an engine profile")
	}
	if ev, rd := bare.Throughput(); ev <= 0 || rd <= 0 {
		t.Fatalf("Throughput() = %g events/s, %g rounds/s; want both > 0", ev, rd)
	}

	withInstrumentation(t, &Instrumentation{Recorder: obs.NewRegistry()})
	profiled, err := SwarmScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if profiled.Profile == nil {
		t.Fatal("instrumented sweep carries no engine profile")
	}
	// The profile is the last (largest) point's.
	if got, want := profiled.Profile.Events, int64(profiled.Points[1].Events); got != want {
		t.Fatalf("profile covers %d events, want the last point's %d", got, want)
	}
}
