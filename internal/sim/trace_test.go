package sim

// Trace-path and stats coverage for one concurrent round: the event
// sequence tx-init → rx-init → tx-resp → rx-aggregate → decode, the
// nil-tracer contract, and the frame/collision/decode tallies.

import (
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/channel"
	"github.com/uwb-sim/concurrent-ranging/internal/geom"
	"github.com/uwb-sim/concurrent-ranging/internal/obs"
)

// traceNetwork builds a hallway network with one initiator and nResp
// responders.
func traceNetwork(t *testing.T, nResp int) (*Network, *Node, []*Node) {
	t.Helper()
	net, err := NewNetwork(NetworkConfig{Environment: channel.Hallway(), Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	init, err := net.AddNode(NodeConfig{ID: -1, Name: "init", Pos: geom.Point{X: 1, Y: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	var resps []*Node
	for i := 0; i < nResp; i++ {
		node, err := net.AddNode(NodeConfig{ID: i, Pos: geom.Point{X: 4 + 3*float64(i), Y: 0.9}})
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, node)
	}
	return net, init, resps
}

func TestTracerEventSequence(t *testing.T) {
	const nResp = 2
	net, init, resps := traceNetwork(t, nResp)
	var events []TraceEvent
	net.SetTracer(func(e TraceEvent) { events = append(events, e) })
	if _, err := net.RunConcurrentRound(init, resps, RoundConfig{}); err != nil {
		t.Fatal(err)
	}

	// One tx-init, one rx-init and one tx-resp per responder, one
	// rx-aggregate, one decode.
	counts := map[string]int{}
	for _, e := range events {
		counts[e.Kind]++
	}
	want := map[string]int{
		EventTXInit: 1, EventRXInit: nResp, EventTXResponse: nResp,
		EventRXAggregate: 1, EventDecode: 1,
	}
	for kind, n := range want {
		if counts[kind] != n {
			t.Errorf("%d %s events, want %d", counts[kind], kind, n)
		}
	}
	if len(events) != 1+2*nResp+2 {
		t.Fatalf("%d events total, want %d", len(events), 1+2*nResp+2)
	}

	// Phase ordering: the INIT broadcast strictly first, every responder
	// hears INIT before any responder transmits, the aggregate reception
	// after all responses, the decode last.
	phase := map[string]int{
		EventTXInit: 0, EventRXInit: 1, EventTXResponse: 2,
		EventRXAggregate: 3, EventDecode: 4,
	}
	for i := 1; i < len(events); i++ {
		if phase[events[i].Kind] < phase[events[i-1].Kind] {
			t.Fatalf("event %d (%s) out of order after %s", i, events[i].Kind, events[i-1].Kind)
		}
		if events[i].Time < events[i-1].Time {
			t.Fatalf("timeline not monotone at event %d: %g after %g",
				i, events[i].Time, events[i-1].Time)
		}
	}
	if events[0].Node != "init" || events[len(events)-1].Kind != EventDecode {
		t.Fatalf("unexpected endpoints: first %+v, last %+v", events[0], events[len(events)-1])
	}
}

func TestNilTracerEmitsNothing(t *testing.T) {
	net, init, resps := traceNetwork(t, 2)
	fired := 0
	net.SetTracer(func(TraceEvent) { fired++ })
	net.SetTracer(nil) // installing then clearing must fully disable
	if _, err := net.RunConcurrentRound(init, resps, RoundConfig{}); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("nil tracer still received %d events", fired)
	}
}

func TestTracedRoundMatchesUntraced(t *testing.T) {
	// Tracing (like recording) must be observational: identical seeds
	// with and without a tracer produce identical round results.
	run := func(trace bool) *RoundResult {
		net, init, resps := traceNetwork(t, 2)
		if trace {
			net.SetTracer(func(TraceEvent) {})
		}
		round, err := net.RunConcurrentRound(init, resps, RoundConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return round
	}
	a, b := run(false), run(true)
	if a.InitTXTimestamp != b.InitTXTimestamp || a.DecodedID != b.DecodedID ||
		a.Reception.Timestamp != b.Reception.Timestamp {
		t.Fatalf("tracer changed the round: %+v vs %+v", a, b)
	}
}

func TestNetworkStatsAndRecorder(t *testing.T) {
	const nResp = 3
	net, init, resps := traceNetwork(t, nResp)
	reg := obs.NewRegistry()
	net.SetRecorder(reg)
	if _, err := net.RunConcurrentRound(init, resps, RoundConfig{}); err != nil {
		t.Fatal(err)
	}
	stats := net.Stats()
	want := Stats{
		FramesOnAir: 1 + nResp, // one INIT + one RESP each
		Receptions:  nResp + 1, // INIT at each responder + the aggregate
		Collisions:  1,         // the aggregate held 3 overlapping arrivals
	}
	if stats != want {
		t.Fatalf("stats = %+v, want %+v", stats, want)
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue(MetricFramesOnAir); got != want.FramesOnAir {
		t.Errorf("%s = %d, want %d", MetricFramesOnAir, got, want.FramesOnAir)
	}
	if got := snap.CounterValue(MetricReceptions); got != want.Receptions {
		t.Errorf("%s = %d, want %d", MetricReceptions, got, want.Receptions)
	}
	if got := snap.CounterValue(MetricCollisions); got != 1 {
		t.Errorf("%s = %d, want 1", MetricCollisions, got)
	}
	if got := snap.CounterValue(MetricDecodeFailures); got != 0 {
		t.Errorf("%s = %d, want 0 (no capture model)", MetricDecodeFailures, got)
	}
}

func TestNetworkStatsCountDecodeFailures(t *testing.T) {
	// A 100 dB capture threshold is an SIR no multi-responder round
	// meets, so the first round's decode fails deterministically; the
	// tally and its metric must count it, and a later round without a
	// capture model must leave them alone.
	net, err := NewNetwork(NetworkConfig{Environment: channel.FreeSpace(), Seed: 1,
		RandomClockPhase: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	net.SetRecorder(reg)
	init, err := net.AddNode(NodeConfig{ID: -1, Name: "init", Pos: geom.Point{}})
	if err != nil {
		t.Fatal(err)
	}
	var resps []*Node
	for i := 0; i < 6; i++ {
		node, err := net.AddNode(NodeConfig{ID: i, Pos: geom.Point{X: 5 - 10*float64(i%2), Y: float64(i)}})
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, node)
	}
	round, err := net.RunConcurrentRound(init, resps, RoundConfig{Capture: &CaptureModel{ThresholdDB: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if round.DecodeOK {
		t.Fatal("DecodeOK = true under a 100 dB capture threshold")
	}
	check := func(when string) {
		t.Helper()
		if got := net.Stats().DecodeFailures; got != 1 {
			t.Errorf("%s: DecodeFailures = %d, want 1", when, got)
		}
		if got := reg.Snapshot().CounterValue(MetricDecodeFailures); got != 1 {
			t.Errorf("%s: %s = %d, want 1", when, MetricDecodeFailures, got)
		}
	}
	check("after the failed round")
	if _, err := net.RunConcurrentRound(init, resps, RoundConfig{}); err != nil {
		t.Fatal(err)
	}
	check("after a round without a capture model")
}
