package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"time"

	"github.com/uwb-sim/concurrent-ranging/internal/channel"
	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/geom"
	"github.com/uwb-sim/concurrent-ranging/internal/locate"
	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
	"github.com/uwb-sim/concurrent-ranging/internal/sim"
	"github.com/uwb-sim/concurrent-ranging/ranging"
)

// The session workload is the museum layout of examples/museum: nine
// anchors along a 30 m × 2.4 m hallway, a 75 m maximum range (4 RPM slots)
// × 3 pulse shapes, ideal transceiver. A tag moves to a seeded random
// point before every round.
const (
	museumMaxRange = 75
	museumShapes   = 3
	// foundTolM is the distance error within which a measurement counts
	// as finding its responder.
	foundTolM = 0.5
)

// halfSampleM is half a CIR sample expressed as ranging error: Eq. 4
// turns a delay error δ into a distance error c·δ/2.
var halfSampleM = channel.SpeedOfLight * dw1000.SampleInterval / 4

var museumAnchors = []struct {
	id   int
	x, y float64
}{
	{0, 3, 0.3}, {1, 7, 2.1}, {2, 11, 0.3}, {3, 15, 2.1}, {4, 19, 0.3},
	{5, 23, 2.1}, {6, 26, 0.3}, {7, 28, 2.1}, {8, 29, 0.3},
}

func museumAnchorMap() map[int]ranging.Position {
	m := make(map[int]ranging.Position, len(museumAnchors))
	for _, a := range museumAnchors {
		m[a.id] = ranging.Position{X: a.x, Y: a.y}
	}
	return m
}

// tagPositions returns the seeded tag path: n uniform points in the
// hallway, clear of the walls.
func tagPositions(seed uint64, n int) []ranging.Position {
	r := rand.New(rand.NewPCG(seed, 0x5e55))
	out := make([]ranging.Position, n)
	for i := range out {
		out[i] = ranging.Position{X: 1 + 28*r.Float64(), Y: 0.4 + 1.6*r.Float64()}
	}
	return out
}

func buildMuseum(seed uint64) (*ranging.Session, error) {
	sc := ranging.NewScenario(ranging.Config{
		Environment:      ranging.EnvHallway,
		Seed:             seed,
		MaxRange:         museumMaxRange,
		NumShapes:        museumShapes,
		IdealTransceiver: true,
	})
	sc.SetInitiator(15, 1.2)
	for _, a := range museumAnchors {
		sc.AddResponder(a.id, a.x, a.y)
	}
	return sc.Build()
}

// sessionRound is one round's outputs as the library user sees them.
// noFix marks a round LocateFrom refused for bad input (see fixOutcome).
type sessionRound struct {
	res   *ranging.Result
	pos   ranging.Position
	noFix bool
}

// userRound is one round as a library user runs it: move the tag, Run,
// then LocateFrom.
func userRound(s *ranging.Session, p ranging.Position, anchors map[int]ranging.Position) (sessionRound, error) {
	s.MoveInitiator(p.X, p.Y)
	res, err := s.Run()
	if err != nil {
		return sessionRound{}, err
	}
	pos, err := ranging.LocateFrom(res.Measurements, anchors)
	noFix, err := fixOutcome(res, err)
	return sessionRound{res: res, pos: pos, noFix: noFix}, err
}

// fixOutcome classifies a localization error. When one of the anchor
// ranges lies more than foundTolM from its truth (a response put in the
// wrong slot can even give a negative distance), the error is the library
// refusing bad input: the round has no fix, and the bad range already
// counts in spurious_frac. An error on ranges that are all within
// foundTolM is a failure.
func fixOutcome(res *ranging.Result, err error) (noFix bool, _ error) {
	if err == nil {
		return false, nil
	}
	for _, m := range res.Measurements {
		isAnchor := m.ResponderID >= 0 && m.ResponderID < len(museumAnchors)
		if isAnchor && (!m.HasTruth || math.Abs(m.Distance-m.TrueDistance) > foundTolM) {
			return true, nil
		}
	}
	return false, err
}

// sessionScore tallies the session's accuracy over a fixed set of rounds.
type sessionScore struct {
	expected, found, halfSample, withID, rightID, emitted, spurious int
}

func (sc *sessionScore) add(res *ranging.Result) {
	sc.expected += len(museumAnchors)
	found := map[int]bool{}
	for _, m := range res.Measurements {
		sc.emitted++
		err := math.Abs(m.Distance - m.TrueDistance)
		if m.HasTruth {
			sc.withID++
		}
		if !m.HasTruth || err > foundTolM {
			sc.spurious++
			continue
		}
		sc.rightID++
		if found[m.ResponderID] {
			continue
		}
		found[m.ResponderID] = true
		sc.found++
		if err <= halfSampleM {
			sc.halfSample++
		}
	}
}

func (sc *sessionScore) metrics(m map[string]float64) {
	m["found_frac"] = ratio(float64(sc.found), float64(sc.expected))
	m["delay_match_frac"] = ratio(float64(sc.halfSample), float64(sc.expected))
	m["shape_id_frac"] = ratio(float64(sc.rightID), float64(sc.withID))
	m["spurious_frac"] = ratio(float64(sc.spurious), float64(sc.emitted))
}

// runSession is the untraced session run: a closed loop with one client
// issuing Session.Run + LocateFrom, one call at a time, along a seeded tag
// path. Each pass plays the whole path on a fresh session with the same
// seed, so every pass must reproduce the first bit for bit.
func runSession(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	setup, err := medianSetup(cfg.size(101, 3, 1), func() error {
		_, err := buildMuseum(cfg.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = setup

	anchors := museumAnchorMap()
	path := tagPositions(cfg.seed, cfg.size(375, 6, 2))
	first := make([]sessionRound, len(path))
	var s *ranging.Session
	best, err := replays(len(path), 1, cfg.budget, func(pass, i int) (float64, error) {
		if i == 0 {
			var err error
			if s, err = buildMuseum(cfg.seed); err != nil {
				return 0, err
			}
		}
		out.attempted++
		var r sessionRound
		var rerr error
		t := seconds(func() { r, rerr = userRound(s, path[i], anchors) })
		switch {
		case rerr != nil:
			out.fail("pass %d round %d: %v", pass, i, rerr)
		case !finite(r.pos.X, r.pos.Y):
			out.fail("pass %d round %d: non-finite position fix", pass, i)
		case pass == 0:
			first[i] = r
		case first[i].res != nil:
			if d := diffRound(first[i], r); d != "" {
				out.fail("pass %d round %d differs from pass 0: %s", pass, i, d)
			}
		}
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	var score sessionScore
	frames := 0
	for _, r := range first {
		if r.res != nil {
			score.add(r.res)
			frames += r.res.MessagesOnAir
		}
		if r.noFix {
			out.notes["rounds_without_fix"]++
		}
	}
	m := out.metrics
	m["round_p50_ms"] = 1e3 * median(best)
	m["round_p90_ms"] = 1e3 * quantile(best, 0.9)
	m["cirs_per_s"] = float64(len(best)) / sum(best)
	m["events_per_s"] = float64(frames) / sum(best)
	score.metrics(m)

	// Correctness: the first rounds, rebuilt from the layers below the
	// public API, must reproduce Session.Run bit for bit.
	rep, err := newSessionReplica(cfg.seed)
	if err != nil {
		return nil, err
	}
	for i, want := range first[:cfg.size(6, 2, 1)] {
		got, err := rep.round(path[i], nil)
		if want.res == nil {
			continue // already counted as failed; replayed only to stay in step
		}
		if err != nil {
			out.fail("replay round %d: %v", i, err)
			continue
		}
		if d := diffRound(want, got); d != "" {
			out.fail("replay round %d: %s", i, d)
		}
	}
	return out, nil
}

// sessionReplica rebuilds Session.Run from the layers below the public
// API: sim.Network.RunConcurrentRound, core.Detector.Detect,
// core.Resolver.Resolve and locate.Solve, mirroring what
// ranging.Scenario.Build wires together for the museum layout.
type sessionReplica struct {
	net      *sim.Network
	init     *sim.Node
	resps    []*sim.Node
	det      *core.Detector
	resolver *core.Resolver
	cfg      sim.RoundConfig
}

func newSessionReplica(seed uint64) (*sessionReplica, error) {
	env, err := channel.PresetByName(ranging.EnvHallway)
	if err != nil {
		return nil, err
	}
	plan, err := core.NewSlotPlan(museumMaxRange, museumShapes)
	if err != nil {
		return nil, err
	}
	bank, err := pulse.DefaultBank(dw1000.SampleInterval, museumShapes)
	if err != nil {
		return nil, err
	}
	net, err := sim.NewNetwork(sim.NetworkConfig{Environment: env, Seed: seed, RandomClockPhase: true})
	if err != nil {
		return nil, err
	}
	r := &sessionReplica{
		net:      net,
		resolver: &core.Resolver{Plan: plan},
		cfg:      sim.RoundConfig{Plan: plan, Bank: bank, DisableTXQuantization: true},
	}
	if r.init, err = net.AddNode(sim.NodeConfig{ID: -1, Name: "initiator", Pos: geom.Point{X: 15, Y: 1.2}}); err != nil {
		return nil, err
	}
	for _, a := range museumAnchors {
		n, err := net.AddNode(sim.NodeConfig{ID: a.id, Name: fmt.Sprintf("responder%d", a.id), Pos: geom.Point{X: a.x, Y: a.y}})
		if err != nil {
			return nil, err
		}
		r.resps = append(r.resps, n)
	}
	if r.det, err = core.NewDetector(bank, core.DetectorConfig{}); err != nil {
		return nil, err
	}
	return r, nil
}

// layerTimes receives one replica round's per-layer wall times in
// seconds.
type layerTimes struct {
	sim, detect, resolve, solve float64
}

// round runs one replica round at tag position p. Each layer call runs
// under pprof labels and is timed into lt, when lt is not nil.
func (r *sessionReplica) round(p ranging.Position, lt *layerTimes) (sessionRound, error) {
	if lt == nil {
		lt = new(layerTimes)
	}
	step := func(layer string, dst *float64, fn func()) {
		labeled("session", layer, func() { *dst = seconds(fn) })
	}
	r.init.Pos = geom.Point{X: p.X, Y: p.Y}
	var round *sim.RoundResult
	var err error
	step("sim.round", &lt.sim, func() { round, err = r.net.RunConcurrentRound(r.init, r.resps, r.cfg) })
	if err != nil {
		return sessionRound{}, err
	}
	if !round.DecodeOK {
		return sessionRound{}, fmt.Errorf("payload decode failed")
	}
	cir := round.Reception.CIR
	var responses []core.Response
	step("core.detect", &lt.detect, func() { responses, err = r.det.Detect(cir.Taps, cir.EstimateNoiseRMS()) })
	if err != nil {
		return sessionRound{}, err
	}
	if len(responses) == 0 {
		return sessionRound{}, fmt.Errorf("no responses detected")
	}
	dTWR := round.TWRDistance()
	// The museum plan holds 12 responders, so the SS-TWR anchor is the
	// decoded responder (Session.Run uses ID 0 only at capacity 1).
	var ms []core.Measurement
	step("core.resolve", &lt.resolve, func() { ms, err = r.resolver.Resolve(responses, round.DecodedID, dTWR) })
	if err != nil {
		return sessionRound{}, err
	}
	res := &ranging.Result{AnchorDistance: dTWR, AnchorID: round.DecodedID}
	obsv := make([]locate.RangeObservation, 0, len(ms))
	for _, m := range ms {
		out := ranging.Measurement{
			ResponderID: m.ID, Distance: m.Distance, Slot: m.Slot, Shape: m.Shape,
			Amplitude: cmplx.Abs(m.Amplitude), Anchor: m.Anchor,
		}
		if truth, ok := round.TrueDistance[m.ID]; ok {
			out.TrueDistance, out.HasTruth = truth, true
		} else if m.ID == -1 && m.Anchor {
			if truth, ok := round.TrueDistance[round.DecodedID]; ok {
				out.TrueDistance, out.HasTruth = truth, true
			}
		}
		res.Measurements = append(res.Measurements, out)
		for _, a := range museumAnchors {
			if a.id == m.ID {
				obsv = append(obsv, locate.RangeObservation{Anchor: geom.Point{X: a.x, Y: a.y}, Distance: m.Distance})
			}
		}
	}
	var fix locate.Result
	step("locate.solve", &lt.solve, func() { fix, err = locate.Solve(obsv, locate.Config{}) })
	noFix, err := fixOutcome(res, err)
	if err != nil {
		return sessionRound{}, err
	}
	return sessionRound{res: res, pos: ranging.Position{X: fix.Position.X, Y: fix.Position.Y}, noFix: noFix}, nil
}

// diffRound describes the first difference between a Session.Run round
// and its replica ("" when they agree bit for bit).
func diffRound(want, got sessionRound) string {
	a, b := want.res, got.res
	if a.AnchorDistance != b.AnchorDistance || a.AnchorID != b.AnchorID {
		return fmt.Sprintf("anchor (%d, %v) != (%d, %v)", a.AnchorID, a.AnchorDistance, b.AnchorID, b.AnchorDistance)
	}
	if len(a.Measurements) != len(b.Measurements) {
		return fmt.Sprintf("%d measurements != %d", len(a.Measurements), len(b.Measurements))
	}
	for i := range a.Measurements {
		if a.Measurements[i] != b.Measurements[i] {
			return fmt.Sprintf("measurement %d: %+v != %+v", i, a.Measurements[i], b.Measurements[i])
		}
	}
	if want.noFix != got.noFix {
		return fmt.Sprintf("no-fix %v != %v", want.noFix, got.noFix)
	}
	if want.pos != got.pos {
		return fmt.Sprintf("position %+v != %+v", want.pos, got.pos)
	}
	return ""
}

// traceSession is the traced session run. It plays one tag path three
// times: through Session.Run + LocateFrom untraced, through the same
// calls with an obs.Registry attached (the trace overhead and the
// per-round counts), and through the replica with every layer call timed
// and labeled (the per-layer times). The two later passes must reproduce
// the first bit for bit.
func traceSession(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	anchors := museumAnchorMap()
	path := tagPositions(cfg.seed, 1<<14)
	minRounds := cfg.size(30, 4, 2)
	// play runs n rounds (n < 0: until a third of the budget is spent and
	// at least minRounds are done) through a fresh session, returning the
	// rounds, their wall times and the bytes they allocated.
	play := func(n int, rec *obs.Registry) ([]sessionRound, []float64, uint64, error) {
		s, err := buildMuseum(cfg.seed)
		if err != nil {
			return nil, nil, 0, err
		}
		layer := "ranging.session"
		if rec != nil {
			s.SetRecorder(rec)
			layer = "ranging.session_recorded"
		}
		var rounds []sessionRound
		var wall []float64
		var allocs uint64
		start := time.Now()
		for i := 0; i < len(path) && (i < n || n < 0 && (i < minRounds || time.Since(start) < cfg.budget/3)); i++ {
			var r sessionRound
			var rerr error
			a0 := allocBytes()
			labeled("session", layer, func() {
				wall = append(wall, seconds(func() { r, rerr = userRound(s, path[i], anchors) }))
			})
			allocs += allocBytes() - a0
			if rerr != nil {
				r = sessionRound{}
			}
			rounds = append(rounds, r)
		}
		return rounds, wall, allocs, nil
	}
	rounds, plain, allocs, err := play(-1, nil)
	if err != nil {
		return nil, err
	}
	n := len(rounds)
	reg := obs.NewRegistry()
	recorded, traced, _, err := play(n, reg)
	if err != nil {
		return nil, err
	}
	rep, err := newSessionReplica(cfg.seed)
	if err != nil {
		return nil, err
	}
	var simT, detT, resT, solT []float64
	useful := 0
	for i, want := range rounds {
		out.attempted++
		var lt layerTimes
		got, rerr := rep.round(path[i], &lt)
		switch {
		case want.res == nil:
			out.fail("session round %d failed", i)
			continue
		case rerr != nil:
			out.fail("replica round %d: %v", i, rerr)
			continue
		}
		if d := diffRound(want, got); d != "" {
			out.fail("replica round %d: %s", i, d)
		}
		if recorded[i].res == nil {
			out.fail("recorded round %d failed", i)
		} else if d := diffRound(want, recorded[i]); d != "" {
			out.fail("recorded round %d: %s", i, d)
		}
		simT = append(simT, lt.sim)
		detT = append(detT, lt.detect)
		resT = append(resT, lt.resolve)
		solT = append(solT, lt.solve)
		for _, m := range want.res.Measurements {
			if m.HasTruth && math.Abs(m.Distance-m.TrueDistance) <= foundTolM {
				useful++
			}
		}
	}
	m := out.metrics
	m["sim.round_p50_ms"] = 1e3 * median(simT)
	m["core.detect_p50_ms"] = 1e3 * median(detT)
	m["core.detect_p90_ms"] = 1e3 * quantile(detT, 0.9)
	m["core.detect1_p50_ms"] = m["core.detect_p50_ms"] // the session's detector is single-threaded
	m["core.resolve_us"] = 1e6 * median(resT)
	m["locate.solve_us"] = 1e6 * median(solT)
	detectorCounts(reg, float64(n), m)
	m["core.useful_round_frac"] = ratio(float64(useful), reg.Histogram(core.MetricDetectIterations).Sum())
	m["alloc_bytes_per_op"] = float64(allocs) / float64(n)
	m["trace_overhead_frac"] = sum(traced)/sum(plain) - 1
	return out, nil
}

// detectorCounts copies the detector and dsp counters of reg into m as
// per-operation averages over ops operations.
func detectorCounts(reg *obs.Registry, ops float64, m map[string]float64) {
	m["detector.iterations"] = reg.Histogram(core.MetricDetectIterations).Sum() / ops
	for _, name := range []string{
		core.MetricDetectTemplateEvals, core.MetricBankTransforms, core.MetricBankFilters,
		core.MetricUpsampleExecs, core.MetricBankShiftSubtracts,
	} {
		m[name] = float64(reg.Counter(name).Value()) / ops
	}
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
