package main

import (
	"time"

	"github.com/uwb-sim/concurrent-ranging/internal/sim"
)

// swarmConfig is the swarm workload: N nodes at the default density,
// range, round period and mobility, over the default 200 ms horizon.
func swarmConfig(cfg runConfig) sim.SwarmConfig {
	return sim.SwarmConfig{N: cfg.size(20000, 2000, 300), Seed: cfg.seed}
}

// sameSwarm reports whether a run matches the 1-worker reference.
func sameSwarm(a, ref *sim.SwarmResult) bool {
	return a.Stats == ref.Stats && a.Events == ref.Events
}

// runSwarm is the untraced swarm run: seeded swarm instances, each run by
// RunSharded with one worker per CPU in every pass and checked against a
// 1-worker reference run of the same instance. An instance is rebuilt
// before each run so that only one is held in memory.
func runSwarm(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	scfg := swarmConfig(cfg)
	setup, err := medianSetup(cfg.size(31, 1, 1), func() error {
		_, err := sim.NewSwarm(scfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = setup

	refs := make([]*sim.SwarmResult, cfg.size(32, 2, 2))
	var total sim.SwarmStats
	events, rounds := 0, int64(0)
	best, err := replays(len(refs), cfg.size(3, 2, 2), cfg.budget, func(pass, k int) (float64, error) {
		icfg := scfg
		icfg.Seed = cfg.seed<<16 + uint64(k)
		sw, err := sim.NewSwarm(icfg)
		if err != nil {
			return 0, err
		}
		if pass == 0 {
			if refs[k], err = sw.RunSharded(1); err != nil {
				return 0, err
			}
			st := refs[k].Stats
			total.Resolved += st.Resolved
			total.Responses += st.Responses
			total.SlotCollisions += st.SlotCollisions
			events += refs[k].Events
			rounds += st.RoundsCompleted
		}
		out.attempted++
		var res *sim.SwarmResult
		var rerr error
		t := seconds(func() { res, rerr = sw.RunSharded(cfg.workers) })
		if rerr != nil {
			out.fail("pass %d swarm %d: %v", pass, k, rerr)
		} else if !sameSwarm(res, refs[k]) {
			out.fail("pass %d swarm %d: %s, %d events; 1-worker reference %s, %d events",
				pass, k, res.Stats, res.Events, refs[k].Stats, refs[k].Events)
		}
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	m := out.metrics
	m["round_p50_ms"] = 1e3 * median(best)
	m["round_p90_ms"] = 1e3 * quantile(best, 0.9)
	m["events_per_s"] = float64(events) / sum(best)
	m["cirs_per_s"] = float64(rounds) / sum(best)
	m["found_frac"] = ratio(float64(total.Resolved), float64(total.Responses))
	m["delay_match_frac"] = m["found_frac"]
	m["shape_id_frac"] = ratio(float64(total.Resolved), float64(total.Resolved+total.SlotCollisions))
	m["spurious_frac"] = ratio(float64(total.SlotCollisions), float64(total.Resolved+total.SlotCollisions))
	return out, nil
}

// traceSwarm is the traced swarm run: plain 1-worker runs (the baseline
// and the reference), untraced runs at one worker per CPU, and the same
// number of runs with sim.EngineProfiler attached. Every run must equal
// the reference.
func traceSwarm(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	scfg := swarmConfig(cfg)
	var sw *sim.Swarm
	var err error
	build := 0.0
	labeled("swarm", "sim.swarm_build", func() {
		build = seconds(func() { sw, err = sim.NewSwarm(scfg) })
	})
	if err != nil {
		return nil, err
	}
	var ref *sim.SwarmResult
	var w1 []float64
	for len(w1) < cfg.size(3, 1, 1) {
		labeled("swarm", "sim.w1_run", func() {
			w1 = append(w1, seconds(func() { ref, err = sw.RunSharded(1) }))
		})
		if err != nil {
			return nil, err
		}
	}
	check := func(what string, res *sim.SwarmResult, rerr error) {
		out.attempted++
		if rerr != nil {
			out.fail("%s: %v", what, rerr)
		} else if !sameSwarm(res, ref) {
			out.fail("%s: %s, %d events; 1-worker reference %s, %d events",
				what, res.Stats, res.Events, ref.Stats, ref.Events)
		}
	}

	var plain []float64
	alloc0 := allocBytes()
	start := time.Now()
	for len(plain) < cfg.size(3, 1, 1) || time.Since(start) < cfg.budget/3 {
		var res *sim.SwarmResult
		var rerr error
		labeled("swarm", "sim.sharded", func() {
			plain = append(plain, seconds(func() { res, rerr = sw.RunSharded(cfg.workers) }))
		})
		check("untraced run", res, rerr)
	}
	allocPerRun := float64(allocBytes()-alloc0) / float64(len(plain))

	var traced, eff, stall, drain, crit, busMsgs, windows []float64
	for range plain {
		prof := sim.NewEngineProfiler(sim.EngineProfilerConfig{TimelineCap: -1})
		var res *sim.SwarmResult
		var rerr error
		labeled("swarm", "sim.sharded", func() {
			traced = append(traced, seconds(func() { res, rerr = sw.RunShardedProfiled(cfg.workers, prof) }))
		})
		check("profiled run", res, rerr)
		if rerr != nil {
			continue
		}
		p := prof.Profile()
		eff = append(eff, p.ParallelEfficiency)
		stall = append(stall, p.BarrierStallPct/100)
		drain = append(drain, p.DrainPct/100)
		crit = append(crit, p.CriticalShardShare)
		busMsgs = append(busMsgs, float64(p.BusMessages))
		windows = append(windows, float64(p.Windows))
	}

	m := out.metrics
	m["sim.swarm_build_s"] = build
	m["sim.w1_run_s"] = median(w1)
	m["sim.speedup"] = median(w1) / median(plain)
	m["sim.parallel_eff"] = median(eff)
	m["sim.barrier_stall_frac"] = median(stall)
	m["sim.bus_drain_frac"] = median(drain)
	m["sim.critical_shard_share"] = median(crit)
	m["sim.windows"] = median(windows)
	m["sim.bus_messages"] = median(busMsgs)
	m["sim.events"] = float64(ref.Events)
	m["sim.cross_shard_frac"] = ratio(float64(ref.Stats.CrossShardFrames), float64(ref.Stats.Receptions))
	m["alloc_bytes_per_op"] = allocPerRun
	m["trace_overhead_frac"] = sum(traced)/sum(plain) - 1
	return out, nil
}
