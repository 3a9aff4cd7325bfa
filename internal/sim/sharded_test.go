package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestShardedEngineConfigValidation(t *testing.T) {
	if _, err := NewShardedEngine(ShardedConfig{Shards: 0, Lookahead: 1}); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := NewShardedEngine(ShardedConfig{Shards: 1, Lookahead: 0}); err == nil {
		t.Error("zero lookahead accepted")
	}
	eng, err := NewShardedEngine(ShardedConfig{Shards: 2, Lookahead: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Schedule(2, 0, func(Scheduler) {}); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if err := eng.Schedule(0, 0, nil); err == nil {
		t.Error("nil handler accepted")
	}
	if eng.Workers() < 1 {
		t.Errorf("workers %d", eng.Workers())
	}
}

// TestShardedEngineLookaheadViolation pins the conservative contract: a
// cross-shard send targeting a time inside the current barrier window is
// an error, because the destination shard may already have advanced past
// it.
func TestShardedEngineLookaheadViolation(t *testing.T) {
	eng, err := NewShardedEngine(ShardedConfig{Shards: 2, Workers: 1, Lookahead: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Schedule(0, 0, func(sc Scheduler) {
		if err := sc.Send(1, 5, func(Scheduler) {}); err != nil {
			sc.Fail(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), "violates lookahead") {
		t.Fatalf("run error %v, want lookahead violation", err)
	}
	// A send to the handler's own shard is a plain Schedule: no lookahead.
	eng2, _ := NewShardedEngine(ShardedConfig{Shards: 2, Workers: 1, Lookahead: 10})
	ran := false
	if err := eng2.Schedule(0, 0, func(sc Scheduler) {
		if err := sc.Send(0, 5, func(Scheduler) { ran = true }); err != nil {
			sc.Fail(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if n, err := eng2.Run(); err != nil || n != 2 || !ran {
		t.Fatalf("self-send run: n=%d ran=%v err=%v", n, ran, err)
	}
}

func TestShardedEnginePanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		eng, err := NewShardedEngine(ShardedConfig{Shards: 4, Workers: workers, Lookahead: 1})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 4; s++ {
			fn := func(Scheduler) {}
			if s == 2 {
				fn = func(Scheduler) { panic("boom") }
			}
			if err := eng.Schedule(s, 0, fn); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("workers=%d: run error %v, want panic converted", workers, err)
		}
	}
}

// awaitGoroutines polls until the goroutine count is back to at most
// want: a pool helper has signalled its exit before it returns, so the
// count can lag Run by a scheduler tick.
func awaitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardedEnginePoolExitsWithRun pins the worker pool's lifetime: no
// pool goroutine survives Run, whether it succeeds, fails on a lookahead
// violation, converts a handler panic, or has more workers than shards
// with work.
func TestShardedEnginePoolExitsWithRun(t *testing.T) {
	// The workload seeds a token on each of the first active shards; the
	// token that reaches shard 1 with three hops left misbehaves per mode.
	workload := func(eng *ShardedEngine, active int, mode string) error {
		var hop func(left int) Handler
		hop = func(left int) Handler {
			return func(sc Scheduler) {
				if left == 0 {
					return
				}
				switch {
				case mode == "panic" && sc.Shard() == 1 && left == 3:
					panic("boom")
				case mode == "lookahead" && sc.Shard() == 1 && left == 3:
					if err := sc.Send(0, sc.Now(), hop(0)); err != nil {
						sc.Fail(err)
					}
					return
				}
				next := (sc.Shard() + 1) % active
				if err := sc.Send(next, sc.Now()+1, hop(left-1)); err != nil {
					sc.Fail(err)
				}
			}
		}
		for s := 0; s < active; s++ {
			if err := eng.Schedule(s, float64(s)*0.1, hop(6)); err != nil {
				return err
			}
		}
		return nil
	}
	cases := []struct {
		name           string
		shards, active int
		mode, wantErr  string
	}{
		{"success", 4, 4, "", ""},
		{"lookahead violation", 4, 4, "lookahead", "violates lookahead"},
		{"handler panic", 4, 4, "panic", "boom"},
		{"more workers than active shards", 16, 3, "", ""},
	}
	for _, workers := range []int{2, 8} {
		for _, tc := range cases {
			before := runtime.NumGoroutine()
			eng, err := NewShardedEngine(ShardedConfig{Shards: tc.shards, Workers: workers, Lookahead: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := workload(eng, tc.active, tc.mode); err != nil {
				t.Fatal(err)
			}
			n, err := eng.Run()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("workers=%d %s: %v", workers, tc.name, err)
			case tc.wantErr == "" && n != tc.active*7:
				t.Errorf("workers=%d %s: %d events, want %d", workers, tc.name, n, tc.active*7)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("workers=%d %s: run error %v, want %q", workers, tc.name, err, tc.wantErr)
			}
			awaitGoroutines(t, before)
		}
	}
}

// TestShardedEngineWindowsDoNotAllocate guards the window loop against
// per-window allocation: a run whose handlers are built up front and
// allocate nothing spans 1500 barrier windows at two workers, yet
// allocates only in proportion to its shards (engine, heaps, outboxes,
// the pool). One make or go statement per window would add 1500.
func TestShardedEngineWindowsDoNotAllocate(t *testing.T) {
	const shards, steps = 4, 1500
	var handlers [shards]Handler
	var left [shards]int
	noop := func(Scheduler) {}
	for s := range handlers {
		handlers[s] = func(sc Scheduler) {
			id := sc.Shard()
			if left[id]--; left[id] == 0 {
				return
			}
			if err := sc.Schedule(sc.Now()+1, handlers[id]); err != nil {
				sc.Fail(err)
			}
			if err := sc.Send((id+1)%shards, sc.Now()+1, noop); err != nil {
				sc.Fail(err)
			}
		}
	}
	windows := 0
	allocs := testing.AllocsPerRun(3, func() {
		eng, err := NewShardedEngine(ShardedConfig{Shards: shards, Workers: 2, Lookahead: 1})
		if err != nil {
			t.Fatal(err)
		}
		for s := range handlers {
			left[s] = steps
			if err := eng.Schedule(s, 0, handlers[s]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		windows = eng.Windows()
	})
	if windows < steps {
		t.Fatalf("%d windows, want ≥ %d", windows, steps)
	}
	if limit := 40.0 * shards; allocs > limit {
		t.Errorf("%.0f allocations over %d windows, want ≤ %.0f (proportional to the %d shards)",
			allocs, windows, limit, shards)
	}
	t.Logf("%.0f allocations over %d windows", allocs, windows)
}

// ringTrace runs a deterministic multi-token ring workload — tokens
// bouncing between shards with per-hop fan-out to the local shard — on a
// Runner and returns the merged (time, shard, token) log plus the event
// count.
func ringTrace(t *testing.T, r Runner, shards int, hop float64) ([]string, int) {
	t.Helper()
	logs := make([][]string, shards)
	var bounce func(token int, hops int) Handler
	bounce = func(token, hops int) Handler {
		return func(sc Scheduler) {
			logs[sc.Shard()] = append(logs[sc.Shard()],
				fmt.Sprintf("t=%.3f shard=%d token=%d hops=%d", sc.Now(), sc.Shard(), token, hops))
			if hops == 0 {
				return
			}
			// Local follow-up work inside the window.
			if err := sc.Schedule(sc.Now()+hop/16, func(sc Scheduler) {
				logs[sc.Shard()] = append(logs[sc.Shard()],
					fmt.Sprintf("t=%.3f shard=%d token=%d local", sc.Now(), sc.Shard(), token))
			}); err != nil {
				sc.Fail(err)
				return
			}
			next := (sc.Shard() + token + 1) % shards
			if err := sc.Send(next, sc.Now()+hop, bounce(token, hops-1)); err != nil {
				sc.Fail(err)
			}
		}
	}
	for token := 0; token < 5; token++ {
		// Distinct start times so the workload has no cross-shard ties.
		if err := r.Schedule(token%shards, float64(token)*0.013, bounce(token, 12)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	var merged []string
	for _, l := range logs {
		merged = append(merged, l...)
	}
	return merged, n
}

// TestShardedEngineMatchesSequential checks the core contract on a
// cross-shard workload: the sharded engine produces exactly the
// sequential per-shard logs and event count at 1, 2 and 8 workers.
func TestShardedEngineMatchesSequential(t *testing.T) {
	const shards = 4
	const hop = 1.0
	seqr, err := NewSequentialRunner(shards)
	if err != nil {
		t.Fatal(err)
	}
	want, wantN := ringTrace(t, seqr, shards, hop)
	if wantN == 0 || len(want) == 0 {
		t.Fatal("empty reference run")
	}
	for _, workers := range []int{1, 2, 8} {
		eng, err := NewShardedEngine(ShardedConfig{Shards: shards, Workers: workers, Lookahead: hop})
		if err != nil {
			t.Fatal(err)
		}
		got, gotN := ringTrace(t, eng, shards, hop)
		if gotN != wantN {
			t.Errorf("workers=%d: %d events, want %d", workers, gotN, wantN)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d log lines, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: log[%d] = %q, want %q", workers, i, got[i], want[i])
			}
		}
		if eng.Windows() == 0 {
			t.Errorf("workers=%d: no barrier windows", workers)
		}
	}
}
