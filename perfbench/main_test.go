package main

import (
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"testing"
)

func tinyConfig(seed uint64) runConfig {
	return runConfig{seed: seed, scale: tiny, workers: runtime.GOMAXPROCS(0)}
}

// TestEveryMetricEmitted runs every workload in both modes at a tiny size
// and checks that each prints exactly its catalog, every metric finite and
// carrying a unit and a direction, with no failed operation.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := measure(w, tinyConfig(5), traced)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			res, entries, err := assemble(out, catalogFor(traced))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w, traced, res.Failed, res.Attempted, out.failures)
			}
			for _, m := range catalogFor(traced) {
				e := entries[m.name]
				if e.Unit == "" || (e.Better != "higher" && e.Better != "lower") {
					t.Errorf("%s trace=%v: metric %s has unit %q, direction %q", w, traced, m.name, e.Unit, e.Better)
				}
				if res.Metrics[m.name].Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s printed without its unit", w, traced, m.name)
				}
			}
		}
	}
}

// TestResultLine checks the printed object has exactly the keys the
// benchmark contract names.
func TestResultLine(t *testing.T) {
	out, err := measure("swarm", tinyConfig(1), false)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := assemble(out, endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(buf, &obj); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range obj {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Errorf("result keys %v, want %v", keys, want)
	}
}

// TestAccuracyRepeats checks that the accuracy fractions depend only on
// the seed.
func TestAccuracyRepeats(t *testing.T) {
	acc := []string{"found_frac", "delay_match_frac", "shape_id_frac", "spurious_frac"}
	for _, w := range workloads {
		a, err := measure(w, tinyConfig(9), false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := measure(w, tinyConfig(9), false)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range acc {
			if a.metrics[m] != b.metrics[m] {
				t.Errorf("%s: %s %v then %v for the same seed", w, m, a.metrics[m], b.metrics[m])
			}
		}
	}
}

// TestBenchmarkJSONMatchesCatalog checks BENCHMARK.json at the repository
// root names the catalog's workloads and metrics with the same units and
// directions.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, catalog %v", names, workloads)
	}
	var e2e, layer []metric
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metric{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metric{m.Name, m.Unit, m.Better})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, catalog %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, catalog %v", layer, perLayer)
	}
}
