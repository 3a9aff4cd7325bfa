package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/obs"
)

func testConfig(trials int, seed uint64) runConfig {
	return runConfig{Trials: trials, Seed: seed, Stdout: io.Discard, Stderr: io.Discard}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	_, err := run([]string{"warpdrive"}, testConfig(1, 1))
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("got %v", err)
	}
}

func TestEveryListedExperimentHasARunner(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experimentList {
		if e.run == nil {
			t.Errorf("experiment %q listed but has no runner", e.name)
		}
		if e.name != strings.ToLower(e.name) || seen[e.name] {
			t.Errorf("experiment name %q is not lowercase and unique", e.name)
		}
		seen[e.name] = true
	}
}

func TestPackageDocListsEveryExperiment(t *testing.T) {
	// The doc comment's experiment list must track experimentList
	// ("capture" was once missing from it).
	data, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, found := strings.Cut(string(data), "package main")
	if !found {
		t.Fatal("no package clause in main.go")
	}
	for _, name := range experimentNames() {
		if !strings.Contains(doc, name) {
			t.Errorf("package doc does not mention experiment %q", name)
		}
	}
}

func TestRunFastExperiments(t *testing.T) {
	// The arithmetic-only experiments complete instantly and exercise the
	// whole dispatch path.
	report, err := run([]string{"sec3", "sec7", "sec8", "fig5"}, testConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Experiments) != 4 {
		t.Fatalf("%d experiment entries, want 4", len(report.Experiments))
	}
	for _, e := range report.Experiments {
		if e.OutputBytes == 0 {
			t.Errorf("experiment %s rendered no output", e.Name)
		}
	}
}

func TestRunWritesValidReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	cfg := testConfig(3, 1)
	cfg.JSONPath = path
	if _, err := run([]string{"sec5", "campaign"}, cfg); err != nil {
		t.Fatal(err)
	}
	report, err := obs.ReadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Validate(); err != nil {
		t.Fatal(err)
	}
	if report.Tool != "crbench" || report.Trials != 3 || report.Seed != 1 {
		t.Fatalf("report header %+v", report)
	}
	// The smoke pair must populate simulator counters and trial timing.
	if got := report.Metrics.CounterValue("sim.frames_on_air"); got == 0 {
		t.Error("sim.frames_on_air is zero")
	}
	if h, ok := report.Metrics.HistogramByName("experiments.trial_seconds"); !ok || h.Count == 0 {
		t.Error("experiments.trial_seconds histogram missing or empty")
	}
}

func TestReportDeterministicModuloWallTime(t *testing.T) {
	once := func() []byte {
		report, err := run([]string{"sec5", "campaign"}, testConfig(3, 7))
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(report.StripWallTime())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := once(), once()
	if !bytes.Equal(a, b) {
		t.Fatalf("stripped reports differ:\n%s\n---\n%s", a, b)
	}
}

func TestJSONStdoutModeKeepsStdoutPure(t *testing.T) {
	// With -json - the report owns stdout: tables and progress all go to
	// stderr, and stdout must parse as exactly one JSON report so
	// `crbench -json - | reportcheck -` works.
	var stdout, stderr bytes.Buffer
	cfg := runConfig{Trials: 2, Seed: 1, JSONPath: "-", Progress: true,
		Stdout: &stdout, Stderr: &stderr}
	if _, err := run([]string{"sec5", "campaign"}, cfg); err != nil {
		t.Fatal(err)
	}

	dec := json.NewDecoder(bytes.NewReader(stdout.Bytes()))
	var report obs.RunReport
	if err := dec.Decode(&report); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, stdout.String())
	}
	if err := report.Validate(); err != nil {
		t.Fatal(err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		t.Fatalf("stdout carries more than the report (next decode: %v):\n%s", err, stdout.String())
	}

	// The human-facing output still exists — on stderr.
	errOut := stderr.String()
	if !strings.Contains(errOut, "sec5") || !strings.Contains(errOut, "trials") {
		t.Fatalf("stderr lost the tables/progress stream: %q", errOut)
	}
}

func TestProgressPrinterWritesToSink(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig(4, 1)
	cfg.Progress = true
	cfg.Stderr = &buf
	if _, err := run([]string{"sec5"}, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sec5") || !strings.Contains(out, "/12 trials") {
		t.Fatalf("progress stream missing expected content: %q", out)
	}
}

func TestThroughputReportFieldsComeFromResults(t *testing.T) {
	// fullbank and swarm carry their measured throughput (and swarm its
	// engine diagnosis) into their own report entries and nowhere else.
	report, err := run([]string{"fig5", "fullbank", "swarm", "sec7"}, testConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range report.Experiments {
		switch e.Name {
		case "fullbank":
			if e.CIRsPerSecond <= 0 {
				t.Errorf("fullbank cirs_per_second = %g, want > 0", e.CIRsPerSecond)
			}
			if e.EventsPerSecond != 0 || e.RoundsPerSecond != 0 || e.EngineParallelEfficiency != 0 {
				t.Errorf("fullbank carries swarm fields: %+v", e)
			}
		case "swarm":
			if e.EventsPerSecond <= 0 || e.RoundsPerSecond <= 0 {
				t.Errorf("swarm events/rounds per second = %g/%g, want > 0", e.EventsPerSecond, e.RoundsPerSecond)
			}
			if eff := e.EngineParallelEfficiency; eff <= 0 || eff > 1.2 {
				t.Errorf("swarm engine_parallel_efficiency = %g, want in (0, 1.2]", eff)
			}
			if e.CIRsPerSecond != 0 {
				t.Errorf("swarm carries cirs_per_second %g", e.CIRsPerSecond)
			}
		default:
			if e.CIRsPerSecond != 0 || e.EventsPerSecond != 0 || e.RoundsPerSecond != 0 || e.EngineParallelEfficiency != 0 {
				t.Errorf("experiment %s carries throughput fields: %+v", e.Name, e)
			}
		}
	}
}
