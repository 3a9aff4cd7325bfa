// Command crbench regenerates the tables and figures of "Concurrent
// Ranging with Ultra-Wideband Radios" (Großwindhager et al., ICDCS 2018)
// from the simulation.
//
// Usage:
//
//	crbench [-trials N] [-seed S] [-json path] [-progress] [-pprof addr] [experiment ...]
//
// Experiments: fig1 fig2 sec3 fig4 fig5 sec5 fig6 table1 sec6 sec7 fig8
// sec8 campaign capture fullbank swarm ablation. Running without arguments
// executes all of them. The -trials flag scales the Monte-Carlo experiments: 0 keeps each
// experiment's paper-faithful default (e.g. 5000 SS-TWR operations for
// Sect. V), smaller values give quick previews.
//
// Observability:
//
//   - -json path writes a machine-readable run report: per-experiment wall
//     time and output size, the full metrics snapshot (detector diagnostics,
//     simulator frame/collision counters, per-trial timing histograms,
//     labeled per-experiment/worker series, windowed throughput rings), and
//     Go runtime stats. The report is deterministic for a fixed seed and
//     trial count once wall-time fields are stripped. -json - writes the
//     report to stdout and moves the rendered tables to stderr, so piped
//     consumers see exactly one JSON document (progress always goes to
//     stderr).
//   - -progress streams live trial progress (done/total, ETA) to stderr.
//   - -pprof addr serves the debug surface on the given address for the
//     run's duration: net/http/pprof, expvar (/debug/vars exposes the
//     metrics registry as "crmetrics"), Prometheus text exposition on
//     /metrics, and the live JSON snapshot on /debug/metrics.json (poll it
//     with crtop). Use addr "localhost:0" for an ephemeral port.
//   - -tracefile path streams the detection flight recorder to a JSONL
//     trace: campaign/round spans with ground truth plus one structured
//     event per detector search-and-subtract iteration. -trace-sample N
//     records every Nth root span (campaigns stream millions of events
//     otherwise). Analyze with crtrace.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/experiments"
	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/internal/obs/trace"
)

// runFunc executes one experiment, sets the typed report fields its
// result carries on er, and returns the rendered text.
type runFunc func(trials int, seed uint64, er *obs.ExperimentReport) (string, error)

// experiment is one crbench entry.
type experiment struct {
	name string
	run  runFunc
}

// single adapts an experiment whose one result only renders as text.
func single[R interface{ Render() string }](fn func(trials int, seed uint64) (R, error)) runFunc {
	return func(trials int, seed uint64, _ *obs.ExperimentReport) (string, error) {
		r, err := fn(trials, seed)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
}

// experimentList holds every experiment in paper order, which is also the
// run-everything order.
var experimentList = []experiment{
	{"fig1", single(func(int, uint64) (*experiments.Fig1Result, error) { return experiments.Fig1() })},
	{"fig2", single(func(_ int, seed uint64) (*experiments.Fig2Result, error) { return experiments.Fig2(seed) })},
	{"sec3", func(int, uint64, *obs.ExperimentReport) (string, error) {
		d, err := experiments.Sec3Delay()
		if err != nil {
			return "", err
		}
		m, err := experiments.Sec3Messages(nil)
		if err != nil {
			return "", err
		}
		return d.Render() + m.Render(), nil
	}},
	{"fig4", func(trials int, seed uint64, _ *obs.ExperimentReport) (string, error) {
		real, err := experiments.Fig4(experiments.Fig4Config{Trials: trials, Seed: seed})
		if err != nil {
			return "", err
		}
		ideal, err := experiments.Fig4(experiments.Fig4Config{
			Trials: trials, Seed: seed, IdealTransceiver: true,
		})
		if err != nil {
			return "", err
		}
		return "--- DW1000 delayed-TX quantization ---\n" + real.Render() +
			"--- ideal transceiver ---\n" + ideal.Render(), nil
	}},
	{"fig5", single(func(int, uint64) (*experiments.Fig5Result, error) { return experiments.Fig5() })},
	{"sec5", single(func(trials int, seed uint64) (*experiments.Sec5Result, error) {
		return experiments.Sec5(experiments.Sec5Config{Trials: trials, Seed: seed})
	})},
	{"fig6", single(func(_ int, seed uint64) (*experiments.Fig6Result, error) { return experiments.Fig6(seed) })},
	{"table1", single(func(trials int, seed uint64) (*experiments.Table1Result, error) {
		return experiments.Table1(experiments.Table1Config{Trials: trials, Seed: seed})
	})},
	{"sec6", single(func(trials int, seed uint64) (*experiments.Sec6Result, error) {
		return experiments.Sec6(experiments.Sec6Config{Trials: trials, Seed: seed})
	})},
	{"sec7", single(func(int, uint64) (*experiments.Sec7Result, error) { return experiments.Sec7(nil) })},
	{"fig8", single(func(trials int, seed uint64) (*experiments.Fig8Result, error) {
		return experiments.Fig8(experiments.Fig8Config{Trials: trials, Seed: seed})
	})},
	{"sec8", single(func(int, uint64) (*experiments.Sec8Result, error) { return experiments.Sec8() })},
	{"campaign", single(func(_ int, seed uint64) (*experiments.CampaignResult, error) {
		return experiments.Campaign(nil, seed)
	})},
	{"capture", single(experiments.Capture)},
	{"fullbank", func(trials int, seed uint64, er *obs.ExperimentReport) (string, error) {
		r, err := experiments.FullBank(experiments.FullBankConfig{Trials: trials, Seed: seed})
		if err != nil {
			return "", err
		}
		er.CIRsPerSecond = r.BatchPerSec
		return r.Render(), nil
	}},
	{"swarm", func(trials int, seed uint64, er *obs.ExperimentReport) (string, error) {
		r, err := experiments.SwarmScale(experiments.SwarmScaleConfig{Trials: trials, Seed: seed})
		if err != nil {
			return "", err
		}
		er.EventsPerSecond, er.RoundsPerSecond = r.Throughput()
		r.Profile.FillReport(er)
		return r.Render(), nil
	}},
	{"ablation", func(trials int, seed uint64, er *obs.ExperimentReport) (string, error) {
		var out string
		for _, part := range []runFunc{
			single(experiments.AblationUpsample),
			single(experiments.AblationQuantization),
			single(experiments.AblationThreshold),
			single(experiments.AblationRefinement),
			single(experiments.AblationSlotPlan),
		} {
			text, err := part(trials, seed, er)
			if err != nil {
				return "", err
			}
			out += text
		}
		return out, nil
	}},
}

func main() {
	trials := flag.Int("trials", 0, "Monte-Carlo trials per experiment (0 = paper-faithful defaults)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	jsonPath := flag.String("json", "", "write a machine-readable run report to this `path`")
	progress := flag.Bool("progress", false, "stream live trial progress to stderr")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and expvar on this `address`")
	traceFile := flag.String("tracefile", "", "stream the detection flight recorder to this JSONL `file` (analyze with crtrace)")
	traceSample := flag.Int("trace-sample", 1, "record every Nth root span in the flight recorder")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: crbench [-trials N] [-seed S] [-json path] [-progress] [-pprof addr] [-tracefile path] [experiment ...]\n")
		fmt.Fprintf(os.Stderr, "experiments: %s (default: all)\n", strings.Join(experimentNames(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()
	names := flag.Args()
	if len(names) == 0 {
		names = experimentNames()
	}
	cfg := runConfig{
		Trials:      *trials,
		Seed:        *seed,
		JSONPath:    *jsonPath,
		Progress:    *progress,
		PprofAddr:   *pprofAddr,
		TraceFile:   *traceFile,
		TraceSample: *traceSample,
		Stdout:      os.Stdout,
		Stderr:      os.Stderr,
	}
	if _, err := run(names, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "crbench:", err)
		os.Exit(1)
	}
}

// experimentNames lists the experiment names in run-everything order.
func experimentNames() []string {
	names := make([]string, len(experimentList))
	for i, e := range experimentList {
		names[i] = e.name
	}
	return names
}

// lookup finds the named experiment (names are lowercase).
func lookup(name string) (experiment, bool) {
	for _, e := range experimentList {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

// runConfig collects the flag-derived settings so tests can drive run
// without a process.
type runConfig struct {
	Trials      int
	Seed        uint64
	JSONPath    string
	Progress    bool
	PprofAddr   string
	TraceFile   string
	TraceSample int
	Stdout      io.Writer
	Stderr      io.Writer
}

// run executes the named experiments under full instrumentation and
// returns the populated run report (also written to cfg.JSONPath when
// set). Unknown names fail before any experiment does work.
func run(names []string, cfg runConfig) (report *obs.RunReport, err error) {
	selected := make([]experiment, len(names))
	for i, name := range names {
		e, ok := lookup(strings.ToLower(name))
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (have: %s)", name, strings.Join(experimentNames(), " "))
		}
		selected[i] = e
	}

	reg := obs.NewRegistry()
	// Window rings behind the live-rate and moving-quantile views (crtop,
	// the report's final throughput series): campaign trial rate, batch
	// CIR throughput, detect-call rate, and the trial-latency quantiles.
	for _, name := range []string{
		experiments.MetricTrials,
		core.MetricBatchCIRs,
		core.MetricDetectCalls,
		experiments.MetricTrialSeconds,
	} {
		reg.Watch(name, obs.WindowConfig{})
	}
	if cfg.PprofAddr != "" {
		dbg, err := obs.ServeDebug(cfg.PprofAddr, reg)
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		defer dbg.Close()
		fmt.Fprintf(cfg.Stderr, "crbench: debug server on http://%s/debug/pprof/ (/metrics, /debug/metrics.json)\n", dbg.Addr)
	}
	var flight *trace.Tracer
	if cfg.TraceFile != "" {
		tr, closeTrace, ferr := trace.CreateFile(cfg.TraceFile, trace.Config{SampleEvery: cfg.TraceSample})
		if ferr != nil {
			return nil, fmt.Errorf("tracefile: %w", ferr)
		}
		flight = tr
		flight.SetMetrics(reg)
		defer func() {
			if ferr := closeTrace(); ferr != nil && err == nil {
				report, err = nil, fmt.Errorf("tracefile: %w", ferr)
			}
			st := flight.Stats()
			fmt.Fprintf(cfg.Stderr, "crbench: trace: %d events, %d/%d root spans sampled -> %s\n",
				st.Events, st.RootSpans-st.SampledOut, st.RootSpans, cfg.TraceFile)
		}()
	}
	printer := newProgressPrinter(cfg.Stderr, cfg.Progress)
	defer experiments.SetInstrumentation(nil)

	// -json - dedicates stdout to the report alone; the rendered tables
	// move to stderr so piped consumers parse exactly one JSON document.
	tableW := cfg.Stdout
	if cfg.JSONPath == "-" {
		tableW = cfg.Stderr
	}

	report = obs.NewRunReport("crbench", cfg.Seed, cfg.Trials)
	start := time.Now()
	for i, e := range selected {
		printer.setLabel(names[i])
		// A fresh Instrumentation per experiment names it, so campaign
		// trials are labeled with the experiment they belong to.
		experiments.SetInstrumentation(&experiments.Instrumentation{
			Recorder:   reg,
			Progress:   printer.update,
			Flight:     flight,
			Experiment: e.name,
		})
		t0 := time.Now()
		er := obs.ExperimentReport{Name: e.name}
		out, err := e.run(cfg.Trials, cfg.Seed, &er)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", names[i], err)
		}
		printer.clear()
		er.WallSeconds = time.Since(t0).Seconds()
		er.OutputBytes = len(out)
		report.Experiments = append(report.Experiments, er)
		fmt.Fprint(tableW, out)
		fmt.Fprintln(tableW)
	}
	report.Finish(reg.Snapshot(), time.Since(start))
	if err := report.Validate(); err != nil {
		return nil, err
	}
	switch cfg.JSONPath {
	case "":
	case "-":
		if err := report.Encode(cfg.Stdout); err != nil {
			return nil, fmt.Errorf("writing report: %w", err)
		}
	default:
		if err := report.WriteFile(cfg.JSONPath); err != nil {
			return nil, fmt.Errorf("writing report: %w", err)
		}
	}
	return report, nil
}

// progressPrinter renders experiments.Progress updates as a single
// rewritten stderr line, rate-limited so tight trial loops don't flood the
// terminal. It is safe for concurrent use (campaign workers all report).
type progressPrinter struct {
	w       io.Writer
	enabled bool

	mu    sync.Mutex
	label string
	last  time.Time
	dirty bool
}

func newProgressPrinter(w io.Writer, enabled bool) *progressPrinter {
	return &progressPrinter{w: w, enabled: enabled}
}

// setLabel names the experiment shown alongside subsequent updates.
func (p *progressPrinter) setLabel(name string) {
	if !p.enabled {
		return
	}
	p.mu.Lock()
	p.label = name
	p.last = time.Time{}
	p.mu.Unlock()
}

// update implements experiments.ProgressFunc.
func (p *progressPrinter) update(pr experiments.Progress) {
	if !p.enabled {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// At most ~5 updates/s, but always show the final trial so the bar
	// ends at 100%.
	if pr.Done < pr.Total && time.Since(p.last) < 200*time.Millisecond {
		return
	}
	p.last = time.Now()
	p.dirty = true
	eta := ""
	if pr.Remaining > 0 {
		eta = fmt.Sprintf(" eta %s", pr.Remaining.Round(time.Second))
	}
	percent := 100.0
	if pr.Total > 0 {
		percent = 100 * float64(pr.Done) / float64(pr.Total)
	}
	fmt.Fprintf(p.w, "\r\x1b[2K%s: %d/%d trials (%.0f%%)%s",
		p.label, pr.Done, pr.Total, percent, eta)
}

// clear ends the progress line before regular output resumes.
func (p *progressPrinter) clear() {
	if !p.enabled {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dirty {
		fmt.Fprint(p.w, "\r\x1b[2K")
		p.dirty = false
	}
}
