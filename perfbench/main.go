// Command perfbench is the repository's benchmark. It builds seeded inputs,
// times calls into the public functions of ranging, sim, core, dsp, pulse
// and locate from outside, checks every output, and prints one JSON result
// line. See README.md for the workloads and metrics.
//
//	perfbench --workload session|bank108|swarm --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics, measured with tracing off;
// --trace 1 prints the per-layer metrics and writes a CPU profile whose
// pprof labels (workload, layer) split it by layer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"
)

// scale sizes a run: full for benchmark runs, probe for the reduced
// passes a traced run makes over the other workloads' layers, tiny for
// the self-test.
type scale int

const (
	full scale = iota
	probe
	tiny
)

type runConfig struct {
	seed    uint64
	budget  time.Duration // measuring time; loops also finish their minimum work
	scale   scale
	workers int
}

// size picks a per-scale count.
func (c runConfig) size(fullN, probeN, tinyN int) int {
	switch c.scale {
	case probe:
		return probeN
	case tiny:
		return tinyN
	}
	return fullN
}

// outcome is one workload pass: operations attempted and failed (with the
// first failure messages), the metrics it measured, and notes: counts
// worth recording that are not metrics.
type outcome struct {
	attempted, failed int
	failures          []string
	metrics           map[string]float64
	notes             map[string]float64
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, notes: map[string]float64{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// merge adds o2's counts, failures and any metric o does not have yet.
func (o *outcome) merge(o2 *outcome) {
	o.attempted += o2.attempted
	o.failed += o2.failed
	for _, f := range o2.failures {
		if len(o.failures) < 8 {
			o.failures = append(o.failures, f)
		}
	}
	for k, v := range o2.metrics {
		if _, ok := o.metrics[k]; !ok {
			o.metrics[k] = v
		}
	}
}

// medianSetup times build reps times and returns the median in seconds.
func medianSetup(reps int, build func() error) (float64, error) {
	var err error
	s := medianOf(reps, func() float64 {
		return seconds(func() {
			if e := build(); e != nil && err == nil {
				err = e
			}
		})
	})
	return s, err
}

type workloadFuncs struct {
	run, trace func(runConfig) (*outcome, error)
}

var workloadImpl = map[string]workloadFuncs{
	"session": {runSession, traceSession},
	"bank108": {runBank, traceBank},
	"swarm":   {runSwarm, traceSwarm},
}

// measure runs one workload in the given mode and returns its outcome with
// every metric of the mode's catalog.
func measure(name string, cfg runConfig, traced bool) (*outcome, error) {
	impl, ok := workloadImpl[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
	}
	if !traced {
		out, err := impl.run(cfg)
		if err != nil {
			return nil, err
		}
		out.metrics["peak_rss_mb"] = peakRSSMB()
		return out, nil
	}
	// A traced run reports the whole layer ledger: the workload's own
	// layers at its own size, then the layers it does not exercise from
	// reduced probes of the workloads that do, then the kernels.
	own := cfg
	own.budget = cfg.budget * 7 / 10
	out, err := impl.trace(own)
	if err != nil {
		return nil, err
	}
	probeCfg := cfg
	probeCfg.scale = max(cfg.scale, probe)
	probeCfg.budget = 0
	for _, other := range workloads {
		if other == name {
			continue
		}
		o, err := workloadImpl[other].trace(probeCfg)
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", other, err)
		}
		out.merge(o)
	}
	k, err := kernels(name, cfg)
	if err != nil {
		return nil, err
	}
	out.merge(k)
	return out, nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resultFile is the fuller record written next to the build: the host
// fingerprint, the run's parameters, each metric's direction, and the
// first failures.
type resultFile struct {
	Host      host                       `json:"host"`
	Workload  string                     `json:"workload"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Trace     bool                       `json:"trace"`
	Workers   int                        `json:"workers"`
	ErrorFrac float64                    `json:"error_frac"`
	Failures  []string                   `json:"failures,omitempty"`
	Notes     map[string]float64         `json:"notes,omitempty"`
	Profile   string                     `json:"cpu_profile,omitempty"`
	Result    result                     `json:"result"`
	Metrics   map[string]resultFileEntry `json:"metrics"`
}

type resultFileEntry struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload: session, bank108 or swarm")
	seed := flag.Uint64("seed", 1, "input seed")
	secs := flag.Float64("seconds", 30, "measuring time per run in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a CPU profile")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for result files and profiles")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if _, ok := workloadImpl[*workload]; !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", *workload, workloads)
	}
	if *secs <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", *secs)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	traced := *trace == 1
	h := fingerprint()
	fmt.Printf("host: cpu=%q num_cpu=%d gomaxprocs=%d go=%s calib_ms=%.3f\n",
		h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CalibMS)
	cfg := runConfig{
		seed:    *seed,
		budget:  time.Duration(*secs * float64(time.Second)),
		workers: runtime.GOMAXPROCS(0),
	}
	stem := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *trace))
	var profile string
	if traced {
		profile = stem + ".cpu.pprof"
		f, err := os.Create(profile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	out, err := measure(*workload, cfg, traced)
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return err
	}
	res, entries, err := assemble(out, catalogFor(traced))
	if err != nil {
		return err
	}
	rf := resultFile{
		Host: h, Workload: *workload, Seed: *seed, Seconds: *secs, Trace: traced,
		Workers: cfg.workers, ErrorFrac: ratio(float64(out.failed), float64(out.attempted)),
		Failures: out.failures, Notes: out.notes, Profile: profile, Result: res, Metrics: entries,
	}
	for _, m := range catalogFor(traced) {
		fmt.Printf("%-28s %16.6g %-6s (%s is better)\n", m.name, entries[m.name].Value, m.unit, m.better)
	}
	for _, f := range out.failures {
		fmt.Println("failure:", f)
	}
	for k, v := range out.notes {
		fmt.Printf("note: %s = %g\n", k, v)
	}
	fmt.Printf("error_frac %.6g (%d of %d operations failed)\n", rf.ErrorFrac, out.failed, out.attempted)
	buf, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", buf, 0o644); err != nil {
		return err
	}
	fmt.Println("result file:", stem+".json")
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// assemble checks that the outcome carries exactly the catalog's metrics,
// each a finite number, and builds the printed result and the result-file
// entries.
func assemble(out *outcome, cat []metric) (result, map[string]resultFileEntry, error) {
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: max(out.attempted, 1),
		Failed:    out.failed,
		Metrics:   map[string]jsonMetric{},
	}
	entries := map[string]resultFileEntry{}
	var missing, extra []string
	for _, m := range cat {
		v, ok := out.metrics[m.name]
		if !ok {
			missing = append(missing, m.name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, nil, fmt.Errorf("metric %s is not finite (%v)", m.name, v)
		}
		res.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
		entries[m.name] = resultFileEntry{Value: v, Unit: m.unit, Better: m.better}
	}
	for k := range out.metrics {
		if !slices.ContainsFunc(cat, func(m metric) bool { return m.name == k }) {
			extra = append(extra, k)
		}
	}
	if len(missing) > 0 || len(extra) > 0 {
		slices.Sort(extra)
		return res, nil, fmt.Errorf("metrics missing %v, not in the catalog %v", missing, extra)
	}
	return res, entries, nil
}
