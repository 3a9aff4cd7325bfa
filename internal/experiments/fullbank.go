package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

// FullBankConfig parameterizes the full-bank identification stream.
type FullBankConfig struct {
	// Trials is the number of single-responder CIRs each discipline
	// processes (default 80).
	Trials int
	// Seed drives the CIR generation.
	Seed uint64
}

// FullBankResult measures campaign throughput on the largest supported
// template bank — all pulse.NumShapes (108) DW1000 test-register shapes,
// the regime Sect. VII targets where every responder needs a
// distinguishable pulse shape — for a single-responder identification
// stream (the Sect. V workload) through two execution disciplines: a warm
// loop reusing one detector, and the batch engine sharing one detector's
// setup across its worker pool. The batch results are verified
// bit-identical to the warm loop's before any number is reported.
type FullBankResult struct {
	// Trials is the identification-stream length.
	Trials int
	// Templates is the bank size (pulse.NumShapes).
	Templates int
	// Workers is the batch engine's worker-pool size (GOMAXPROCS at run
	// time).
	Workers int
	// WarmPerSec and BatchPerSec are the stream throughputs in
	// CIRs/second.
	WarmPerSec, BatchPerSec float64
	// BatchSpeedup is BatchPerSec / WarmPerSec.
	BatchSpeedup float64
}

// fullBankTrain renders overlapping responses with distinct shapes plus
// receiver noise into a CIR, returning the taps and the noise RMS.
func fullBankTrain(bank *pulse.Bank, seed uint64, responders int) ([]complex128, float64) {
	const noise = 1.4e-5
	r := rand.New(rand.NewPCG(seed, 73))
	taps := make([]complex128, dw1000.CIRLength)
	base := 80 + r.Float64()*800
	for i := 0; i < responders; i++ {
		mag := noise * (30 + r.Float64()*300)
		ph := r.Float64() * 2 * math.Pi
		// Equal-distance responders: arrivals spread only over the ~8 ns
		// delayed-TX quantization step (Sect. III).
		jitter := (r.Float64() - 0.5) * 8
		bank.Shape(r.IntN(bank.Len())).RenderInto(taps,
			complex(mag*math.Cos(ph), mag*math.Sin(ph)), base+jitter, dw1000.SampleInterval)
	}
	sigma := noise / math.Sqrt2
	for i := range taps {
		taps[i] += complex(r.NormFloat64()*sigma, r.NormFloat64()*sigma)
	}
	return taps, noise
}

// fullBankBatch runs one timed DetectBatch and surfaces per-item errors.
func fullBankBatch(eng *core.BatchDetector, label string, inputs []core.BatchInput) ([]core.BatchResult, float64, error) {
	t0 := wallNow()
	res := eng.DetectBatch(inputs)
	secs := wallSince(t0).Seconds()
	for i := range res {
		if res[i].Err != nil {
			return nil, 0, fmt.Errorf("trial %d (%s): %w", i, label, res[i].Err)
		}
	}
	return res, secs, nil
}

// FullBank runs the identification stream through both disciplines.
func FullBank(cfg FullBankConfig) (*FullBankResult, error) {
	if cfg.Trials == 0 {
		cfg.Trials = 80
	}
	bank, err := pulse.DefaultBank(dw1000.SampleInterval, pulse.NumShapes)
	if err != nil {
		return nil, err
	}
	const warmup = 2

	// Single-responder CIRs, MaxResponses 1: identifying which responder
	// answered, where a deployment processes CIRs by the thousand.
	idCfg := core.DetectorConfig{MaxResponses: 1}
	idEng, err := core.NewBatchDetector(bank, idCfg, 0)
	if err != nil {
		return nil, err
	}
	defer idEng.Close()

	m := newMeter(cfg.Trials + warmup)
	defer m.finish()
	instrumentBatch(idEng, m)

	res := &FullBankResult{
		Trials:    cfg.Trials,
		Templates: bank.Len(),
		Workers:   idEng.Workers(),
	}
	idInputs := make([]core.BatchInput, cfg.Trials)
	for i := range idInputs {
		idInputs[i].Taps, idInputs[i].NoiseRMS =
			fullBankTrain(bank, cfg.Seed+500009+uint64(i)*9241, 1)
	}

	// Warm loop: one detector reused across the stream. Its results
	// double as the ground truth for the batch engine.
	warmDet, err := core.NewDetector(bank, idCfg)
	if err != nil {
		return nil, err
	}
	instrumentDetector(warmDet)
	warmResults := make([][]core.Response, cfg.Trials)
	warmStart := wallNow()
	for i := range idInputs {
		err := m.timeTrial(func() error {
			out, derr := warmDet.Detect(idInputs[i].Taps, idInputs[i].NoiseRMS)
			warmResults[i] = out
			return derr
		})
		if err != nil {
			return nil, fmt.Errorf("warm-loop CIR %d: %w", i, err)
		}
	}
	warmSecs := wallSince(warmStart).Seconds()

	// The batch engine, after an untimed warmup batch that builds its
	// per-worker detectors.
	if _, _, err := fullBankBatch(idEng, "batch warmup", idInputs[:min(warmup, len(idInputs))]); err != nil {
		return nil, err
	}
	batchRes, batchSecs, err := fullBankBatch(idEng, "batch", idInputs)
	if err != nil {
		return nil, err
	}
	// The acceptance contract: batch results are bit-identical to the
	// sequential per-CIR loop, verified on every recorded run.
	for i := range idInputs {
		got, want := batchRes[i].Responses, warmResults[i]
		if len(got) != len(want) {
			return nil, fmt.Errorf("batch CIR %d: %d responses, warm loop found %d", i, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				return nil, fmt.Errorf("batch CIR %d response %d: %+v differs from warm loop's %+v",
					i, k, got[k], want[k])
			}
		}
	}
	if warmSecs > 0 {
		res.WarmPerSec = float64(cfg.Trials) / warmSecs
	}
	if batchSecs > 0 {
		res.BatchPerSec = float64(cfg.Trials) / batchSecs
	}
	if res.WarmPerSec > 0 {
		res.BatchSpeedup = res.BatchPerSec / res.WarmPerSec
	}
	return res, nil
}

// Render formats the throughput table.
func (r *FullBankResult) Render() string {
	t := &Table{
		Title: fmt.Sprintf("Full %d-shape bank — identification-stream throughput (%d single-responder CIRs, MaxResponses 1)",
			r.Templates, r.Trials),
		Header: []string{"discipline", "CIRs/s"},
		Rows: [][]string{
			{"warm loop (one detector reused)", fmt.Sprintf("%.1f", r.WarmPerSec)},
			{fmt.Sprintf("batch engine (%d workers, shared plans)", r.Workers), fmt.Sprintf("%.1f", r.BatchPerSec)},
		},
	}
	return t.String() + fmt.Sprintf("batch engine speedup over the warm loop: %.2f× (batch results bit-identical to the warm loop)\n",
		r.BatchSpeedup)
}
