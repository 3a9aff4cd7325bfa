package experiments

import (
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

// TestFullBankAgreement: the batch engine's results agree bit for bit with
// the warm single-detector loop on the full 108-shape bank (FullBank
// fails otherwise), and both disciplines report positive throughput.
func TestFullBankAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("108-template identification stream is slow")
	}
	r, err := FullBank(FullBankConfig{Trials: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Templates != pulse.NumShapes {
		t.Errorf("Templates = %d, want %d", r.Templates, pulse.NumShapes)
	}
	if r.Trials != 8 {
		t.Errorf("Trials = %d, want 8", r.Trials)
	}
	// The speedup itself is not gated here: an 8-CIR run is too noisy.
	if r.WarmPerSec <= 0 || r.BatchPerSec <= 0 || r.BatchSpeedup <= 0 {
		t.Errorf("non-positive throughput: warm %.1f batch %.1f speedup %.2f",
			r.WarmPerSec, r.BatchPerSec, r.BatchSpeedup)
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}
