package dsp

import (
	"math"
	"testing"
)

// cloneTestSignal builds a deterministic signal long enough to route the
// larger template through the FFT convolution path.
func cloneTestSignal(n int) []complex128 {
	sig := make([]complex128, n)
	for i := range sig {
		sig[i] = complex(math.Sin(0.37*float64(i)), math.Cos(0.11*float64(i)))
	}
	return sig
}

func cloneTestTemplates() [][]complex128 {
	long := make([]complex128, 64)
	for i := range long {
		long[i] = complex(math.Exp(-0.02*float64(i)), 0.3*float64(i%5))
	}
	return [][]complex128{
		{1, 2i, -1}, // short: direct convolution path
		long,        // long: FFT convolution path
	}
}

func TestMatchedFilterBankCloneMatchesOriginal(t *testing.T) {
	const n = 256
	orig, err := NewMatchedFilterBank(cloneTestTemplates(), n)
	if err != nil {
		t.Fatal(err)
	}
	clone := orig.Clone()
	sig := cloneTestSignal(n)

	// The clone starts unready even though the original could have been
	// transformed already.
	if _, _, _, err := clone.FilterPeak(clone.NewScratch(), 0, nil); err == nil {
		t.Fatal("clone was ready before its first Transform")
	}
	if err := orig.Transform(sig); err != nil {
		t.Fatal(err)
	}
	if err := clone.Transform(sig); err != nil {
		t.Fatal(err)
	}
	so, sc := orig.NewScratch(), clone.NewScratch()
	for tm := range cloneTestTemplates() {
		io_, vo, yo, err := orig.FilterPeak(so, tm, nil)
		if err != nil {
			t.Fatal(err)
		}
		ic, vc, yc, err := clone.FilterPeak(sc, tm, nil)
		if err != nil {
			t.Fatal(err)
		}
		if io_ != ic || vo != vc || yo != yc {
			t.Fatalf("template %d: clone (%d,%g,%v) != original (%d,%g,%v)",
				tm, ic, vc, yc, io_, vo, yo)
		}
	}
	// Signal state is independent: transforming a different signal into the
	// clone must not disturb the original's outputs.
	sig2 := cloneTestSignal(n)
	for i := range sig2 {
		sig2[i] *= 3
	}
	if err := clone.Transform(sig2); err != nil {
		t.Fatal(err)
	}
	i1, v1, _, err := orig.FilterPeak(so, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.Transform(sig); err != nil {
		t.Fatal(err)
	}
	i2, v2, _, err := orig.FilterPeak(so, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if i1 != i2 || v1 != v2 {
		t.Fatal("clone Transform disturbed the original bank's signal state")
	}
	// Execution counters are per-instance.
	if clone.Filters() == orig.Filters() {
		t.Fatal("clone shares execution counters with the original")
	}
}

func TestSpectralBankCloneMatchesOriginal(t *testing.T) {
	const n = 1024 // long enough for windowed rescans
	orig, err := NewSpectralBank(cloneTestTemplates(), n)
	if err != nil {
		t.Fatal(err)
	}
	if orig.wplan == nil {
		t.Fatal("windowed rescans are off")
	}
	clone := orig.Clone()
	sig := cloneTestSignal(n)
	if err := orig.Ingest(sig); err != nil {
		t.Fatal(err)
	}
	if err := clone.Ingest(sig); err != nil {
		t.Fatal(err)
	}
	so, sc := orig.NewScratch(), clone.NewScratch()
	for tm := range cloneTestTemplates() {
		io_, vo, yo, err := orig.ScanBest(so, tm, nil)
		if err != nil {
			t.Fatal(err)
		}
		ic, vc, yc, err := clone.ScanBest(sc, tm, nil)
		if err != nil {
			t.Fatal(err)
		}
		if io_ != ic || vo != vc || yo != yc {
			t.Fatalf("template %d: clone (%d,%g,%v) != original (%d,%g,%v)",
				tm, ic, vc, yc, io_, vo, yo)
		}
	}
	// A windowed rescan of a changed signal on the clone must leave the
	// original's signal state and block maxima alone.
	i1, v1, err := orig.Rescan(so, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	changed := append([]complex128(nil), sig...)
	for x := 600; x < 640; x++ {
		changed[x] += 50
	}
	if err := clone.Update(changed, 600, 639); err != nil {
		t.Fatal(err)
	}
	ic, _, err := clone.Rescan(sc, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ic == i1 {
		t.Fatal("the change did not move the clone's peak")
	}
	i2, v2, err := orig.Rescan(so, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if i1 != i2 || v1 != v2 {
		t.Fatal("clone Update disturbed the original bank's state")
	}
	if clone.Ingests() != 1 || clone.Updates() != 1 || orig.Updates() != 0 {
		t.Fatalf("counters not per-instance: clone %d ingests %d updates, orig %d updates",
			clone.Ingests(), clone.Updates(), orig.Updates())
	}
}
