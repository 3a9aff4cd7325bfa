package dsp

import (
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"testing"
)

// seededSignal returns a deterministic complex test vector.
func seededSignal(n int, seed uint64) []complex128 {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	return randSignal(rng, n)
}

// spectralTestTemplates builds a few odd-length smooth templates like the
// detector's (non-power-of-two lengths force a wrapped convolution tail).
func spectralTestTemplates(lens ...int) [][]complex128 {
	out := make([][]complex128, len(lens))
	for i, l := range lens {
		t := make([]complex128, l)
		c := float64(l-1) / 2
		for k := range t {
			x := (float64(k) - c) / (c + 1)
			env := math.Cos(x * math.Pi / 2)
			t[k] = complex(env*math.Cos(6*x), env*math.Sin(6*x))
		}
		out[i] = t
	}
	return out
}

// TestSpectralBankScanMatchesMatchedFilter: Ingest + ScanBest is an exact
// overlap-save matched filter — outputs must agree with the plain
// MatchedFilter argmax and values to FFT rounding.
func TestSpectralBankScanMatchesMatchedFilter(t *testing.T) {
	const sigLen = 300 // m = 512, so long templates wrap: tail = 300+L-1-512
	tmpls := spectralTestTemplates(9, 215, 255)
	sig := seededSignal(sigLen, 7)
	b, err := NewSpectralBank(tmpls, sigLen)
	if err != nil {
		t.Fatal(err)
	}
	if b.maxTail != 300+255-1-512 {
		t.Fatalf("tail-correction prefix %d, want %d", b.maxTail, 300+255-1-512)
	}
	if err := b.Ingest(sig); err != nil {
		t.Fatal(err)
	}
	scratch := b.NewScratch()
	for ti, tmpl := range tmpls {
		want := MatchedFilter(sig, tmpl)
		idx, sq, y3, err := b.ScanBest(scratch, ti, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantIdx, wantSq := -1, 0.0
		for i, v := range want {
			s := real(v)*real(v) + imag(v)*imag(v)
			if s > wantSq {
				wantIdx, wantSq = i, s
			}
		}
		if idx != wantIdx {
			t.Fatalf("template %d: peak index %d, want %d", ti, idx, wantIdx)
		}
		if rel := math.Abs(sq-wantSq) / wantSq; rel > 1e-9 {
			t.Errorf("template %d: peak |y|² off by %g relative", ti, rel)
		}
		for k, off := range []int{-1, 0, 1} {
			i := idx + off
			if i < 0 || i >= sigLen {
				continue
			}
			if d := cAbs(y3[k] - want[i]); d > 1e-9*(1+cAbs(want[i])) {
				t.Errorf("template %d: y3[%d] = %v, want %v", ti, k, y3[k], want[i])
			}
		}
	}
	if b.Ingests() != 1 || b.Scans() != int64(len(tmpls)) {
		t.Errorf("counters: ingests %d scans %d, want 1 and %d", b.Ingests(), b.Scans(), len(tmpls))
	}
}

// TestSpectralBankShortSignal: templates longer than the signal widen the
// transform to the longest template instead of failing, and the scan stays
// an exact matched filter down to a one-sample signal.
func TestSpectralBankShortSignal(t *testing.T) {
	tmpls := spectralTestTemplates(9, 37, 61)
	for _, sigLen := range []int{1, 4, 16, 40, 64} {
		sig := seededSignal(sigLen, uint64(sigLen))
		b, err := NewSpectralBank(tmpls, sigLen)
		if err != nil {
			t.Fatalf("sigLen %d: %v", sigLen, err)
		}
		if b.maxTail >= sigLen {
			t.Fatalf("sigLen %d: tail-correction prefix %d not below the signal length", sigLen, b.maxTail)
		}
		if err := b.Ingest(sig); err != nil {
			t.Fatal(err)
		}
		scratch := b.NewScratch()
		for ti, tmpl := range tmpls {
			want := MatchedFilter(sig, tmpl)
			idx, sq, y3, err := b.ScanBest(scratch, ti, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantIdx, wantSq := -1, 0.0
			for i, v := range want {
				if s := real(v)*real(v) + imag(v)*imag(v); s > wantSq {
					wantIdx, wantSq = i, s
				}
			}
			if idx != wantIdx {
				t.Fatalf("sigLen %d template %d: peak index %d, want %d", sigLen, ti, idx, wantIdx)
			}
			if rel := math.Abs(sq-wantSq) / wantSq; rel > 1e-9 {
				t.Errorf("sigLen %d template %d: peak |y|² off by %g relative", sigLen, ti, rel)
			}
			if d := cAbs(y3[1] - want[idx]); d > 1e-9*(1+cAbs(want[idx])) {
				t.Errorf("sigLen %d template %d: y3[1] = %v, want %v", sigLen, ti, y3[1], want[idx])
			}
		}
	}
}

func cAbs(v complex128) float64 {
	return math.Hypot(real(v), imag(v))
}

// TestSpectralBankScanSkipsIntervals: skipped ranges must never win the
// scan, matching a masked reference search.
func TestSpectralBankScanSkipsIntervals(t *testing.T) {
	const sigLen = 300
	tmpls := spectralTestTemplates(31)
	sig := seededSignal(sigLen, 13)
	b, err := NewSpectralBank(tmpls, sigLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Ingest(sig); err != nil {
		t.Fatal(err)
	}
	scratch := b.NewScratch()
	full, _, _, err := b.ScanBest(scratch, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	skip := []SkipInterval{{Lo: full - 3, Hi: full + 3}}
	idx, sq, _, err := b.ScanBest(scratch, 0, skip)
	if err != nil {
		t.Fatal(err)
	}
	if idx >= skip[0].Lo && idx <= skip[0].Hi {
		t.Fatalf("scan returned suppressed index %d", idx)
	}
	want := MatchedFilter(sig, tmpls[0])
	wantIdx, wantSq := -1, 0.0
	for i, v := range want {
		if i >= skip[0].Lo && i <= skip[0].Hi {
			continue
		}
		s := real(v)*real(v) + imag(v)*imag(v)
		if s > wantSq {
			wantIdx, wantSq = i, s
		}
	}
	if idx != wantIdx {
		t.Fatalf("masked peak index %d, want %d", idx, wantIdx)
	}
	if rel := math.Abs(sq-wantSq) / wantSq; rel > 1e-9 {
		t.Errorf("masked peak |y|² off by %g relative", rel)
	}
	// Everything skipped → -1.
	idx, sq, _, err = b.ScanBest(scratch, 0, []SkipInterval{{Lo: 0, Hi: sigLen - 1}})
	if err != nil {
		t.Fatal(err)
	}
	if idx != -1 || sq != 0 {
		t.Fatalf("fully masked scan returned (%d, %g), want (-1, 0)", idx, sq)
	}
}

// windowTestTemplates returns seeded random complex templates of the
// given lengths. Their end taps are as large as their middle ones, so an
// output at the very edge of a window changes by as much as any other.
func windowTestTemplates(seed uint64, lens ...int) [][]complex128 {
	out := make([][]complex128, len(lens))
	for i, l := range lens {
		out[i] = seededSignal(l, seed+uint64(i))
	}
	return out
}

// directBlocks returns template tmpl's block maxima of the direct matched
// filter of sig, testing every output against every skip interval: per
// block, the first output of largest magnitude, or index -1 when none is
// nonzero.
func directBlocks(sig, tmpl []complex128, skip []SkipInterval) []blockMax {
	y := CrossCorrelate(sig, tmpl)
	rows := make([]blockMax, (len(y)+blockLen-1)/blockLen)
	for k := range rows {
		rows[k].idx = -1
	}
	for i, v := range y {
		if slices.ContainsFunc(skip, func(iv SkipInterval) bool { return iv.Lo <= i && i <= iv.Hi }) {
			continue
		}
		sq := real(v)*real(v) + imag(v)*imag(v)
		if r := &rows[i/blockLen]; sq > r.sq {
			*r = blockMax{sq: sq, idx: i}
		}
	}
	return rows
}

// TestSpectralBankWindowedRescanMatchesDirect is the oracle test of the
// windowed rescan. A seeded sequence of fine-grid subtractions changes
// the signal, each followed by Update and a Rescan of every template, and
// each adds a skip interval around its pulse the way the detector's
// suppression guard does, so the skip set grows as the sequence runs.
// After every update:
//
//  1. the winner across templates (index, squared magnitude, the three
//     outputs around it) equals the winner of a direct matched filter of
//     the changed signal, and so does every block maximum of every
//     template;
//  2. every skip interval the update added lies inside the window the
//     update recomputed — the invariant that keeps the block maxima
//     outside the window valid.
//
// The signal is zero outside its first quarter, and some pulses are
// placed so that the window's first or last output is a block's only
// changed output: a window one sample narrower on either side leaves
// that block stale. Another window's last output is the only one that
// reads a strong lone sample, the last of the window's segment. Pulses
// also cross output 0 and the signal end.
func TestSpectralBankWindowedRescanMatchesDirect(t *testing.T) {
	tmpls := windowTestTemplates(17, 37, 61, 90, 113)
	for _, sigLen := range []int{4096, 300} {
		t.Run(strconv.Itoa(sigLen), func(t *testing.T) {
			checkWindowedRescans(t, tmpls, sigLen)
		})
	}
}

func checkWindowedRescans(t *testing.T, tmpls [][]complex128, sigLen int) {
	b, err := NewSpectralBank(tmpls, sigLen)
	if err != nil {
		t.Fatal(err)
	}
	windowed := b.wplan != nil
	if windowed != (sigLen == 4096) {
		t.Fatalf("sigLen %d: windowed rescans %v", sigLen, windowed)
	}
	longest := b.longest
	rng := rand.New(rand.NewPCG(uint64(sigLen), 23))
	sig := make([]complex128, sigLen)
	copy(sig, seededSignal(sigLen/4, 29))
	if err := b.Ingest(sig); err != nil {
		t.Fatal(err)
	}

	// pulseAt returns a position whose support of half-width h starts
	// at lo (so its low edge is exactly lo).
	pulseAt := func(lo int, h float64) float64 { return float64(lo) + h + 0.25 + 0.5*rng.Float64() }
	type step struct {
		pos, h float64
		amp    float64 // 0: a random amplitude near 1
		what   string
	}
	var steps []step
	h := func() float64 { return 18 + 38*rng.Float64() } // supports of 37–115 samples
	for k := 0; k < 6; k++ {
		steps = append(steps, step{pos: rng.Float64() * float64(sigLen) / 4, h: h(), what: "random"})
	}
	hw := h()
	steps = append(steps, step{pos: hw * rng.Float64(), h: hw, what: "crosses output 0"})
	hw = h()
	steps = append(steps, step{pos: float64(sigLen) - hw*rng.Float64(), h: hw, what: "crosses the signal end"})
	// Edge-aligned pulses, each in a zero region of its own.
	for k, cursor := 0, sigLen/4+200; cursor+400 < sigLen && k < 6; k, cursor = k+1, cursor+400 {
		hw := h()
		switch k % 3 {
		case 0:
			// The window's first output, lo−longest+1, is the last of
			// its block.
			lo := (cursor/blockLen+1)*blockLen - 1 + longest - 1
			steps = append(steps, step{pos: pulseAt(lo, hw), h: hw, what: "first output ends a block"})
		case 1:
			// The window's last output, hi = ⌈pos+h⌉, starts a block.
			hi := (cursor/blockLen + 4) * blockLen
			steps = append(steps, step{pos: float64(hi) - 0.25 - 0.5*rng.Float64() - hw, h: hw, what: "last output starts a block"})
		case 2:
			// A strong lone sample that only the window's last output
			// reads, through the longest template's far end: the last
			// sample of the window's segment.
			hi := (cursor/blockLen+4)*blockLen + 5
			winHi := (hi/blockLen + 1) * blockLen
			steps = append(steps,
				step{pos: float64(winHi + longest - 2), amp: 100, what: "lone sample"},
				step{pos: float64(hi) - 0.25 - 0.5*rng.Float64() - hw, h: hw, what: "window reads its segment's last sample"})
		}
	}
	for k := 0; k < 6; k++ {
		steps = append(steps, step{pos: rng.Float64() * float64(sigLen), h: h(), what: "random"})
	}

	var skipQ []SkipInterval // template-independent: q = output + center
	scratch := b.NewScratch()
	for ti := range tmpls {
		if _, _, err := b.Rescan(scratch, ti, nil); err != nil {
			t.Fatal(err)
		}
	}
	for n, st := range steps {
		// Render the pulse on the fine grid over its support [lo, hi].
		lo := int(math.Floor(st.pos - st.h))
		hi := int(math.Ceil(st.pos + st.h))
		amp := complex(1+rng.Float64(), rng.Float64()-0.5)
		if st.amp != 0 {
			amp = complex(st.amp, 0)
		}
		for x := max(lo, 0); x <= min(hi, sigLen-1); x++ {
			sig[x] -= amp * complex(1+0.5*math.Sin(1.7*(float64(x)-st.pos)), 0)
		}
		if err := b.Update(sig, lo, hi); err != nil {
			t.Fatal(err)
		}
		q := int(math.Round(st.pos))
		added := SkipInterval{Lo: q - 2, Hi: q + 2}
		skipQ = append(skipQ, added)
		slices.SortFunc(skipQ, func(a, b SkipInterval) int { return a.Lo - b.Lo })

		bestT, bestIdx, bestSq := -1, -1, 0.0
		wantT, wantIdx, wantSq := -1, -1, 0.0
		for ti, tmpl := range tmpls {
			center := (len(tmpl) - 1) / 2
			skip := shiftedSkips(skipQ, center, sigLen)
			// Check 2: the new interval, in this template's outputs.
			if a := shiftedSkips([]SkipInterval{added}, center, sigLen); len(a) == 1 && !b.full {
				if a[0].Lo < b.winLo || a[0].Hi >= b.winHi {
					t.Fatalf("step %d (%s), template %d: skip %v outside the window [%d, %d)",
						n, st.what, ti, a[0], b.winLo, b.winHi)
				}
			}
			idx, sq, err := b.Rescan(scratch, ti, skip)
			if err != nil {
				t.Fatal(err)
			}
			want := directBlocks(sig, tmpl, skip)
			wIdx, wSq := bestBlock(want)
			floor := 1e-20 * wSq
			for k, got := range b.row(ti) {
				w := want[k]
				if w.sq <= floor && got.sq <= floor {
					continue // FFT rounding of an all-zero block
				}
				if got.idx != w.idx || math.Abs(got.sq-w.sq) > 1e-9*w.sq {
					t.Fatalf("step %d (%s), template %d, block %d: (%d, %g), direct (%d, %g)",
						n, st.what, ti, k, got.idx, got.sq, w.idx, w.sq)
				}
			}
			if sq > bestSq {
				bestT, bestIdx, bestSq = ti, idx, sq
			}
			if wSq > wantSq {
				wantT, wantIdx, wantSq = ti, wIdx, wSq
			}
		}
		// Check 1: the winner.
		if bestT != wantT || bestIdx != wantIdx || math.Abs(bestSq-wantSq) > 1e-9*wantSq {
			t.Fatalf("step %d (%s): winner template %d index %d |y|² %g, direct %d, %d, %g",
				n, st.what, bestT, bestIdx, bestSq, wantT, wantIdx, wantSq)
		}
		y := CrossCorrelate(sig, tmpls[bestT])
		y3 := b.Outputs3(sig, bestT, bestIdx)
		for k := range y3 {
			var w complex128
			if i := bestIdx - 1 + k; i >= 0 && i < sigLen {
				w = y[i]
			}
			if d := cAbs(y3[k] - w); d > 1e-9*(1+cAbs(w)) {
				t.Fatalf("step %d: y3[%d] = %v, direct %v", n, k, y3[k], w)
			}
		}
	}
	if b.Updates() != int64(len(steps)) {
		t.Errorf("Updates = %d, want %d", b.Updates(), len(steps))
	}
	// Windowed updates never re-ingest; without windows every one does.
	wantIngests := int64(1)
	if !windowed {
		wantIngests += int64(len(steps))
	}
	if b.Ingests() != wantIngests {
		t.Errorf("Ingests = %d, want %d", b.Ingests(), wantIngests)
	}
}

// shiftedSkips rebases q-space intervals onto a template's outputs,
// merged and clipped to [0, n) — the detector's suppression layout.
func shiftedSkips(skipQ []SkipInterval, center, n int) []SkipInterval {
	var out []SkipInterval
	for _, iv := range skipQ {
		lo, hi := max(iv.Lo-center, 0), min(iv.Hi-center, n-1)
		if lo > hi {
			continue
		}
		if k := len(out); k > 0 && lo <= out[k-1].Hi+1 {
			out[k-1].Hi = max(out[k-1].Hi, hi)
			continue
		}
		out = append(out, SkipInterval{Lo: lo, Hi: hi})
	}
	return out
}
