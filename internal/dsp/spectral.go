package dsp

import (
	"fmt"
	"sync/atomic"
)

// SpectralBank is the matched-filter search state of the detector's
// search-and-subtract loop. Each Detect pays one full sweep: Ingest
// transforms the up-sampled signal once, and ScanBest filters every
// template against that spectrum with one inverse FFT each. Every later
// round re-filters only the outputs the last subtraction changed.
//
// The full sweep runs at the circular transform length
// M = NextPow2(max(sigLen, L)), L the longest template. That is shorter
// than the MatchedFilterBank's linear convolution length
// NextPow2(sigLen+L_t−1). The wrapped convolution tail (shorter than
// sigLen, since M ≥ L) is corrected exactly from a copy of the signal's
// first samples (see ScanBest, overlap-save identity).
//
// Every scan also records the template's block maxima: the strongest
// output outside the skip intervals in each run of blockLen outputs. When
// the caller changes the signal over [lo, hi], template t's output
// changes only for outputs [lo−L_t+1, hi]. Update prepares the widest
// such window, widened to block edges, once for all templates: one
// forward FFT of the zero-padded signal segment the window's outputs read
// (W+L−1 samples), at the short length Mw = NextPow2(3L+2·blockLen−3)
// that holds the window of a pulse as long as the longest template.
// Rescan then gives each template one product, one Mw-point inverse FFT
// and a rescan of the window's blocks, and returns the best block
// maximum. Blocks outside the window keep their
// maxima, which is exact as long as every skip interval added with an
// Update lies inside that Update's window.
//
// Ingest and Update mutate the signal state; ScanBest and Rescan read it
// and write only template t's block maxima, so between mutations any
// number of goroutines may scan distinct templates concurrently, each
// with its own scratch.
type SpectralBank struct {
	sigLen  int
	m       int
	plan    *FFTPlan
	longest int
	maxTail int
	tmpls   []spectralTemplate

	// Windowed rescans: wplan is nil when a window transform would not
	// be shorter than the full one, and Update then re-ingests.
	mw     int
	wplan  *FFTPlan
	winCap int // widest window one segment covers: mw − longest + 1

	// Signal state, owned by each clone.
	spec    []complex128 // Ingest scratch: the natural-order spectrum
	specRev []complex128 // the ingested signal's spectrum, bit-reversed
	prefix  []complex128 // signal[0:maxTail] for the tail correction
	seg     []complex128 // Update scratch: the window's signal segment
	segRev  []complex128 // the segment's spectrum, bit-reversed
	blocks  []blockMax   // block maxima, nblocks per template
	full    bool         // the next Rescan filters the whole output
	winLo   int          // the pending window of outputs: [winLo, winHi)
	winHi   int

	ingests, updates, scans atomic.Int64
}

type spectralTemplate struct {
	taps     []complex128 // conjugated time-reversed template
	specRev  []complex128 // FFT_M of the zero-padded taps, bit-reversed
	wspecRev []complex128 // FFT_Mw of the zero-padded taps, bit-reversed; nil without windows
	tail     int          // wrapped convolution samples: sigLen+len(taps)-1-m, in [0, sigLen)
}

// blockLen is the number of outputs per block maximum. Windows widen to
// block edges, so a smaller block narrows the window while a larger one
// shortens the per-round pass over every template's blocks.
const blockLen = 32

// blockMax is the strongest output of one block: idx -1 (and sq 0) when
// every output of the block is skipped or zero.
type blockMax struct {
	sq  float64
	idx int
}

// NewSpectralBank builds the search state for the given templates and
// up-sampled signal length. Every template must be non-empty; templates
// longer than the signal only widen the transform.
func NewSpectralBank(templates [][]complex128, sigLen int) (*SpectralBank, error) {
	if sigLen < 1 {
		return nil, fmt.Errorf("dsp: spectral bank needs a positive signal length, got %d", sigLen)
	}
	if len(templates) == 0 {
		return nil, fmt.Errorf("dsp: spectral bank needs at least one template")
	}
	longest := 0
	for i, t := range templates {
		if len(t) == 0 {
			return nil, fmt.Errorf("dsp: empty template %d", i)
		}
		longest = max(longest, len(t))
	}
	m := NextPow2(max(sigLen, longest))
	plan, err := NewFFTPlan(m)
	if err != nil {
		return nil, err
	}
	b := &SpectralBank{
		sigLen:  sigLen,
		m:       m,
		plan:    plan,
		longest: longest,
		tmpls:   make([]spectralTemplate, len(templates)),
	}
	// A subtracted pulse as long as the longest template spans at most
	// longest+1 samples, so it changes at most 2·longest outputs; block
	// edges widen that by up to 2(blockLen−1), and the segment holds the
	// longest−1 samples the filters read past the window.
	if mw := NextPow2(3*longest + 2*blockLen - 3); mw < m {
		if b.wplan, err = NewFFTPlan(mw); err != nil {
			return nil, err
		}
		b.mw, b.winCap = mw, mw-longest+1
	}
	spec := make([]complex128, m)
	for i, t := range templates {
		taps := MatchedFilterTaps(t)
		st := spectralTemplate{
			taps:    taps,
			specRev: spectrumRev(plan, spec, taps),
			tail:    max(sigLen+len(taps)-1-m, 0),
		}
		if b.wplan != nil {
			st.wspecRev = spectrumRev(b.wplan, spec[:b.mw], taps)
		}
		b.maxTail = max(b.maxTail, st.tail)
		b.tmpls[i] = st
	}
	b.allocSignalState()
	return b, nil
}

// spectrumRev returns the bit-reversed plan-length spectrum of the
// zero-padded taps, using buf as transform scratch.
func spectrumRev(p *FFTPlan, buf, taps []complex128) []complex128 {
	clear(buf)
	copy(buf, taps)
	p.transform(buf, p.fwd)
	out := make([]complex128, p.n)
	p.permuteInto(out, buf)
	return out
}

// allocSignalState gives b fresh signal state of its own.
func (b *SpectralBank) allocSignalState() {
	b.spec = make([]complex128, b.m)
	b.specRev = make([]complex128, b.m)
	b.prefix = make([]complex128, b.maxTail)
	b.seg = make([]complex128, b.mw)
	b.segRev = make([]complex128, b.mw)
	b.blocks = make([]blockMax, len(b.tmpls)*b.nblocks())
}

func (b *SpectralBank) nblocks() int { return (b.sigLen + blockLen - 1) / blockLen }

// Ingests, Updates and Scans return how many signals were ingested, how
// many signal changes were applied and how many full-length template
// filters ran since the bank was built — plan-level observability.
func (b *SpectralBank) Ingests() int64 { return b.ingests.Load() }
func (b *SpectralBank) Updates() int64 { return b.updates.Load() }
func (b *SpectralBank) Scans() int64   { return b.scans.Load() }

// NewScratch returns a scratch buffer sized for ScanBest and Rescan.
// Allocate one per goroutine; scans never touch bank-owned scratch.
func (b *SpectralBank) NewScratch() []complex128 {
	return make([]complex128, b.m+b.maxTail)
}

// Clone returns a new bank sharing b's immutable state — the template
// taps and spectra plus the FFT plans — while owning fresh signal state
// and zeroed execution counters. The clone holds no signal: Ingest before
// scanning. The shared plans are read-only under every bank method (only
// their swap and twiddle tables are consulted), so clones may run
// concurrently, one goroutine each, while the O(templates) spectrum
// setup is paid once and shared.
func (b *SpectralBank) Clone() *SpectralBank {
	c := &SpectralBank{
		sigLen:  b.sigLen,
		m:       b.m,
		plan:    b.plan,
		longest: b.longest,
		maxTail: b.maxTail,
		tmpls:   b.tmpls,
		mw:      b.mw,
		wplan:   b.wplan,
		winCap:  b.winCap,
	}
	c.allocSignalState()
	return c
}

// Ingest replaces the signal state with a fresh signal: one forward FFT
// plus a copy of the tail-correction prefix. The next Rescan of each
// template filters its whole output.
func (b *SpectralBank) Ingest(sig []complex128) error {
	if len(sig) != b.sigLen {
		return fmt.Errorf("dsp: spectral bank built for %d-sample signals, got %d", b.sigLen, len(sig))
	}
	clear(b.spec)
	copy(b.spec, sig)
	b.plan.transform(b.spec, b.plan.fwd)
	b.plan.permuteInto(b.specRev, b.spec)
	copy(b.prefix, sig[:b.maxTail])
	b.full = true
	b.ingests.Add(1)
	return nil
}

// Update replaces the bank's signal with sig, which differs from it only
// in samples [lo, hi], and filters the affected window of outputs:
// [lo−L+1, hi] for the longest template L, clipped to the signal and
// widened to block edges. The next Rescan of each template
// rescans only that window, so every template's block maxima must be
// current when Update is called: each template scanned since the last
// Ingest or Update. Skip intervals the caller adds before the next
// Rescans must lie inside the window. When the window is wider than one
// segment, or windows are off, Update re-ingests sig instead and the next
// Rescans filter the whole output.
func (b *SpectralBank) Update(sig []complex128, lo, hi int) error {
	if len(sig) != b.sigLen {
		return fmt.Errorf("dsp: spectral bank built for %d-sample signals, got %d", b.sigLen, len(sig))
	}
	if lo > hi {
		return fmt.Errorf("dsp: empty change range [%d, %d]", lo, hi)
	}
	b.updates.Add(1)
	first, last := max(lo-b.longest+1, 0), min(hi, b.sigLen-1)
	if first > last {
		// The change missed the signal: no output moved.
		b.full, b.winLo, b.winHi = false, 0, 0
		return nil
	}
	winLo := first / blockLen * blockLen
	winHi := min((last/blockLen+1)*blockLen, b.sigLen)
	if b.wplan == nil || winHi-winLo > b.winCap {
		return b.Ingest(sig)
	}
	b.full, b.winLo, b.winHi = false, winLo, winHi
	clear(b.seg)
	copy(b.seg, sig[winLo:min(winHi+b.longest-1, b.sigLen)])
	b.wplan.transform(b.seg, b.wplan.fwd)
	b.wplan.permuteInto(b.segRev, b.seg)
	return nil
}

// ScanBest matched-filters template t against the ingested signal and
// returns the strongest output sample outside the skip intervals: its
// output index (-1 when every sample is skipped or zero), its squared
// magnitude, and the three output samples centered on it (zero where the
// signal window ends). Output indexing matches MatchedFilterBank: index i
// is the matched-filter output at signal sample i. It also records t's
// block maxima for later Rescans.
//
// One inverse FFT of length M computes the circular convolution; the
// samples the wrap-around corrupts (the last tail_t outputs) are repaired
// with the overlap-save identity full[M+j] = circ[j] − full[j], where the
// linear-convolution prefix full[j] (j < tail_t ≤ L_t−1) is recomputed
// directly from the signal prefix. skip must hold inclusive, ascending,
// disjoint output-index intervals; scratch must be at least
// NewScratch-sized.
func (b *SpectralBank) ScanBest(scratch []complex128, t int, skip []SkipInterval) (int, float64, [3]complex128, error) {
	var y3 [3]complex128
	if err := b.checkScan(scratch, t); err != nil {
		return -1, 0, y3, err
	}
	y, s := b.sweep(scratch, t, skip)
	idx, sq := bestBlock(b.row(t))
	if idx < 0 {
		return -1, 0, y3, nil
	}
	for k := range y3 {
		if i := idx - 1 + k; i >= 0 && i < b.sigLen {
			y3[k] = y[i] * complex(s, 0)
		}
	}
	return idx, sq, y3, nil
}

// Rescan returns template t's strongest output outside the skip
// intervals, as ScanBest does, without the neighbor samples (Outputs3
// computes them for the one winner that needs them). After Ingest, or an
// Update that re-ingested, it filters the whole output; after an Update
// it rescans only the Update's window and keeps the other block maxima.
func (b *SpectralBank) Rescan(scratch []complex128, t int, skip []SkipInterval) (int, float64, error) {
	if err := b.checkScan(scratch, t); err != nil {
		return -1, 0, err
	}
	if b.full {
		b.sweep(scratch, t, skip)
	} else if b.winHi > b.winLo {
		st := &b.tmpls[t]
		prod := scratch[:b.mw]
		b.wplan.productTransformPermuted(prod, st.wspecRev, b.segRev, b.wplan.inv)
		// Window output winLo+i is the linear convolution's sample
		// i+L_t−1, which the circular one holds unwrapped because the
		// segment plus the taps fit in mw.
		y := prod[len(st.taps)-1 : len(st.taps)-1+b.winHi-b.winLo]
		scanBlocks(b.row(t), y, 1/float64(b.mw), b.winLo, skip)
	}
	idx, sq := bestBlock(b.row(t))
	return idx, sq, nil
}

// Outputs3 returns template t's matched-filter outputs idx−1, idx and
// idx+1 of sig (zero outside the signal), computed directly in the time
// domain.
func (b *SpectralBank) Outputs3(sig []complex128, t, idx int) [3]complex128 {
	var y3 [3]complex128
	taps := b.tmpls[t].taps
	l := len(taps)
	for k := range y3 {
		i := idx - 1 + k
		if i < 0 || i >= len(sig) {
			continue
		}
		// Output i = Σ_j taps[j]·sig[i+L−1−j] over the signal's samples.
		var s complex128
		for j := max(0, i+l-len(sig)); j < l; j++ {
			s += taps[j] * sig[i+l-1-j]
		}
		y3[k] = s
	}
	return y3
}

func (b *SpectralBank) checkScan(scratch []complex128, t int) error {
	if t < 0 || t >= len(b.tmpls) {
		return fmt.Errorf("dsp: template index %d outside bank of %d", t, len(b.tmpls))
	}
	if len(scratch) < b.m+b.maxTail {
		return fmt.Errorf("dsp: spectral bank scratch needs %d samples, got %d", b.m+b.maxTail, len(scratch))
	}
	return nil
}

// row returns template t's block maxima.
func (b *SpectralBank) row(t int) []blockMax {
	nb := b.nblocks()
	return b.blocks[t*nb : (t+1)*nb]
}

// sweep filters template t's whole output, records its block maxima and
// returns the unscaled outputs (output i is y[i]·s), laid out
// contiguously in scratch.
func (b *SpectralBank) sweep(scratch []complex128, t int, skip []SkipInterval) ([]complex128, float64) {
	b.scans.Add(1)
	st := &b.tmpls[t]
	prod := scratch[:b.m]
	b.plan.productTransformPermuted(prod, st.specRev, b.specRev, b.plan.inv)
	// Output i sits at prod[start+i] until it wraps at i = m−start. The
	// wrapped outputs are written, repaired, right after prod, so all
	// outputs lie contiguous in scratch[start:start+sigLen]. The
	// linear-convolution prefix full[j] for j < tail only involves
	// taps[0..j] and signal[0..j], both inside the prefix.
	start := len(st.taps) - 1
	mf := complex(float64(b.m), 0)
	for j := 0; j < st.tail; j++ {
		var f complex128
		for k := 0; k <= j && k < len(st.taps); k++ {
			f += st.taps[k] * b.prefix[j-k]
		}
		scratch[b.m+j] = prod[j] - f*mf
	}
	y := scratch[start : start+b.sigLen]
	s := 1 / float64(b.m)
	scanBlocks(b.row(t), y, s, 0, skip)
	return y, s
}

// scanBlocks rewrites the block maxima of outputs [from, from+len(y)),
// where output from+k is y[k]·s, from is a block edge and the range ends
// at a block edge or the signal end. Samples inside skip intervals are
// ignored; within a block the first of equal maxima wins (strict >), the
// same order as one ascending scan.
func scanBlocks(rows []blockMax, y []complex128, s float64, from int, skip []SkipInterval) {
	to := from + len(y)
	si := 0
	for b0 := from; b0 < to; b0 += blockLen {
		b1 := min(b0+blockLen, to)
		bm := blockMax{idx: -1}
		for i := b0; i < b1; {
			for si < len(skip) && skip[si].Hi < i {
				si++
			}
			end := b1
			if si < len(skip) {
				if skip[si].Lo <= i {
					i = skip[si].Hi + 1
					continue
				}
				end = min(end, skip[si].Lo)
			}
			for k, v := range y[i-from : end-from] {
				re, im := real(v)*s, imag(v)*s
				if sq := re*re + im*im; sq > bm.sq {
					bm = blockMax{sq: sq, idx: i + k}
				}
			}
			i = end
		}
		rows[b0/blockLen] = bm
	}
}

// bestBlock returns the strongest of the block maxima, the first on ties:
// the result of one ascending strict-> scan over the whole output.
func bestBlock(rows []blockMax) (int, float64) {
	best := blockMax{idx: -1}
	for _, r := range rows {
		if r.sq > best.sq {
			best = r
		}
	}
	return best.idx, best.sq
}
