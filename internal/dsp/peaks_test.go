package dsp

import (
	"math"
	"testing"
)

func TestLocalMaxima(t *testing.T) {
	mag := []float64{0, 1, 0, 2, 2, 1, 0, 3, 0}
	peaks := LocalMaxima(mag, 0.5)
	want := []Peak{{1, 1}, {3, 2}, {7, 3}}
	if len(peaks) != len(want) {
		t.Fatalf("got %v, want %v", peaks, want)
	}
	for i := range want {
		if peaks[i] != want[i] {
			t.Fatalf("peak %d: got %v, want %v", i, peaks[i], want[i])
		}
	}
}

func TestLocalMaximaThreshold(t *testing.T) {
	mag := []float64{0, 1, 0, 2, 0}
	peaks := LocalMaxima(mag, 1.5)
	if len(peaks) != 1 || peaks[0].Index != 3 {
		t.Fatalf("got %v", peaks)
	}
}

func TestLocalMaximaConstantSignal(t *testing.T) {
	if peaks := LocalMaxima([]float64{2, 2, 2, 2}, 0); len(peaks) != 0 {
		t.Fatalf("constant signal produced peaks: %v", peaks)
	}
}

func TestLocalMaximaEdges(t *testing.T) {
	// A falling signal has its maximum at index 0; LocalMaxima reports it
	// because the drop away from index 0 was observed.
	peaks := LocalMaxima([]float64{5, 3, 1}, 0)
	if len(peaks) != 1 || peaks[0].Index != 0 {
		t.Fatalf("falling signal: got %v", peaks)
	}
	// A signal rising into the last sample is a truncated peak: the drop
	// was never observed, so nothing is reported — consistent with the
	// constant-signal rule.
	if peaks := LocalMaxima([]float64{1, 3, 5}, 0); len(peaks) != 0 {
		t.Fatalf("rising-to-edge: got %v", peaks)
	}
	// Same for a plateau running into the last sample.
	if peaks := LocalMaxima([]float64{1, 3, 3}, 0); len(peaks) != 0 {
		t.Fatalf("plateau-at-edge: got %v", peaks)
	}
	// An interior plateau whose drop does arrive still reports its first
	// sample.
	peaks = LocalMaxima([]float64{1, 3, 3, 2}, 0)
	if len(peaks) != 1 || peaks[0] != (Peak{1, 3}) {
		t.Fatalf("interior plateau: got %v", peaks)
	}
	// Single-sample and empty inputs have no room for a drop.
	if peaks := LocalMaxima([]float64{7}, 0); len(peaks) != 0 {
		t.Fatalf("single sample: got %v", peaks)
	}
	if peaks := LocalMaxima(nil, 0); len(peaks) != 0 {
		t.Fatalf("empty input: got %v", peaks)
	}
}

func TestMaxWithin(t *testing.T) {
	mag := []float64{1, 5, 2, 8, 3}
	idx, v := MaxWithin(mag, 0, len(mag))
	if idx != 3 || v != 8 {
		t.Fatalf("got (%d,%g)", idx, v)
	}
	idx, v = MaxWithin(mag, 0, 3)
	if idx != 1 || v != 5 {
		t.Fatalf("got (%d,%g)", idx, v)
	}
	// Clamping.
	idx, v = MaxWithin(mag, -10, 100)
	if idx != 3 || v != 8 {
		t.Fatalf("clamped: got (%d,%g)", idx, v)
	}
	if idx, _ = MaxWithin(mag, 4, 2); idx != -1 {
		t.Fatalf("empty interval: got %d", idx)
	}
	if ArgMax(nil) != -1 {
		t.Fatal("ArgMax(nil) must be -1")
	}
}

func TestInterpolatePeakRecoversFraction(t *testing.T) {
	// Sample a parabola with vertex between two samples; the interpolator
	// must recover the fractional offset exactly.
	for _, frac := range []float64{-0.4, -0.1, 0, 0.25, 0.49} {
		mag := make([]float64, 9)
		for i := range mag {
			d := float64(i) - (4 + frac)
			mag[i] = 10 - d*d
		}
		got := InterpolatePeak(mag, 4)
		if math.Abs(got-frac) > 1e-9 {
			t.Fatalf("frac %g: got %g", frac, got)
		}
	}
}

func TestInterpolatePeakBoundaries(t *testing.T) {
	mag := []float64{3, 2, 1}
	if InterpolatePeak(mag, 0) != 0 || InterpolatePeak(mag, 2) != 0 {
		t.Fatal("boundary interpolation must return 0")
	}
	if InterpolatePeak([]float64{1, 1, 1}, 1) != 0 {
		t.Fatal("flat region must return 0")
	}
}
