package dsp

// Peak describes a local maximum of a magnitude signal.
type Peak struct {
	// Index is the sample index of the maximum.
	Index int
	// Value is the magnitude at Index.
	Value float64
}

// LocalMaxima returns every local maximum of mag that is at least
// minValue, in ascending index order. A maximum must be followed by a
// strict drop inside the array: a signal that rises or plateaus into the
// last sample is a truncated peak whose drop was never observed, so it is
// not reported — the same rule that already excluded constant signals and
// interior plateaus followed by a rise. At the array start no preceding
// rise is required (the drop away from index 0 is evidence enough), so a
// falling signal reports index 0. A plateau reports its first sample.
// Single-sample inputs have no room for a drop and report nothing.
func LocalMaxima(mag []float64, minValue float64) []Peak {
	var peaks []Peak
	n := len(mag)
	for i := 0; i < n; i++ {
		v := mag[i]
		if v < minValue {
			continue
		}
		if i > 0 && mag[i-1] >= v {
			continue
		}
		// Walk any plateau to the right; require a strict drop after it,
		// observed inside the array.
		j := i
		for j+1 < n && mag[j+1] == v {
			j++
		}
		if j+1 >= n || mag[j+1] > v {
			continue
		}
		peaks = append(peaks, Peak{Index: i, Value: v})
		i = j
	}
	return peaks
}

// MaxWithin returns the index and value of the largest element of
// mag[start:end] (end exclusive, both clamped). It returns (-1, 0) if the
// clamped interval is empty.
func MaxWithin(mag []float64, start, end int) (int, float64) {
	start = max(start, 0)
	end = min(end, len(mag))
	if start >= end {
		return -1, 0
	}
	best, bestIdx := mag[start], start
	for i := start + 1; i < end; i++ {
		if mag[i] > best {
			best, bestIdx = mag[i], i
		}
	}
	return bestIdx, best
}

// ArgMax returns the index of the largest element of mag (-1 when empty).
func ArgMax(mag []float64) int {
	idx, _ := MaxWithin(mag, 0, len(mag))
	return idx
}

// InterpolatePeak refines the location of a peak at integer index i using a
// three-point parabolic fit over mag[i-1..i+1]. It returns the fractional
// sample offset in (-0.5, 0.5) to add to i; boundary indices return 0.
func InterpolatePeak(mag []float64, i int) float64 {
	if i <= 0 || i >= len(mag)-1 {
		return 0
	}
	a, b, c := mag[i-1], mag[i], mag[i+1]
	den := a - 2*b + c
	if den == 0 {
		return 0
	}
	off := 0.5 * (a - c) / den
	if off > 0.5 {
		off = 0.5
	} else if off < -0.5 {
		off = -0.5
	}
	return off
}
