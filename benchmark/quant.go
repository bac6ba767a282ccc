package main

import (
	"math"
	"sort"
)

// sample is one timed operation: when it ended (seconds since the window
// opened) and how long it took (seconds). The end time places it in a
// segment of the window.
type sample struct {
	at, dur float64
}

// quantile returns the q-quantile (nearest rank) of an ascending slice, or
// NaN for an empty one.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// segments is how many equal slices a measured window is cut into, at most.
// A metric is computed per slice and the median slice is reported, so one
// stall of the shared host moves one slice, not the result. (Reporting the
// best slice instead was tried: it repeats better while the host is quiet,
// but no better when a whole run is slow, and worse on serve-readwrite,
// whose slices alternate between rebuilding and idle.)
const segments = 5

// minPerSegment is how many samples a slice needs for its median to be a
// fair estimate; an operation with fewer than segments*minPerSegment samples
// in the window gets fewer, longer slices.
const minPerSegment = 30

// segmentQuantiles cuts the samples into nseg equal time slices of a window
// of the given length and returns the q-quantile of each non-empty slice.
func segmentQuantiles(samples []sample, window float64, nseg int, q float64) []float64 {
	groups := make([][]float64, nseg)
	for _, s := range samples {
		g := int(s.at / window * float64(nseg))
		if g < 0 {
			g = 0
		}
		if g >= nseg {
			g = nseg - 1
		}
		groups[g] = append(groups[g], s.dur)
	}
	var qs []float64
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		sort.Float64s(g)
		qs = append(qs, quantile(g, q))
	}
	return qs
}

// p50 is the median over segments of the per-segment median latency, in
// seconds, with the total sample count.
func p50(samples []sample, window float64) (float64, int) {
	nseg := min(max(len(samples)/minPerSegment, 1), segments)
	return median(segmentQuantiles(samples, window, nseg, 0.5)), len(samples)
}

// tail is a high quantile: the median over segments of the per-segment
// q-quantile, with as many segments (at most `segments`) as leave at least
// ten samples beyond the quantile in each. With fewer samples than that it
// falls back to one segment, and ok reports whether even that one has ten
// samples beyond.
func tail(samples []sample, window float64, q float64) (v float64, n int, ok bool) {
	if len(samples) == 0 {
		return math.NaN(), 0, false
	}
	need := int(math.Ceil(10 / (1 - q)))
	nseg := len(samples) / need
	if nseg > segments {
		nseg = segments
	}
	ok = nseg >= 1
	if nseg < 1 {
		nseg = 1
	}
	return median(segmentQuantiles(samples, window, nseg, q)), len(samples), ok
}

// segmentRate is the median over segments of completed operations per second.
func segmentRate(ends []float64, window float64) float64 {
	counts := make([]float64, segments)
	for _, at := range ends {
		// An operation in flight when the window closed completes after it
		// and belongs to no segment.
		if g := int(at / window * segments); g >= 0 && g < segments {
			counts[g]++
		}
	}
	per := window / segments
	for i := range counts {
		counts[i] /= per
	}
	return median(counts)
}
