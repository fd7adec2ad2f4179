package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail value resting on fewer is one or two outliers, not a tail.
const minBeyond = 10

// tailCandidates are the percentiles a tail may be reported at, highest
// first.
var tailCandidates = []float64{99.9, 99, 98, 95, 90, 75, 50}

// quantile returns the nearest-rank q-th percentile (0 < q <= 100) of
// sorted: the smallest sample with at least q% of the samples at or
// below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)-1]
}

// rank is the 1-based nearest-rank index of the q-th percentile of n
// samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supported reports whether n samples leave at least minBeyond of them
// strictly beyond the q-th percentile's rank.
func supported(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= minBeyond
}

// highestSupported returns the highest candidate percentile, capped at
// max, that n samples support; 0 when even the median is unsupported.
func highestSupported(n int, max float64) float64 {
	for _, q := range tailCandidates {
		if q <= max && supported(n, q) {
			return q
		}
	}
	return 0
}

// dist is a sorted sample of one timing, in milliseconds.
type dist struct{ ms []float64 }

// newDist sorts a copy of the durations into milliseconds.
func newDist(ds []time.Duration) dist {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return dist{ms}
}

// newDistMS sorts a copy of samples already in milliseconds.
func newDistMS(xs []float64) dist {
	ms := append([]float64(nil), xs...)
	sort.Float64s(ms)
	return dist{ms}
}

func (d dist) n() int { return len(d.ms) }

func (d dist) p50() float64 { return quantile(d.ms, 50) }

// tail returns the value at the highest percentile, at most max, that
// has minBeyond samples beyond it, and that percentile.
func (d dist) tail(max float64) (float64, float64) {
	q := highestSupported(d.n(), max)
	if q == 0 {
		return math.NaN(), 0
	}
	return quantile(d.ms, q), q
}

// tailChunk is how many consecutive samples chunkTails takes a p99
// over: enough that minBeyond of them lie beyond it.
const tailChunk = 2000

// chunkTails returns the p99 of each full chunk of tailChunk
// consecutive samples.
func chunkTails(ds []time.Duration) []float64 {
	var out []float64
	for lo := 0; lo+tailChunk <= len(ds); lo += tailChunk {
		t, _ := newDist(ds[lo : lo+tailChunk]).tail(99)
		out = append(out, t)
	}
	return out
}

// median returns the median of xs (the mean of the middle two for an
// even count), leaving xs untouched.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
