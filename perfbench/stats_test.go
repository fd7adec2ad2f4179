package main

import (
	"testing"
	"time"
)

// The percentile rule: report the highest percentile with at least
// minBeyond samples beyond it, and the sample count with it.
func TestHighestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		max  float64
		want float64
	}{
		{1000, 99, 99},   // rank 990, 10 beyond
		{999, 99, 98},    // p99 rank 990 leaves 9 beyond
		{100000, 99, 99}, // capped at the requested percentile
		{100000, 99.9, 99.9},
		{100, 99, 90}, // p95 rank 95 leaves 5 beyond
		{20, 99, 50},  // median rank 10, 10 beyond
		{19, 99, 0},   // not even a median
		{0, 99, 0},
	}
	for _, c := range cases {
		if got := highestSupported(c.n, c.max); got != c.want {
			t.Errorf("highestSupported(%d, %g) = %g, want %g", c.n, c.max, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0.1: 1} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", q, got, want)
		}
	}
}

func TestDistTailReportsPercentileAndCount(t *testing.T) {
	ds := make([]time.Duration, 1500)
	for i := range ds {
		ds[len(ds)-1-i] = time.Duration(i+1) * time.Millisecond // unsorted input
	}
	d := newDist(ds)
	v, pct := d.tail(99)
	if d.n() != 1500 || pct != 99 || v != 1485 {
		t.Fatalf("tail = %g at p%g of %d, want 1485 at p99 of 1500", v, pct, d.n())
	}
	if got := d.p50(); got != 750 {
		t.Fatalf("p50 = %g, want 750", got)
	}
	if _, pct := newDist(ds[:50]).tail(99); pct != 75 {
		t.Fatalf("50 samples: tail at p%g, want p75", pct)
	}
}

func TestChunkTailsUsesOnlyFullChunks(t *testing.T) {
	ds := make([]time.Duration, 2*tailChunk+tailChunk/2)
	for i := range ds {
		ds[i] = time.Millisecond
	}
	ds[tailChunk+5] = time.Hour // one stall in the second chunk
	got := chunkTails(ds)
	if len(got) != 2 || got[0] != 1 || got[1] != 1 {
		t.Fatalf("chunkTails = %v, want [1 1]: a single stall must not set a chunk's p99", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}
