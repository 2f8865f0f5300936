package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// samples is a set of latencies in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e6) }

// quantile is the nearest-rank q-quantile (0 < q ≤ 1).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	return c[max(i, 0)]
}

// supports reports whether at least ten samples lie beyond the
// q-quantile, the rule for reporting a tail percentile.
func (s samples) supports(q float64) bool {
	return float64(len(s))-math.Ceil(q*float64(len(s))) >= 10
}

// Host interference on a shared VM comes in episodes that slow every
// process alike. The sliced estimator cuts a window into
// completion-ordered slices and takes the median of the slices'
// quantiles, so an episode confined to a few slices does not move it,
// while a slowdown of most of the window does.

// sliceOps is the smallest slice: the daemon's WAL snapshot period in
// appends (one per patch), so every slice of a WAL workload pays its
// share of snapshots.
const sliceOps = 256

// chunks is the number of equal-count slices a window is cut into: as
// many as keep sliceOps samples each, at most thirty.
func chunks(n int) int { return min(max(n/sliceOps, 1), 30) }

// sliced is the median over slices of each slice's q-quantile.
func (s samples) sliced(q float64) float64 {
	k := chunks(len(s))
	qs := make(samples, k)
	for i := range qs {
		qs[i] = s[i*len(s)/k : (i+1)*len(s)/k].quantile(q)
	}
	return median(qs)
}

// median is the mean of the two middle values for an even count.
func median(s []float64) float64 {
	c := slices.Clone(s)
	slices.Sort(c)
	return (c[(len(c)-1)/2] + c[len(c)/2]) / 2
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}
