// Package stats provides the small statistical utilities the experiment
// harnesses need: fixed-bin histograms (the SoC distribution of Fig 19),
// online summaries, and series helpers for sweep outputs.
//
// Unlike internal/telemetry — whose atomic counters and histograms serve a
// live /metrics endpoint — these types are plain single-goroutine values
// that end up embedded in experiment results (sim.Result.SoCHistogram), so
// they favor exactness and simplicity over concurrency.
package stats

import (
	"fmt"
	"math"
	"slices"
)

// Histogram is a fixed-bin histogram over [lo, hi). Construct with
// NewHistogram.
type Histogram struct {
	lo, hi float64
	counts []int64
	total  int64
	under  int64
	over   int64
}

// NewHistogram creates a histogram with n equal bins spanning [lo, hi).
func NewHistogram(lo, hi float64, n int) (*Histogram, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stats: need at least one bin, got %d", n)
	}
	if hi <= lo {
		return nil, fmt.Errorf("stats: need lo < hi, got [%v, %v)", lo, hi)
	}
	return &Histogram{lo: lo, hi: hi, counts: make([]int64, n)}, nil
}

// Observe adds one sample. Values outside the range are tallied in
// under/overflow counters rather than dropped silently.
func (h *Histogram) Observe(x float64) {
	h.total++
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		// The top boundary belongs to the last bin so that a [0,1]
		// quantity like SoC at exactly 1.0 is not an overflow.
		if x == h.hi {
			h.counts[len(h.counts)-1]++
			return
		}
		h.over++
	default:
		i := int((x - h.lo) / (h.hi - h.lo) * float64(len(h.counts)))
		if i >= len(h.counts) {
			i = len(h.counts) - 1
		}
		h.counts[i]++
	}
}

// Reset zeroes every counter, keeping the bin geometry. Per-shard scratch
// histograms reset at the start of each accumulation pass instead of being
// reallocated.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.total, h.under, h.over = 0, 0, 0
}

// Merge adds o's counts into h. Both histograms must share the same bin
// geometry; merging per-shard histograms bin-by-bin recombines to exactly
// the counts a single whole-fleet histogram would hold, because counts are
// integers and every sample lands in exactly one shard.
func (h *Histogram) Merge(o *Histogram) error {
	if o.lo != h.lo || o.hi != h.hi || len(o.counts) != len(h.counts) {
		return fmt.Errorf("stats: merge histogram [%v, %v)/%d bins into [%v, %v)/%d bins",
			o.lo, o.hi, len(o.counts), h.lo, h.hi, len(h.counts))
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.under += o.under
	h.over += o.over
	return nil
}

// Counts returns a copy of the per-bin counts.
func (h *Histogram) Counts() []int64 {
	return append([]int64(nil), h.counts...)
}

// CountsInto copies the per-bin counts into dst's backing array, growing
// it only if too short, and returns the result — Counts without the
// allocation for callers that read the bins every tick.
func (h *Histogram) CountsInto(dst []int64) []int64 {
	return append(dst[:0], h.counts...)
}

// Fractions returns per-bin probability mass (zeros when empty).
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// Total returns the number of observations (including out-of-range).
func (h *Histogram) Total() int64 { return h.total }

// OutOfRange returns underflow and overflow counts.
func (h *Histogram) OutOfRange() (under, over int64) { return h.under, h.over }

// BinLabel renders bin i's interval, e.g. "[0.40, 0.60)".
func (h *Histogram) BinLabel(i int) string {
	if i < 0 || i >= len(h.counts) {
		return ""
	}
	w := (h.hi - h.lo) / float64(len(h.counts))
	return fmt.Sprintf("[%.2f, %.2f)", h.lo+float64(i)*w, h.lo+float64(i+1)*w)
}

// Summary accumulates count/mean/min/max/variance online (Welford).
type Summary struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Observe adds a sample.
func (s *Summary) Observe(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the sample count.
func (s *Summary) N() int64 { return s.n }

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest sample (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest sample (0 when empty).
func (s *Summary) Max() float64 { return s.max }

// StdDev returns the sample standard deviation (0 for n < 2).
func (s *Summary) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It returns an error for empty
// input or out-of-range q.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: quantile of empty slice")
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile q must be in [0, 1], got %v", q)
	}
	sorted := append([]float64(nil), xs...)
	slices.Sort(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Min returns the minimum of xs and whether xs was non-empty.
func Min(xs []float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, true
}

// Max returns the maximum of xs and whether xs was non-empty.
func Max(xs []float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, true
}
