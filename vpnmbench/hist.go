package main

import "math/bits"

// histSub is the number of mantissa bits the histogram keeps: values
// below 2^histSub are exact, and above that each power-of-two range is
// split into 2^histSub buckets, so a bucket is narrower than 1/128 of
// the values it holds.
const histSub = 7

const histBuckets = (65 - histSub) << histSub

// hist is a fixed-size log-linear histogram of nanosecond durations.
// Recording never allocates. It is not safe for concurrent use: each
// histogram has exactly one writing goroutine, and readers look only
// after a barrier (Flush, or the end of the timed phase).
type hist struct {
	n, sum uint64
	count  [histBuckets]uint64
}

func histIndex(v uint64) int {
	if v < 1<<histSub {
		return int(v)
	}
	n := bits.Len64(v)
	return (n-histSub)<<histSub + int(v>>(n-histSub-1)) - 1<<histSub
}

// histBounds returns the lowest value bucket i holds and its width.
func histBounds(i int) (lo, width float64) {
	g, m := i>>histSub, i&(1<<histSub-1)
	if g == 0 {
		return float64(m), 1
	}
	w := float64(uint64(1) << (g - 1))
	return float64(1<<histSub+m) * w, w
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.count[histIndex(uint64(ns))]++
	h.n++
	h.sum += uint64(ns)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.count {
		h.count[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantile interpolates linearly inside the bucket that holds rank
// q·(n−1), so it returns a continuous value rather than a bucket edge.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, c := range h.count {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			lo, w := histBounds(i)
			return lo + w*(rank-cum+0.5)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := histBounds(histBuckets - 1)
	return lo + w
}

// excessOver sums, over all samples, how far each lies above t — the
// time spent beyond a threshold, at bucket-midpoint precision.
func (h *hist) excessOver(t float64) float64 {
	var s float64
	for i, c := range h.count {
		if c == 0 {
			continue
		}
		lo, w := histBounds(i)
		if mid := lo + w/2; mid > t {
			s += (mid - t) * float64(c)
		}
	}
	return s
}
