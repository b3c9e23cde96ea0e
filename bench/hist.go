package main

import "math/bits"

// hist is a log2 histogram of non-negative int64 samples (nanoseconds)
// with histSub linear sub-buckets per power of two, so a bucket is at most
// 1/histSub (3 %) wide and a quantile interpolated inside its bucket is
// good to about 1 %. Adding is a shift, a mask and an increment; counts
// and the sum are exact.
type hist struct {
	n, sum int64
	b      [histBuckets]int64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	// Values below histSub get one bucket each; every later power of two
	// up to 2^63 gets histSub buckets.
	histBuckets = (64 - histSubBits) * histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // v in [2^e, 2^(e+1))
	return (e-histSubBits+1)*histSub + int(v>>(e-histSubBits))&(histSub-1)
}

// histBounds returns the half-open value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi int64) {
	if i < histSub {
		return int64(i), int64(i) + 1
	}
	e := i/histSub + histSubBits - 1
	lo = (histSub + int64(i%histSub)) << (e - histSubBits)
	return lo, lo + 1<<(e-histSubBits)
}

func (h *hist) add(v int64) {
	h.n++
	h.sum += v
	h.b[histIndex(v)]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	h.sum += o.sum
	for i, c := range o.b {
		h.b[i] += c
	}
}

func (h *hist) reset() { *h = hist{} }

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantile returns the q-quantile (0 < q <= 1): the value of the
// ceil(q*n)-th smallest sample, interpolated linearly inside its bucket.
// It returns 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum int64
	for i, c := range h.b {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := histBounds(i)
			return float64(lo) + float64(hi-lo)*(float64(rank-cum)-0.5)/float64(c)
		}
		cum += c
	}
	return 0
}
