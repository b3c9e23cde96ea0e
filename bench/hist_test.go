package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHistBucketsTile(t *testing.T) {
	// Buckets are contiguous, and every value lands in the bucket whose
	// bounds contain it.
	var next int64
	for i := 0; i < histBuckets; i++ {
		lo, hi := histBounds(i)
		if lo != next || hi <= lo {
			t.Fatalf("bucket %d = [%d, %d), want it to start at %d", i, lo, hi, next)
		}
		next = hi
		if i > 1500 { // hi overflows near 2^63; the tiling is proven by then
			break
		}
	}
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 1000, 4095, 4096, 1e6, 1e9 + 7, 1 << 40, math.MaxInt64} {
		lo, hi := histBounds(histIndex(v))
		if v < lo || (v >= hi && hi > lo) {
			t.Errorf("value %d indexed into [%d, %d)", v, lo, hi)
		}
	}
}

func TestHistQuantilesAgainstSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	var all []int64
	var sum int64
	for i := 0; i < 200000; i++ {
		// Log-uniform over 100 ns .. 100 ms, the range of op latencies.
		v := int64(100 * math.Pow(1e6, rng.Float64()))
		h.add(v)
		all = append(all, v)
		sum += v
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if h.n != int64(len(all)) || h.sum != sum {
		t.Fatalf("n, sum = %d, %d; want %d, %d", h.n, h.sum, len(all), sum)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		want := float64(all[int(math.Ceil(q*float64(len(all))))-1])
		got := h.quantile(q)
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("q%.3f = %.0f, sorted slice says %.0f", q, got, want)
		}
	}
}

func TestHistMergeAndEmpty(t *testing.T) {
	var a, b hist
	if a.quantile(0.5) != 0 || a.mean() != 0 {
		t.Fatal("empty histogram must read 0")
	}
	a.add(10)
	b.add(30)
	a.merge(&b)
	if a.n != 2 || a.mean() != 20 {
		t.Fatalf("merged n, mean = %d, %v", a.n, a.mean())
	}
	a.reset()
	if a.n != 0 || a.quantile(1) != 0 {
		t.Fatal("reset left samples behind")
	}
}
