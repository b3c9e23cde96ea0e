package ld

import "slices"

// IDPool holds recyclable identifiers (block numbers or list ids) and
// hands back the lowest first, the rule NewBlock and NewList follow: a
// binary min-heap, O(log n) a push or pop. It has no lock of its own.
type IDPool[T ~uint32] struct {
	ids []T
}

// Push returns id to the pool.
func (p *IDPool[T]) Push(id T) {
	p.ids = append(p.ids, id)
	for i := len(p.ids) - 1; i > 0 && p.ids[(i-1)/2] > p.ids[i]; i = (i - 1) / 2 {
		p.ids[(i-1)/2], p.ids[i] = p.ids[i], p.ids[(i-1)/2]
	}
}

// Pop removes and returns the lowest pooled id.
func (p *IDPool[T]) Pop() (T, bool) {
	n := len(p.ids) - 1
	if n < 0 {
		return 0, false
	}
	low := p.ids[0]
	p.ids[0], p.ids = p.ids[n], p.ids[:n]
	for i, c := 0, 1; c < n; i, c = c, 2*c+1 {
		if c+1 < n && p.ids[c+1] < p.ids[c] {
			c++
		}
		if p.ids[i] <= p.ids[c] {
			break
		}
		p.ids[i], p.ids[c] = p.ids[c], p.ids[i]
	}
	return low, true
}

// Fill empties the pool and pools every id in [1, limit) that free
// reports. Ids pushed in ascending order never sift, so a fill is linear.
func (p *IDPool[T]) Fill(limit T, free func(T) bool) {
	p.ids = p.ids[:0]
	for id := T(1); id < limit; id++ {
		if free(id) {
			p.ids = append(p.ids, id)
		}
	}
}

// Sorted returns a copy of the pooled ids in ascending order.
func (p *IDPool[T]) Sorted() []T {
	s := slices.Clone(p.ids)
	slices.Sort(s)
	return s
}
