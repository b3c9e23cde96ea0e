package ld

import (
	"math/rand"
	"slices"
	"testing"
)

// TestIDPoolPopsLowestFirst holds the pool against a sorted model through
// random interleavings of pushes, pops and fills.
func TestIDPoolPopsLowestFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var p IDPool[BlockID]
	var model []BlockID
	for step := range 20000 {
		switch op := rng.Intn(100); {
		case op < 55:
			id := BlockID(1 + rng.Intn(500))
			if !slices.Contains(model, id) {
				p.Push(id)
				model = append(model, id)
				slices.Sort(model)
			}
		case op < 99:
			got, ok := p.Pop()
			if ok != (len(model) > 0) {
				t.Fatalf("step %d: Pop ok=%v with %d pooled", step, ok, len(model))
			}
			if ok {
				if got != model[0] {
					t.Fatalf("step %d: Pop = %d, want %d", step, got, model[0])
				}
				model = model[1:]
			}
		default:
			limit := BlockID(rng.Intn(300))
			p.Fill(limit, func(b BlockID) bool { return b%3 != 0 })
			model = model[:0]
			for b := BlockID(1); b < limit; b++ {
				if b%3 != 0 {
					model = append(model, b)
				}
			}
		}
		if got := p.Sorted(); !slices.Equal(got, model) {
			t.Fatalf("step %d: pool holds %v, want %v", step, got, model)
		}
	}
}
