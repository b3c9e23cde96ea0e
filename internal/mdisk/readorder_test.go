package mdisk

import (
	"slices"
	"testing"

	"repro/internal/disk"
)

// TestReadOrderIsTheOrderGiven: a mirror and a stripe leave a batch in the
// order given, where one of their legs alone would reorder it, and empty
// and one-read batches come back as they are.
func TestReadOrderIsTheOrderGiven(t *testing.T) {
	const capacity = 8 << 20
	offs := []int64{6 << 20, 1 << 20, 4 << 20, 512, 3 << 20}
	lens := []int{4096, 512, 8192, 1024, 2048}
	leg := disk.New(disk.DefaultConfig(capacity))
	if slices.Equal(leg.ReadOrder(offs, lens), disk.InOrder(len(offs))) {
		t.Fatal("a single platter keeps this batch's order: the test shows nothing")
	}
	mirror, err := NewMirror(testDisks(t, 2, capacity)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct {
		name string
		b    disk.Backend
	}{
		{"mirror", mirror},
		{"stripe", newTestStripe(t, 3, capacity)},
	} {
		for n := 0; n <= len(offs); n++ {
			if order := b.b.ReadOrder(offs[:n], lens[:n]); !slices.Equal(order, disk.InOrder(n)) {
				t.Errorf("%s: %d reads ordered %v", b.name, n, order)
			}
		}
	}
}
