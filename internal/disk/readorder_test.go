package disk

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// readOrderRig is a disk whose arm has moved off its resting state, and a
// batch of reads scattered over it: some on the arm's cylinder, some far,
// one continuing the read buffer.
func readOrderRig(t *testing.T) (*Disk, []int64, []int) {
	t.Helper()
	d := New(testConfig(16 << 20))
	ss := int64(d.SectorSize())
	if err := d.WriteAt(make([]byte, 8*ss), 5000*ss); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadAt(make([]byte, 4*ss), 3000*ss); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var offs []int64
	var lens []int
	for i := 0; i < 24; i++ {
		sectors := int64(1 + rng.Intn(16))
		offs = append(offs, rng.Int63n(d.Capacity()/ss-sectors)*ss)
		lens = append(lens, int(sectors*ss))
	}
	return d, offs, lens
}

// positioning is the time a lone ReadAt of n bytes at off spends on
// everything but the transfer, from d's state; d is left as it was.
func positioning(t *testing.T, d *Disk, off int64, n int) time.Duration {
	t.Helper()
	c := New(d.cfg)
	c.arm = d.arm
	if err := c.ReadAt(make([]byte, n), off); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	return s.BusyTime() - s.TransferTime
}

func TestReadOrderChangesNothing(t *testing.T) {
	d, offs, lens := readOrderRig(t)
	arm, now, stats := d.arm, d.Now(), d.Stats()
	order := d.ReadOrder(offs, lens)
	if d.arm != arm || d.Now() != now || d.Stats() != stats {
		t.Fatalf("ReadOrder moved the disk: arm %+v -> %+v, now %v -> %v, stats %+v -> %+v",
			arm, d.arm, now, d.Now(), stats, d.Stats())
	}
	got := slices.Clone(order)
	slices.Sort(got)
	if !slices.Equal(got, InOrder(len(offs))) {
		t.Fatalf("order %v is not a permutation of %d reads", order, len(offs))
	}
	if slices.Equal(order, InOrder(len(offs))) {
		t.Fatal("a scattered batch came back in the order given: the test shows nothing")
	}
}

func TestReadOrderIsDeterministic(t *testing.T) {
	d, offs, lens := readOrderRig(t)
	e, _, _ := readOrderRig(t)
	first := d.ReadOrder(offs, lens)
	if again := d.ReadOrder(offs, lens); !slices.Equal(first, again) {
		t.Fatalf("two queries from one state: %v and %v", first, again)
	}
	if twin := e.ReadOrder(offs, lens); !slices.Equal(first, twin) {
		t.Fatalf("two disks in one state: %v and %v", first, twin)
	}
}

// TestReadOrderFirstPickIsSoonest: the first pick positions no slower than
// any other read of the batch would if it were issued alone, and the
// schedule as a whole spends no more time than the order given.
func TestReadOrderFirstPickIsSoonest(t *testing.T) {
	d, offs, lens := readOrderRig(t)
	order := d.ReadOrder(offs, lens)
	first := positioning(t, d, offs[order[0]], lens[order[0]])
	for i := range offs {
		if p := positioning(t, d, offs[i], lens[i]); p < first {
			t.Errorf("read %d positions in %v, the first pick (%d) in %v", i, p, order[0], first)
		}
	}
	busy := func(order []int) time.Duration {
		c := New(d.cfg)
		c.arm = d.arm
		for _, i := range order {
			if err := c.ReadAt(make([]byte, lens[i]), offs[i]); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats().BusyTime()
	}
	if got, given := busy(order), busy(InOrder(len(offs))); got > given {
		t.Errorf("the schedule took %v, the order given %v", got, given)
	}
}

// TestReadOrderPrunesNothingItNeeds: the scan outward from the arm picks
// what stepping the model through every read left at every pick picks, on
// batches given in any order, some reads named twice.
func TestReadOrderPrunesNothingItNeeds(t *testing.T) {
	d, _, _ := readOrderRig(t)
	ss := int64(d.SectorSize())
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		var offs []int64
		var lens []int
		for i, n := 0, 1+rng.Intn(60); i < n; i++ {
			if i > 0 && rng.Intn(8) == 0 {
				offs, lens = append(offs, offs[rng.Intn(i)]), append(lens, lens[rng.Intn(i)])
				continue
			}
			n := int64(1 + rng.Intn(200))
			offs = append(offs, rng.Int63n(d.Capacity()/ss-n)*ss)
			lens = append(lens, int(n*ss))
		}
		var want []int
		left, a := InOrder(len(offs)), d.arm
		for len(left) > 0 {
			best, bestCost, bestArm := 0, time.Duration(-1), a
			for j, i := range left {
				var ph Stats
				next := d.service(a, offs[i]/ss, int64(lens[i])/ss, true, &ph)
				if c := ph.BusyTime() - ph.TransferTime; bestCost < 0 || c < bestCost {
					best, bestCost, bestArm = j, c, next
				}
			}
			want, a = append(want, left[best]), bestArm
			left = slices.Delete(left, best, best+1)
		}
		if got := d.ReadOrder(offs, lens); !slices.Equal(got, want) {
			t.Fatalf("trial %d: order %v, every step taken gives %v", trial, got, want)
		}
	}
}

func TestReadOrderPicksTheBufferContinuation(t *testing.T) {
	d := New(testConfig(16 << 20))
	ss := int64(d.SectorSize())
	if err := d.ReadAt(make([]byte, 4*ss), 640*ss); err != nil { // sectors 0-3 of track 10
		t.Fatal(err)
	}
	offs := []int64{650 * ss, 9000 * ss, 700 * ss, 644 * ss}
	lens := []int{int(2 * ss), int(2 * ss), int(8 * ss), int(4 * ss)}
	if order := d.ReadOrder(offs, lens); order[0] != 3 {
		t.Fatalf("order %v: the read the track buffer continues (3) is not first", order)
	}
}

func TestReadOrderSmallBatches(t *testing.T) {
	d := New(testConfig(1 << 20))
	if order := d.ReadOrder(nil, nil); len(order) != 0 {
		t.Errorf("empty batch: order %v", order)
	}
	if order := d.ReadOrder([]int64{4096}, []int{512}); !slices.Equal(order, []int{0}) {
		t.Errorf("one read: order %v", order)
	}
}

func TestWBCacheReadOrderIsTheOrderGiven(t *testing.T) {
	d, offs, lens := readOrderRig(t)
	if slices.Equal(d.ReadOrder(offs, lens), InOrder(len(offs))) {
		t.Fatal("the platter keeps this batch's order: the test shows nothing")
	}
	c := NewWBCache(d, NewRail())
	if order := c.ReadOrder(offs, lens); !slices.Equal(order, InOrder(len(offs))) {
		t.Errorf("write-back cache ordered the batch %v", order)
	}
}

// BenchmarkReadOrder times the query on a file system's largest batch: 384
// single-block reads scattered over a 128-MB disk, in platter order.
func BenchmarkReadOrder(b *testing.B) {
	d := New(testConfig(128 << 20))
	rng := rand.New(rand.NewSource(1))
	offs, lens := make([]int64, 384), make([]int, 384)
	for i := range offs {
		offs[i], lens[i] = rng.Int63n(d.Capacity()/4096)*4096, 4096
	}
	slices.Sort(offs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ReadOrder(offs, lens)
	}
}
