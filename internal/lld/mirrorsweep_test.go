package lld

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/mdisk"
)

// mirrorImage is a crashed image of a two-leg mirror whose open segment seg
// was flushed four more times after the blocks that sealed the segments
// before it, so each of its slots was rewritten twice. older holds leg 1's
// copies of both slots from after the second of those flushes: writing one
// back builds what a crash between the legs of a slot write leaves, an
// older valid generation on one leg.
type mirrorImage struct {
	legs   [2][]byte
	lay    layout
	seg    int
	newest int // the slot the last flush wrote
	older  [2][]byte
	want   map[ld.BlockID][]byte
}

func buildMirrorImage(t *testing.T) *mirrorImage {
	t.Helper()
	legs, _, l := newMirrorLLD(t, testOptions())
	ids, want := fillBlocks(t, l, 20)
	im := &mirrorImage{lay: l.lay, seg: l.cur.id, want: want}
	prev := ids[len(ids)-1]
	lid := l.blocks[prev].lid
	for flush := 1; flush <= 4; flush++ {
		b := mustNewBlock(t, l, lid, prev)
		data := bytes.Repeat([]byte{byte(0xA0 + flush)}, 100)
		mustWrite(t, l, b, data)
		want[b], prev = data, b
		im.newest = l.cur.slot
		if err := l.Flush(ld.FailPower); err != nil {
			t.Fatal(err)
		}
		if flush == 2 {
			for slot := range im.older {
				im.older[slot] = make([]byte, l.lay.summarySize)
				if err := legs[1].ReadAt(im.older[slot], l.lay.sumOff(im.seg, slot)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if l.cur == nil || l.cur.id != im.seg {
		t.Fatalf("the flushes left segment %d", im.seg)
	}
	for slot, old := range im.older {
		cur := make([]byte, l.lay.summarySize)
		if err := legs[1].ReadAt(cur, l.lay.sumOff(im.seg, slot)); err != nil {
			t.Fatal(err)
		}
		was, err1 := decodeSummary(old, l.lay, im.seg)
		now, err2 := decodeSummary(cur, l.lay, im.seg)
		if err1 != nil || err2 != nil || was.writeTS >= now.writeTS {
			t.Fatalf("slot %d: older copy %v, current %v; want two generations", slot, err1, err2)
		}
	}
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}
	for i, d := range legs {
		im.legs[i] = d.Snapshot()
	}
	return im
}

// mount restores the image onto fresh legs, lets damage alter them, and
// mounts the mirror with open.
func (im *mirrorImage) mount(t *testing.T, damage func([]*disk.Disk, *mdisk.Mirror), open func(disk.Backend, Options) (*LLD, error)) ([]*disk.Disk, *LLD) {
	t.Helper()
	legs := make([]*disk.Disk, len(im.legs))
	for i, img := range im.legs {
		legs[i] = disk.New(disk.DefaultConfig(4 << 20))
		if err := legs[i].Restore(img); err != nil {
			t.Fatal(err)
		}
	}
	m, err := mdisk.NewMirror(legs[0], legs[1])
	if err != nil {
		t.Fatal(err)
	}
	if damage != nil {
		damage(legs, m)
	}
	for _, d := range legs {
		d.ResetStats()
	}
	l, err := open(m, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	return legs, l
}

// olderOnLeg1 writes leg 1's older copy of slot back over it.
func (im *mirrorImage) olderOnLeg1(t *testing.T, slot int) func([]*disk.Disk, *mdisk.Mirror) {
	return func(legs []*disk.Disk, _ *mdisk.Mirror) {
		if err := legs[1].WriteAt(im.older[slot], im.lay.sumOff(im.seg, slot)); err != nil {
			t.Fatal(err)
		}
	}
}

// slotsAgree fails t unless both of seg's summary slots hold the same
// bytes on both legs.
func slotsAgree(t *testing.T, legs []*disk.Disk, lay layout, seg int) {
	t.Helper()
	for slot := 0; slot < 2; slot++ {
		var copies [2][]byte
		for i := range copies {
			copies[i] = make([]byte, lay.summarySize)
			if err := legs[i].ReadAt(copies[i], lay.sumOff(seg, slot)); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(copies[0], copies[1]) {
			t.Errorf("segment %d slot %d differs between the legs after the mount", seg, slot)
		}
	}
}

// A slot holding an older valid generation on one leg is healed to the
// newest by the mount whichever leg the mirror's read rotation offers
// first: the adopted generation is checked on every live copy, not read
// from the first that passes. One extra read before Open flips the
// rotation's parity for every request the mount makes.
func TestMirrorMountHealsOlderGenerationAtEitherRotation(t *testing.T) {
	im := buildMirrorImage(t)
	for extra := 0; extra < 2; extra++ {
		older := im.olderOnLeg1(t, im.newest)
		legs, l := im.mount(t, func(legs []*disk.Disk, m *mdisk.Mirror) {
			older(legs, m)
			for i := 0; i < extra; i++ {
				if err := m.ReadAt(make([]byte, m.SectorSize()), 0); err != nil {
					t.Fatal(err)
				}
			}
		}, Open)
		slotsAgree(t, legs, im.lay, im.seg)
		checkReads(t, l, im.want)
		if l.Stats().SelfHeals == 0 {
			t.Errorf("%d extra reads: the mount healed nothing", extra)
		}
	}
}

// mountOutcome is what a mount decided and left behind.
type mountOutcome struct {
	report RecoveryReport
	lists  map[ld.ListID][]ld.BlockID
	data   map[ld.BlockID][]byte
	legs   [][]byte
}

func outcomeOf(t *testing.T, legs []*disk.Disk, l *LLD) mountOutcome {
	t.Helper()
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariants after the mount: %v", viol)
	}
	o := mountOutcome{report: l.RecoveryReport(), lists: make(map[ld.ListID][]ld.BlockID), data: make(map[ld.BlockID][]byte)}
	// What the mount chose, not how long it took or which path it took there.
	o.report.SweepTime, o.report.VerifyTime, o.report.DivergentSegments = 0, 0, 0
	for _, d := range legs {
		o.legs = append(o.legs, d.Snapshot())
	}
	lids, err := l.Lists()
	if err != nil {
		t.Fatal(err)
	}
	for _, lid := range lids {
		bs, err := l.ListBlocks(lid)
		if err != nil {
			t.Fatal(err)
		}
		o.lists[lid] = bs
		for _, b := range bs {
			o.data[b] = mustRead(t, l, b)
		}
	}
	return o
}

// The identical-copies rule decides nothing: on every crafted shape of
// mirror image a mount gives the report, the state, the block contents and
// the leg bytes that one sending every segment down the per-slot
// adopt-and-heal path gives. Only segments whose copies differ, or could not
// all be read, take that path.
func TestMirrorSweepFastPathIsPerSlotPath(t *testing.T) {
	im := buildMirrorImage(t)
	segs := im.lay.nSegments
	cases := []struct {
		name      string
		damage    func([]*disk.Disk, *mdisk.Mirror)
		divergent int
	}{
		{"identical legs", nil, 0},
		{"older generation in slot 0", im.olderOnLeg1(t, 0), 1},
		{"older generation in slot 1", im.olderOnLeg1(t, 1), 1},
		{"torn slot on one leg", func(legs []*disk.Disk, _ *mdisk.Mirror) {
			legs[1].CorruptRange(im.lay.sumOff(im.seg, im.newest)+summaryHeaderSize, 8, 0x5a)
		}, 1},
		{"unreadable summary sector on one leg", func(legs []*disk.Disk, _ *mdisk.Mirror) {
			legs[1].InjectUnreadable(im.lay.sumOff(im.seg, im.newest)/int64(im.lay.sectorSize), 1)
		}, 1},
		{"one leg failed", func(_ []*disk.Disk, m *mdisk.Mirror) { m.FailReplica(1) }, segs},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fastLegs, fast := im.mount(t, c.damage, Open)
			refLegs, ref := im.mount(t, c.damage, OpenPerSlot)
			reads := [2]int64{fastLegs[0].Stats().Reads, fastLegs[1].Stats().Reads}
			refReads := [2]int64{refLegs[0].Stats().Reads, refLegs[1].Stats().Reads}
			if got := fast.RecoveryReport().DivergentSegments; got != c.divergent {
				t.Errorf("DivergentSegments = %d, want %d", got, c.divergent)
			}
			if got := ref.RecoveryReport().DivergentSegments; got != segs {
				t.Fatalf("the per-slot mount took that path for %d of %d segments", got, segs)
			}
			got, want := outcomeOf(t, fastLegs, fast), outcomeOf(t, refLegs, ref)
			if !reflect.DeepEqual(got.report, want.report) {
				t.Errorf("report %+v, per-slot path %+v", got.report, want.report)
			}
			if !reflect.DeepEqual(got.lists, want.lists) || !reflect.DeepEqual(got.data, want.data) {
				t.Errorf("recovered state differs from the per-slot path's")
			}
			for b, data := range im.want {
				if !bytes.Equal(got.data[b], data) {
					t.Errorf("block %d reads %d bytes, want its last write", b, len(got.data[b]))
				}
			}
			for i := range got.legs {
				if !bytes.Equal(got.legs[i], want.legs[i]) {
					t.Errorf("leg %d after the mount differs from the per-slot path's", i)
				}
			}
			if c.damage == nil {
				// One summary-area read per leg per segment, and a few for the
				// superblock and the checkpoint headers.
				for i, n := range reads {
					if n > int64(segs)+8 {
						t.Errorf("leg %d served %d reads for %d segments", i, n, segs)
					}
				}
				t.Logf("reads per leg: %v for %d segments (per-slot path: %v)", reads, segs, refReads)
			}
		})
	}
}
