package lld

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
)

// fillBlocks appends n 4-KB blocks of distinct contents to a new list and
// makes them durable.
func fillBlocks(t *testing.T, l *LLD, n int) ([]ld.BlockID, map[ld.BlockID][]byte) {
	t.Helper()
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	want := make(map[ld.BlockID][]byte, n)
	var ids []ld.BlockID
	prev := ld.NilBlock
	for i := 0; i < n; i++ {
		b := mustNewBlock(t, l, lid, prev)
		data := bytes.Repeat([]byte{byte(i + 1)}, 4096)
		data[0] = byte(i >> 8)
		mustWrite(t, l, b, data)
		want[b] = data
		ids = append(ids, b)
		prev = b
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	return ids, want
}

// platterOff is the absolute byte offset of b's stored payload.
func platterOff(l *LLD, b ld.BlockID) int64 {
	bi := &l.blocks[b]
	return l.lay.segOff(l.segOf(bi)) + int64(l.offOf(bi))
}

// neighbours returns two of ids that share a segment.
func neighbours(t *testing.T, l *LLD, ids []ld.BlockID) (x, y ld.BlockID) {
	t.Helper()
	for i := 1; i < len(ids); i++ {
		if l.blockSeg(ids[i-1]) == l.blockSeg(ids[i]) {
			return ids[i-1], ids[i]
		}
	}
	t.Fatal("no two blocks share a segment")
	return 0, 0
}

// A mirror whose leg 0 tore block X and leg 1 tore block Y, both inside
// one extent: no copy of the extent verifies as a whole, the per-block
// check heals each from the other leg, and nothing is quarantined.
func TestVerifyCrossLegTearsHealOnBothLegs(t *testing.T) {
	opts := testOptions()
	legs, m, l := newMirrorLLD(t, opts)
	ids, want := fillBlocks(t, l, 12)
	x, y := neighbours(t, l, ids)
	offX, offY := platterOff(l, x), platterOff(l, y)
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}
	legs[0].CorruptRange(offX+100, 64, 0xFF)
	legs[1].CorruptRange(offY+100, 64, 0xFF)

	l2, err := Open(m, opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	rep := l2.RecoveryReport()
	if rep.Degraded() {
		t.Fatalf("recovery quarantined %v", rep.QuarantinedSegments)
	}
	if rep.VerifyFallbacks != 1 {
		t.Errorf("VerifyFallbacks = %d, want 1 (the torn extent)", rep.VerifyFallbacks)
	}
	if h := m.Stats().Heals; h != 2 {
		t.Errorf("mirror healed %d copies, want 2", h)
	}
	if h := l2.Stats().SelfHeals; h != 2 {
		t.Errorf("SelfHeals = %d, want 2", h)
	}
	buf := make([]byte, 4096)
	for i, leg := range legs {
		for _, b := range []ld.BlockID{x, y} {
			if err := leg.ReadAt(buf, platterOff(l2, b)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, want[b]) {
				t.Errorf("leg %d still holds a bad copy of block %d", i, b)
			}
		}
	}
	for b, data := range want {
		if got := mustRead(t, l2, b); !bytes.Equal(got, data) {
			t.Errorf("block %d reads wrong after recovery", b)
		}
	}
}

// A latent read fault in the dead bytes between two live blocks fails the
// extent read that spans it, and only that: the blocks on either side
// verify one by one and the segment stays in service.
func TestVerifyUnreadableDeadGapDoesNotQuarantine(t *testing.T) {
	d, l := newTestLLD(t, 4<<20, testOptions())
	ids, want := fillBlocks(t, l, 3)
	if s := l.blockSeg(ids[0]); s != l.blockSeg(ids[2]) {
		t.Fatalf("blocks spread over segments %d and %d", s, l.blockSeg(ids[2]))
	}
	gap := platterOff(l, ids[1]) // dead once the block is rewritten elsewhere
	want[ids[1]] = bytes.Repeat([]byte{0xEE}, 4096)
	mustWrite(t, l, ids[1], want[ids[1]])
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	if platterOff(l, ids[1]) == gap {
		t.Fatal("rewrite did not move the block")
	}
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}
	d.InjectUnreadable(gap/int64(d.SectorSize())+1, 1)

	l2, err := Open(d, testOptions())
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	rep := l2.RecoveryReport()
	if rep.Degraded() {
		t.Fatalf("recovery quarantined %v over an unreadable dead sector", rep.QuarantinedSegments)
	}
	if rep.VerifyFallbacks == 0 {
		t.Error("the extent over the bad sector did not fall back; the fault was not in its path")
	}
	for b, data := range want {
		if got := mustRead(t, l2, b); !bytes.Equal(got, data) {
			t.Errorf("block %d reads wrong after recovery", b)
		}
	}
}

// A summary that outlived a data sector in the middle of a long extent
// still quarantines that segment, and no other. The loss is one a power cut
// can cause: the image sits behind a write-back cache that lld has not
// drained since the seal, so no mark covers the segment, and the cut drops
// one of its sectors. lld drains before a segment's first summary write, so
// that is the last segment sealed.
func TestVerifyDataLossMidExtentQuarantinesItsSegment(t *testing.T) {
	r, l := newCachedLLD(t, 4<<20, testOptions())
	pristine := r.plat.Snapshot()
	ids, _ := fillBlocks(t, l, 30) // five 24-KB data areas' worth
	victim := ids[len(ids)-3]
	seg := l.blockSeg(victim)
	if st, mark := l.segs[seg].state, l.Stats().DurableMark; st != segLive || mark >= l.segs[seg].ts {
		t.Fatalf("segment %d: state %d, stamped %d, mark %d; want it sealed and above the mark", seg, st, l.segs[seg].ts, mark)
	}
	off := platterOff(l, victim)
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}
	r.powerCutDropping(t, pristine, off+int64(r.plat.SectorSize()))

	l2, err := Open(r.c, testOptions())
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	rep := l2.RecoveryReport()
	if len(rep.QuarantinedSegments) != 1 || rep.QuarantinedSegments[0].Seg != seg {
		t.Fatalf("quarantined %v, want exactly segment %d", rep.QuarantinedSegments, seg)
	}
	if rep.VerifyExtents >= rep.VerifiedBlocks {
		t.Errorf("%d extents for %d blocks: nothing was coalesced", rep.VerifyExtents, rep.VerifiedBlocks)
	}
	buf := make([]byte, l2.MaxBlockSize())
	for _, b := range ids {
		_, err := l2.Read(b, buf)
		if inSeg := l2.blockSeg(b) == seg; inSeg != errors.Is(err, ld.ErrCorrupt) {
			t.Errorf("block %d (in the lost segment: %v) read: %v", b, inSeg, err)
		}
	}
}

// Scrub over an image with a tenth of its blocks dead reads each live
// segment in a request or two and counts what a block-by-block walk of
// the map counts.
func TestScrubReadsLiveSegmentsInExtents(t *testing.T) {
	d, l := newTestLLD(t, 8<<20, testOptions())
	ids, _ := fillBlocks(t, l, 200)
	for i := 0; i < len(ids); i += 10 { // leave a 4-KB hole in every tenth place
		mustWrite(t, l, ids[i], bytes.Repeat([]byte{0xD0}, 4096))
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}

	var want ScrubResult
	liveSegs := make(map[int]bool)
	for _, b := range ids {
		bi := &l.blocks[b]
		if st := l.segs[l.segOf(bi)].state; st != segLive {
			continue // still in an open segment: served from memory, not scrubbed
		}
		liveSegs[l.segOf(bi)] = true
		want.Blocks++
		want.Bytes += int64(bi.stored)
	}
	for i := range l.segs {
		if l.segs[i].state == segLive {
			want.Segments++
		}
	}
	if len(liveSegs) < 20 {
		t.Fatalf("only %d live segments; the test wants a real walk", len(liveSegs))
	}

	before := d.Stats().Reads
	got, err := l.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	reads := d.Stats().Reads - before
	if got.Segments != want.Segments || got.Blocks != want.Blocks || got.Bytes != want.Bytes ||
		len(got.Corrupt) != 0 || len(got.Repaired) != 0 {
		t.Errorf("scrub reported %+v, want %+v", got, want)
	}
	if max := int64(2 * len(liveSegs)); reads > max {
		t.Errorf("scrub issued %d backend reads over %d live segments, want at most %d", reads, len(liveSegs), max)
	}
	s := l.Stats()
	if s.VerifyExtents != reads || s.VerifiedBlocks != int64(want.Blocks) || s.VerifyFallbacks != 0 {
		t.Errorf("stats: %d extents %d blocks %d fallbacks; disk saw %d reads of %d blocks",
			s.VerifyExtents, s.VerifiedBlocks, s.VerifyFallbacks, reads, want.Blocks)
	}
}

// flakyWrites fails the next n WriteAt calls with a transient error.
type flakyWrites struct {
	disk.Backend
	n atomic.Int64
}

func (f *flakyWrites) WriteAt(p []byte, off int64) error {
	if f.n.Add(-1) >= 0 {
		return disk.ErrTransient
	}
	return f.Backend.WriteAt(p, off)
}

// A write the backend fails transiently is retried, and counted as a write
// retry — not, as it used to be, as a read retry.
func TestTransientWriteErrorsAreRetried(t *testing.T) {
	f := &flakyWrites{Backend: disk.New(disk.DefaultConfig(4 << 20))}
	opts := testOptions()
	if err := Format(f, opts); err != nil {
		t.Fatal(err)
	}
	l, err := Open(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	b := mustNewBlock(t, l, lid, ld.NilBlock)
	data := bytes.Repeat([]byte{0x42}, 4096)
	mustWrite(t, l, b, data)
	f.n.Store(1)
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatalf("flush through one transient write fault: %v", err)
	}
	if s := l.Stats(); s.WriteRetries != 1 || s.ReadRetries != 0 {
		t.Fatalf("WriteRetries=%d ReadRetries=%d, want 1 and 0", s.WriteRetries, s.ReadRetries)
	}
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, l2, b); !bytes.Equal(got, data) {
		t.Fatal("block written through a transient fault reads wrong after recovery")
	}
}
