package lld

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
)

// The durable watermark: which writes advance it, what a summary may claim,
// and which segments the mount's read-back then visits. The oracle for "the
// bounded pass misses nothing" is the unbounded per-block pass
// (OpenPerBlockVerify); extent_diff_test.go holds the two against each other
// on every torture crash image and on random power-cut histories.

// cachedRig is a write-back cache in front of a fresh platter: the backend on
// which "WriteAt returned" is not "durable", and on which the mark moves only
// when lld itself drains.
type cachedRig struct {
	plat *disk.Disk
	rail *disk.PowerRail
	c    *disk.WBCache
}

func newCachedLLD(t *testing.T, capacity int64, opts Options) (*cachedRig, *LLD) {
	t.Helper()
	r := &cachedRig{plat: disk.New(disk.DefaultConfig(capacity)), rail: disk.NewRail()}
	r.c = disk.NewWBCache(r.plat, r.rail)
	if err := Format(r.c, opts); err != nil {
		t.Fatalf("format: %v", err)
	}
	l, err := Open(r.c, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return r, l
}

// powerCutDropping ends the run with a power cut whose only casualties are
// the sectors at offs: the drive had destaged every other cached sector on
// its own, which lld never asked for and knows nothing about. pristine is the
// platter as it was before the lost writes were issued.
func (r *cachedRig) powerCutDropping(t *testing.T, pristine []byte, offs ...int64) {
	t.Helper()
	if err := r.rail.SyncAll(); err != nil {
		t.Fatal(err)
	}
	img := r.plat.Snapshot()
	ss := int64(r.plat.SectorSize())
	for _, off := range offs {
		off = off / ss * ss
		copy(img[off:off+ss], pristine[off:off+ss])
	}
	if err := r.plat.Restore(img); err != nil {
		t.Fatal(err)
	}
	r.rail.PowerLoss(1)
	r.rail.Restart()
}

// segAt returns the segment whose data area or summary slots hold platter
// offset off, -1 if off lies before the segments.
func segAt(l *LLD, off int64) int {
	if off < l.lay.segmentsOff {
		return -1
	}
	return int((off - l.lay.segmentsOff) / int64(l.lay.segmentSize))
}

// dataReads returns, per segment, the requests among ops that fall in its
// data area.
func dataReads(l *LLD, ops []ioOp) map[int][]ioOp {
	out := make(map[int][]ioOp)
	for _, o := range ops {
		if seg := segAt(l, o.off); seg >= 0 && o.off < l.lay.sumOff(seg, 0) {
			out[seg] = append(out[seg], o)
		}
	}
	return out
}

// On a write-through disk every completed seal is durable when it returns
// and the next summary says so: after k seals and a crash the mount reads
// data back from the segment the crash left open, and from no other.
func TestMountReadsBackOnlyTheUndurableTail(t *testing.T) {
	opts := segIOOptions()
	_, rec, l := newLoggedLLD(t, opts)
	perSeg := l.lay.dataCap() / 4096
	ids, want := fillBlocks(t, l, 4*perSeg+perSeg/3) // four seals, and a flushed third of a fifth
	if n := l.Stats().SegmentsSealed; n != 4 {
		t.Fatalf("%d segments sealed, want 4", n)
	}
	tail := int(l.blocks[ids[len(ids)-1]].seg)
	if l.cur == nil || l.cur.id != tail {
		t.Fatalf("the last block is in segment %d, which is not the open one", tail)
	}
	running := l.Stats().DurableMark // the flush's own stamp: durable when it returned
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}

	rec.take('r')
	l2, err := Open(rec, opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	reads := dataReads(l2, rec.take('r'))
	if len(reads) != 1 || len(reads[tail]) == 0 {
		t.Errorf("the mount read data from segments %v, want only the open segment %d", reads, tail)
	}
	rep := l2.RecoveryReport()
	if rep.Degraded() {
		t.Fatalf("recovery quarantined %v", rep.QuarantinedSegments)
	}
	// The flush's summary carries the mark as it stood before its own
	// writes: the fourth seal's stamp. The flush itself advanced the running
	// mark further, which no summary got to advertise.
	if rep.DurableMark == 0 || rep.DurableMark >= running || l2.segs[tail].ts != running {
		t.Errorf("mount found mark %d; the crashed instance stood at %d and segment %d is stamped %d",
			rep.DurableMark, running, tail, l2.segs[tail].ts)
	}
	if rep.VerifySegments != 1 || rep.VerifySkippedSegments != 4 {
		t.Errorf("read back %d segments and skipped %d, want 1 and 4", rep.VerifySegments, rep.VerifySkippedSegments)
	}
	if rep.VerifiedBlocks != int64(perSeg/3) || rep.VerifySkippedBlocks != int64(4*perSeg) {
		t.Errorf("verified %d blocks and skipped %d, want %d and %d",
			rep.VerifiedBlocks, rep.VerifySkippedBlocks, perSeg/3, 4*perSeg)
	}
	if s := l2.Stats(); s.VerifySkippedSegments != 4 || s.DurableMark != rep.DurableMark {
		t.Errorf("Stats: %d segments skipped, mark %d; the report says 4 and %d", s.VerifySkippedSegments, s.DurableMark, rep.DurableMark)
	}
	if viol := l2.CheckInvariants(); len(viol) != 0 {
		t.Errorf("invariants: %v", viol)
	}
	checkReads(t, l2, want)
}

// A drive with a volatile cache that lld never drained has vouched for
// nothing: the mark found is 0 and the read-back visits every mapped block,
// as it did before there was a mark. lld drains before a segment's first
// summary write, so the first segment's seal is the last write nothing
// drained before.
func TestNeverDrainedCacheIsVerifiedInFull(t *testing.T) {
	r, l := newCachedLLD(t, 4<<20, testOptions())
	pristine := r.plat.Snapshot()
	ids, want := fillBlocks(t, l, 6) // one 24-KB data area
	if s := l.Stats(); s.SegmentsSealed != 1 || s.DurableMark != 0 {
		t.Fatalf("%d seals, running mark %d; want one seal and no drain", s.SegmentsSealed, s.DurableMark)
	}
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}
	r.powerCutDropping(t, pristine)

	l2, err := Open(r.c, testOptions())
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	rep := l2.RecoveryReport()
	if rep.DurableMark != 0 || rep.VerifySkippedSegments != 0 || rep.VerifySkippedBlocks != 0 {
		t.Errorf("mark %d, %d segments / %d blocks skipped on a cache that was never drained",
			rep.DurableMark, rep.VerifySkippedSegments, rep.VerifySkippedBlocks)
	}
	if rep.VerifiedBlocks != int64(len(ids)) || rep.Degraded() {
		t.Errorf("verified %d of %d blocks, quarantined %v", rep.VerifiedBlocks, len(ids), rep.QuarantinedSegments)
	}
	checkReads(t, l2, want)
}

// Battery-backed memory is not the platter: a flush it absorbs leaves the
// mark where it was, and the seal that later writes those bytes moves it.
func TestNVRAMFlushDoesNotAdvanceTheMark(t *testing.T) {
	opts := segIOOptions()
	opts.NVRAMBytes = 64 << 10
	_, rec, l := newLoggedLLD(t, opts)
	openSegmentOf(t, l)
	flushOddBlocks(t, rec, l, 3)
	if s := l.Stats(); s.NVRAMFlushes != 3 || s.PartialWrites != 0 || s.DurableMark != 0 {
		t.Fatalf("NVRAMFlushes=%d PartialWrites=%d mark=%d, want 3, 0 and no mark", s.NVRAMFlushes, s.PartialWrites, s.DurableMark)
	}
	seg := l.cur.id
	fillAndSeal(t, rec, l, 24)
	if got, want := l.Stats().DurableMark, l.segs[seg].ts; got != want {
		t.Errorf("mark %d after the seal, want its stamp %d", got, want)
	}
}

// A segment that shows a torn slot had a write in flight and is read back
// whatever its surviving summary is stamped. The state is fabricated — a
// slot claiming a stamp beyond the log's end beside a summary at or below
// the mark, which lld's own write order does not leave — and the rule is a
// second line of defence; the control mount shows what the mark alone
// decides, and who then catches the bad block.
func TestTornSlotForcesReadBackBelowTheMark(t *testing.T) {
	opts := segIOOptions()
	d, rec, l := newLoggedLLD(t, opts)
	seg := openSegmentOf(t, l)
	flushOddBlocks(t, rec, l, 1) // slot 0 now holds a partial image; the seal goes to slot 1
	fillAndSeal(t, rec, l, 20)
	ids, _ := fillBlocks(t, l, 2*l.lay.dataCap()/4096) // later seals advertise the mark past seg
	var victim ld.BlockID
	for b := ld.BlockID(1); b < l.nextFresh; b++ {
		if bi := &l.blocks[b]; bi.allocated() && int(bi.seg) == seg && bi.stored == 4096 {
			victim = b
			break
		}
	}
	if victim == 0 {
		t.Fatalf("segment %d holds no 4-KB block", seg)
	}
	bad := platterOff(l, victim) + 512
	stale := l.lay.sumOff(seg, 0)
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}
	d.CorruptRange(bad, 512, 0x5A) // the sector a dropped write would have left wrong
	img := d.Snapshot()

	// Control: the segment is at or below the mark and left alone; the read
	// path's checksum is what refuses the block.
	l2, err := Open(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep := l2.RecoveryReport(); rep.Degraded() || l2.segs[seg].ts > rep.DurableMark {
		t.Fatalf("control: quarantined %v; segment %d stamped %d, mark %d", rep.QuarantinedSegments, seg, l2.segs[seg].ts, rep.DurableMark)
	}
	if _, err := l2.Read(victim, make([]byte, 4096)); !errors.Is(err, ld.ErrCorrupt) {
		t.Errorf("control: read of the damaged block returned %v, want ErrCorrupt from the payload checksum", err)
	}
	if err := l2.Shutdown(false); err != nil {
		t.Fatal(err)
	}

	// The same image with the stale slot torn: a header claiming a stamp no
	// intact summary reaches, over a body that no longer checks.
	if err := d.Restore(img); err != nil {
		t.Fatal(err)
	}
	d.CorruptRange(stale+12, 8, 0x7F) // the write timestamp at bytes 12..19
	d.CorruptRange(stale+int64(summaryHeaderSize), 64, 0xFF)
	l3, err := Open(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := l3.RecoveryReport()
	if rep.TornSlotsCleared != 1 {
		t.Fatalf("%d torn slots cleared, want 1 (quarantined: %v)", rep.TornSlotsCleared, rep.QuarantinedSegments)
	}
	if len(rep.QuarantinedSegments) != 1 || rep.QuarantinedSegments[0].Seg != seg {
		t.Errorf("quarantined %v, want exactly segment %d: it showed a torn slot and must be read back", rep.QuarantinedSegments, seg)
	}
	if l3.segs[int(l3.blocks[ids[0]].seg)].state != segLive {
		t.Error("a later segment was quarantined too")
	}
}

// A segment the mount quarantined for lost data stays above the mark for as
// long as it is quarantined: what its summary describes is not all on the
// platter, whatever drains came later. Were the mark to pass it, the next
// unclean mount would take it on trust — back in service and within the
// cleaner's reach, its loss unreported.
func TestMarkStopsBelowAQuarantinedSegment(t *testing.T) {
	r, l := newCachedLLD(t, 4<<20, testOptions())
	pristine := r.plat.Snapshot()
	ids, _ := fillBlocks(t, l, 30)
	victim := ids[len(ids)-3] // in the last segment sealed: nothing drained it
	seg := int(l.blocks[victim].seg)
	off := platterOff(l, victim)
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}
	r.powerCutDropping(t, pristine, off+int64(r.plat.SectorSize()))

	l2, err := Open(r.c, testOptions())
	if err != nil {
		t.Fatalf("first recovery: %v", err)
	}
	if q := l2.RecoveryReport().QuarantinedSegments; len(q) != 1 || q[0].Seg != seg {
		t.Fatalf("first recovery quarantined %v, want segment %d", q, seg)
	}
	// The instance runs on: seals, drains, and summaries that advertise
	// what the drains covered.
	var want map[ld.BlockID][]byte
	for round := 0; round < 3; round++ {
		_, want = fillBlocks(t, l2, 20)
		l2.mu.Lock()
		err := l2.dskSync()
		l2.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	stamp := l2.segs[seg].ts
	if mark := l2.Stats().DurableMark; mark == 0 || mark >= stamp {
		t.Fatalf("running mark %d; want it to have advanced, but to below the quarantined segment's stamp %d", mark, stamp)
	}
	if err := l2.Shutdown(false); err != nil {
		t.Fatal(err)
	}
	r.powerCutDropping(t, nil) // this cut loses nothing

	l3, err := Open(r.c, testOptions())
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	rep := l3.RecoveryReport()
	if len(rep.QuarantinedSegments) != 1 || rep.QuarantinedSegments[0].Seg != seg {
		t.Errorf("second recovery quarantined %v, want segment %d again", rep.QuarantinedSegments, seg)
	}
	if rep.DurableMark == 0 || rep.DurableMark >= stamp {
		t.Errorf("second recovery found mark %d, want one below the quarantined segment's stamp %d", rep.DurableMark, stamp)
	}
	if _, err := l3.Read(victim, make([]byte, 4096)); !errors.Is(err, ld.ErrCorrupt) {
		t.Errorf("read of the lost block: %v, want ErrCorrupt", err)
	}
	checkReads(t, l3, want)
}

// syncLog is ioLog over a backend with a volatile cache: it records the
// drains too.
type syncLog struct{ ioLog }

func (b *syncLog) Sync() error {
	b.ops = append(b.ops, ioOp{op: 's'})
	return b.Backend.(disk.Syncer).Sync()
}

// No segment is written again after it was cleaned without a drain in
// between — whichever way it was freed. A victim with nothing live used to
// go straight back to the free pool, and being the
// last one freed was the next one opened: behind a volatile cache the
// segment whose records superseded the victim's could still be undrained, a
// power cut could drop it and keep the reuse, and the newest durable version
// of every block the victim had held was gone. The mark's argument rests on
// the same rule: only then does no mapped block point into an overwritten
// generation of a segment stamped at or below it.
func TestCleanedSegmentIsNotReusedBeforeADrain(t *testing.T) {
	opts := testOptions()
	rec := &syncLog{ioLog{Backend: disk.NewWBCache(disk.New(disk.DefaultConfig(1<<20)), disk.NewRail())}}
	if err := Format(rec, opts); err != nil {
		t.Fatal(err)
	}
	l, err := Open(rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Six hot blocks, a segment's worth, allocated before the cold filler
	// that leaves the free pool at the cleaner's watermark: each round of
	// overwrites then empties the previous round's segment, whose summary
	// holds nothing but superseded data locations.
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	var hot []ld.BlockID
	for i := 0; i < l.lay.dataCap()/4096; i++ {
		hot = append(hot, mustNewBlock(t, l, lid, ld.NilBlock))
	}
	for len(l.freeSegs) > cleanHigh {
		mustWrite(t, l, mustNewBlock(t, l, lid, ld.NilBlock), bytes.Repeat([]byte{0xC0}, 4096))
	}
	rec.take('w')
	for round := 1; round <= 12; round++ {
		for _, b := range hot {
			mustWrite(t, l, b, bytes.Repeat([]byte{byte(round)}, 4096))
		}
	}
	if n := l.Stats().SegmentsCleaned; n < 8 {
		t.Fatalf("%d segments cleaned over 12 rounds; the scenario did not reach the cleaner", n)
	}

	cleaned := make(map[int]bool) // victims read by the cleaner since the last drain
	reused := 0
	for _, o := range rec.ops {
		seg := segAt(l, o.off)
		switch {
		case o.op == 's':
			clear(cleaned)
		case seg < 0:
			// superblock and checkpoint region
		case o.op == 'r' && o.n == 2*l.lay.summarySize && o.off == l.lay.sumOff(seg, 0):
			cleaned[seg] = true
		case o.op == 'w' && cleaned[seg]:
			t.Fatalf("segment %d was written again after it was cleaned, with no drain in between", seg)
		case o.op == 'w':
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("no segment write was logged")
	}
}
