package lld

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
)

// requireChainMatchesSweep mounts two copies of a crash image, one by the
// checkpoint's chain and one by the full sweep, and fails unless they
// recover the same state.
func requireChainMatchesSweep(t *testing.T, img []byte, capacity int64, opts Options) {
	t.Helper()
	var copies [2]*disk.Disk
	for i := range copies {
		copies[i] = disk.New(disk.DefaultConfig(capacity))
		if err := copies[i].Restore(img); err != nil {
			t.Fatal(err)
		}
	}
	if err := CompareChainMount(copies[0], copies[1], opts); err != nil {
		t.Fatal(err)
	}
}

// mountImage mounts a copy of img and returns it with what recovery found.
func mountImage(t *testing.T, img []byte, capacity int64) (*disk.Disk, *LLD, RecoveryReport) {
	t.Helper()
	d := disk.New(disk.DefaultConfig(capacity))
	if err := d.Restore(img); err != nil {
		t.Fatal(err)
	}
	l, err := Open(d, testOptions())
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariants after recovery: %v", viol)
	}
	return d, l, l.RecoveryReport()
}

// crashImage cuts the power under l and returns the platter as the next
// mount finds it.
func crashImage(t *testing.T, d *disk.Disk, l *LLD) []byte {
	t.Helper()
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}
	return d.Snapshot()
}

// A chain segment the cleaner freed and the log opened again before a newer
// checkpoint overwrote a link the mount follows: the walk meets a segment
// opened with a later sequence number than it expects, and the mount falls
// back to the full sweep, which recovers everything acknowledged. Reusing
// the segment early also destroyed the records in its summary; the list
// they were added to is older than the checkpoint and every block they
// allocated was deleted since, so none of them is the newest record of
// anything.
func TestReusedChainSegmentSendsTheMountToTheFullSweep(t *testing.T) {
	const capacity = 4 << 20
	d, l := newTestLLD(t, capacity, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	l.mu.Lock()
	err := l.checkpoint()
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	v := l.cur.id // the chain's start
	want := make(map[ld.BlockID][]byte)
	var doomed, kept []ld.BlockID
	for i, prev := 0, ld.NilBlock; i < 30; i++ { // five segments
		b := mustNewBlock(t, l, lid, prev)
		if l.cur.id == v {
			doomed = append(doomed, b) // its tAlloc is in v's summary
		} else {
			kept = append(kept, b)
		}
		want[b] = bytes.Repeat([]byte{byte(i + 1)}, 4096)
		mustWrite(t, l, b, want[b])
		prev = b
	}
	for _, b := range doomed {
		if err := l.DeleteBlock(b, lid, ld.NilBlock); err != nil {
			t.Fatal(err)
		}
		delete(want, b)
	}
	if len(doomed) == 0 || len(kept) == 0 || l.segs[v].live != 0 {
		t.Fatalf("segment %d took %d of the blocks, and keeps %d live bytes", v, len(doomed), l.segs[v].live)
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	if err := cleanVictim(l, v); err != nil {
		t.Fatal(err)
	}
	// The hook: hand the held segment out again with no checkpoint taken,
	// as the segment the log opens next (the periodic checkpoints of a lap
	// of the disk would make its reuse legal).
	l.mu.Lock()
	if len(l.held) != 1 || l.held[0] != v {
		l.mu.Unlock()
		t.Fatalf("held %v after cleaning segment %d, want it alone", l.held, v)
	}
	l.held = l.held[:0]
	l.freeSegment(v)
	if l.cur == nil {
		err = l.openNewSegment()
	}
	l.succ, l.cur.next = v, uint32(v)
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	reopenSegment(t, l, v, func() {
		_, more := fillBlocks(t, l, 6)
		for b, data := range more {
			want[b] = data
		}
	})
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	img := crashImage(t, d, l)

	_, l2, rep := mountImage(t, img, capacity)
	if !strings.Contains(rep.FullSweep, "opened again") {
		t.Fatalf("mount went by %q (chain of %d), want the full sweep for a reused link", rep.FullSweep, rep.ChainSegments)
	}
	if rep.Degraded() {
		t.Fatalf("recovery quarantined %v", rep.QuarantinedSegments)
	}
	checkReads(t, l2, want)
	if got, err := l2.ListBlocks(lid); err != nil || !slices.Equal(got, kept) {
		t.Errorf("list %d recovered as %v, %v; want %v", lid, got, err, kept)
	}
	requireChainMatchesSweep(t, img, capacity, testOptions())
}

// A torn newer checkpoint leaves the older slot, whose chain still leads
// through every segment written since it: the mount follows that chain and
// recovers everything acknowledged.
func TestTornNewerCheckpointFallsBackToTheOlderChain(t *testing.T) {
	const capacity = 4 << 20
	d, l := newTestLLD(t, capacity, testOptions())
	checkpoint := func() (ts uint64, slot int) {
		l.mu.Lock()
		defer l.mu.Unlock()
		if err := l.checkpoint(); err != nil {
			t.Fatal(err)
		}
		return l.ckptTS, l.ckptSlot
	}
	want := make(map[ld.BlockID][]byte)
	fill := func() {
		_, w := fillBlocks(t, l, 12)
		for b, data := range w {
			want[b] = data
		}
	}
	fill()
	older, _ := checkpoint()
	fill()
	_, newerSlot := checkpoint()
	fill()
	img := crashImage(t, d, l)
	// Tear the newer checkpoint's payload, as a crash inside its write can.
	off := l.lay.checkpointOff + int64(newerSlot)*l.lay.checkpointSize + checkpointHeaderSize + 100
	img[off] ^= 0xFF

	_, l2, rep := mountImage(t, img, capacity)
	if rep.CheckpointTS != older || rep.FullSweep != "" {
		t.Fatalf("mount replayed over checkpoint @%d by %q, want the older @%d by its chain", rep.CheckpointTS, rep.FullSweep, older)
	}
	if rep.ChainSegments < 4 {
		t.Fatalf("chain of %d segments, want the four written since the older checkpoint", rep.ChainSegments)
	}
	checkReads(t, l2, want)
	requireChainMatchesSweep(t, img, capacity, testOptions())
}

// Rot in a segment sealed before the checkpoint is not the mount's to find:
// the chain does not visit it, and its payloads lie at or below the durable
// mark. Reads refuse the rotted block, Scrub reports it, and Verify, which
// trusts nothing, quarantines its segment.
func TestRotWhereTheChainDoesNotGoIsLeftToScrubAndVerify(t *testing.T) {
	const capacity = 4 << 20
	d, l := newTestLLD(t, capacity, testOptions())
	ids, want := fillBlocks(t, l, 12)
	l.mu.Lock()
	err := l.checkpoint()
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	fillBlocks(t, l, 6)
	victim := ids[1]
	seg := l.blockSeg(victim)
	dataOff := platterOff(l, victim)
	img := crashImage(t, d, l)
	for slot := 0; slot < 2; slot++ {
		off := l.lay.sumOff(seg, slot) + summaryHeaderSize + 4
		img[off] ^= 0xFF
	}
	img[dataOff+100] ^= 0xFF

	d2, l2, rep := mountImage(t, img, capacity)
	if rep.FullSweep != "" || rep.Degraded() {
		t.Fatalf("mount went by %q and quarantined %v; the rot is not on its path", rep.FullSweep, rep.QuarantinedSegments)
	}
	if _, err := l2.Read(victim, make([]byte, 4096)); !errors.Is(err, ld.ErrCorrupt) {
		t.Errorf("read of the rotted block returned %v, want ErrCorrupt", err)
	}
	delete(want, victim)
	checkReads(t, l2, want)
	res, err := l2.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Corrupt) != 1 || res.Corrupt[0] != victim {
		t.Errorf("Scrub found %v corrupt, want [%d]", res.Corrupt, victim)
	}
	if err := l2.Shutdown(false); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	faults, err := Verify(d2, &out)
	if err != nil {
		t.Fatal(err)
	}
	if faults != 1 || !strings.Contains(out.String(), "FAULT") {
		t.Errorf("Verify found %d faults:\n%s", faults, out.String())
	}
}

// A summary torn where the chain ends may have named a successor the log
// went on to: the walk cannot tell, so the mount sweeps, which takes the
// tear for the unacknowledged tail it is and recovers everything
// acknowledged.
func TestTornSummaryAtTheChainsEndSendsTheMountToTheFullSweep(t *testing.T) {
	const capacity = 4 << 20
	d, l := newTestLLD(t, capacity, testOptions())
	_, want := fillBlocks(t, l, 12)
	next := l.succ // the segment the log opens next
	img := crashImage(t, d, l)
	// The first sector of a summary the crash cut short: its header, over a
	// body that does not check.
	off := l.lay.sumOff(next, 0)
	le := binary.LittleEndian
	le.PutUint32(img[off:], summaryMagic)
	le.PutUint32(img[off+8:], uint32(next))
	le.PutUint64(img[off+12:], l.ts+10)
	img[off+summaryHeaderSize] = 0xFF

	_, l2, rep := mountImage(t, img, capacity)
	if !strings.Contains(rep.FullSweep, "torn where the chain ends") || rep.Degraded() {
		t.Fatalf("mount went by %q and quarantined %v, want the full sweep and no damage", rep.FullSweep, rep.QuarantinedSegments)
	}
	if rep.TornSlotsCleared != 1 {
		t.Errorf("%d torn slots cleared, want 1", rep.TornSlotsCleared)
	}
	checkReads(t, l2, want)
	requireChainMatchesSweep(t, img, capacity, testOptions())
}

// A chain segment whose summary the media refuses hides where the chain
// goes: the mount sweeps, and sets the segment aside as the sweep always
// has.
func TestUnreadableChainSummarySendsTheMountToTheFullSweep(t *testing.T) {
	const capacity = 4 << 20
	d, l := newTestLLD(t, capacity, testOptions())
	ids, _ := fillBlocks(t, l, 12)
	seg := l.blockSeg(ids[0])
	img := crashImage(t, d, l)
	d2 := disk.New(disk.DefaultConfig(capacity))
	if err := d2.Restore(img); err != nil {
		t.Fatal(err)
	}
	d2.InjectUnreadable(l.lay.sumOff(seg, 0)/int64(l.lay.sectorSize), 1)
	l2, err := Open(d2, testOptions())
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	rep := l2.RecoveryReport()
	if !strings.Contains(rep.FullSweep, "unreadable") {
		t.Fatalf("mount went by %q (chain of %d), want the full sweep", rep.FullSweep, rep.ChainSegments)
	}
	if len(rep.QuarantinedSegments) != 1 || rep.QuarantinedSegments[0].Seg != seg {
		t.Errorf("quarantined %v, want segment %d", rep.QuarantinedSegments, seg)
	}
}

// A segment opened while the free pool was empty names no successor, and
// the one the log opens after it is linked from nothing: the mount sweeps,
// and recovers what was flushed into that unlinked segment too.
func TestSegmentNamingNoSuccessorSendsTheMountToTheFullSweep(t *testing.T) {
	const capacity = 4 << 20
	d, l := newTestLLD(t, capacity, testOptions())
	_, want := fillBlocks(t, l, 3)
	// The hook: the free pool is empty while the open segment opens and
	// writes its one image.
	l.mu.Lock()
	l.cur.next, l.succ = noSegment, -1
	pool := l.freeSegs
	l.freeSegs = nil
	err := l.sealSegment()
	l.freeSegs = append(pool, l.freeSegs...)
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	_, more := fillBlocks(t, l, 4) // flushed into the segment opened next
	for b, data := range more {
		want[b] = data
	}
	if l.sealsSinceCkpt < checkpointEvery || l.ckptTS != 0 {
		t.Fatalf("setup: no unlinked segment open, or a checkpoint since the hook (floor %d)", l.ckptTS)
	}
	img := crashImage(t, d, l)

	_, l2, rep := mountImage(t, img, capacity)
	if !strings.Contains(rep.FullSweep, "names no successor") || rep.Degraded() {
		t.Fatalf("mount went by %q and quarantined %v, want the full sweep and no damage", rep.FullSweep, rep.QuarantinedSegments)
	}
	checkReads(t, l2, want)
	requireChainMatchesSweep(t, img, capacity, testOptions())
}
