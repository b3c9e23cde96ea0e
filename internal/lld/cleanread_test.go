package lld

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/ld"
)

// These tests hold the cleaner's reads to the batch reader's contract
// (readStoredBatch): a victim's rotted bytes are refused or healed, never
// re-homed under a fresh checksum, and a cleaning pass leaves the
// foreground reader's read-ahead stream as it found it.

// cleanPicks runs Clean(1) after checking that the victim it will pick is
// victim.
func cleanPicks(t *testing.T, l *LLD, victim int) error {
	t.Helper()
	l.mu.Lock()
	picked := l.pickVictim()
	l.mu.Unlock()
	if picked != victim {
		t.Fatalf("the cleaner would pick segment %d, want %d", picked, victim)
	}
	_, err := l.Clean(1)
	return err
}

// On one platter a rotted live block has no good copy: Clean stops with
// the CorruptError a Read of it reports, the victim stays live, and the
// block is still refused where it was rather than rewritten under a
// checksum of the rotted bytes.
func TestCleanerRefusesARottedBlock(t *testing.T) {
	d, _, l := newLoggedLLD(t, segIOOptions())
	victim, want := hollowVictim(t, l, 2, 3, 20, 22)
	live := liveOf(l, victim)
	bad := live[2]
	d.CorruptRange(platterOff(l, bad)+100, 64, 0xFF)

	before := l.Stats()
	err := cleanPicks(t, l, victim)
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Block != bad {
		t.Fatalf("Clean: %v, want a CorruptError naming block %d", err, bad)
	}
	if s := &l.segs[victim]; s.state != segLive || l.blockSeg(bad) != victim {
		t.Fatalf("segment %d in state %d, block %d in segment %d; want the victim live and the block left in it",
			victim, s.state, bad, l.blockSeg(bad))
	}
	if _, err := l.Read(bad, make([]byte, 4096)); !errors.As(err, &ce) || ce.Block != bad {
		t.Fatalf("Read(%d) after cleaning: %v, want it still refused", bad, err)
	}
	if s := l.Stats(); s.SegmentsCleaned != before.SegmentsCleaned {
		t.Errorf("SegmentsCleaned +%d, want 0", s.SegmentsCleaned-before.SegmentsCleaned)
	}
	delete(want, bad)
	checkReads(t, l, want)
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatal(viol)
	}
}

// On a 2-way mirror leg 0's copy of one victim block and leg 1's copy of
// its neighbour are rotted, so whichever leg serves their extent holds one
// bad block. Clean moves the good bytes of both, heals the bad copy it
// saw, and every block reads back intact.
func TestCleanerMovesAMirroredBlocksGoodCopy(t *testing.T) {
	legs, _, l := newMirrorLLD(t, segIOOptions())
	victim, want := hollowVictim(t, l, 2, 3, 20, 22)
	live := liveOf(l, victim)
	x, y := live[0], live[1]
	legs[0].CorruptRange(platterOff(l, x)+100, 64, 0xFF)
	legs[1].CorruptRange(platterOff(l, y)+100, 64, 0xFF)

	before := l.Stats()
	if err := cleanPicks(t, l, victim); err != nil {
		t.Fatalf("Clean: %v", err)
	}
	s := l.Stats()
	if s.SegmentsCleaned != before.SegmentsCleaned+1 || s.BlocksMoved != before.BlocksMoved+int64(len(live)) {
		t.Errorf("cleaned %d segments and moved %d blocks, want 1 and %d",
			s.SegmentsCleaned-before.SegmentsCleaned, s.BlocksMoved-before.BlocksMoved, len(live))
	}
	if s.SelfHeals == before.SelfHeals {
		t.Error("SelfHeals did not rise: the bad copy was not seen")
	}
	if s.CorruptReads != before.CorruptReads {
		t.Errorf("CorruptReads +%d for blocks with a good copy", s.CorruptReads-before.CorruptReads)
	}
	for _, b := range live {
		if l.blockSeg(b) == victim {
			t.Errorf("block %d was not moved", b)
		}
	}
	checkReads(t, l, want)
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatal(viol)
	}
}

// liveOf returns the blocks the map places in segment seg, ascending.
func liveOf(l *LLD, seg int) []ld.BlockID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.liveIn(seg, l.segs[seg].names)
}

// A reader's stream is confirmed by two batches that continue each other.
// A cleaning pass that moves blocks between them and the next batch leaves
// it alone: that batch is still served by a window fill.
func TestCleaningLeavesTheReadersStreamAlone(t *testing.T) {
	_, _, l := newLoggedLLD(t, segIOOptions())
	stream, want := fillBlocks(t, l, l.lay.dataCap()/4096)
	seg := l.blockSeg(stream[0])
	if s := &l.segs[seg]; s.state != segLive || l.blockSeg(stream[len(stream)-1]) != seg {
		t.Fatal("the stream is not in one sealed segment")
	}
	victim, _ := hollowVictim(t, l, 2, 3, 20, 22)

	readOne(t, l, stream[0], want[stream[0]])
	readOne(t, l, stream[1], want[stream[1]])
	before := l.Stats()
	if err := cleanPicks(t, l, victim); err != nil {
		t.Fatal(err)
	}
	if s := l.Stats(); s.BlocksMoved == before.BlocksMoved {
		t.Fatal("the cleaning pass moved nothing")
	}
	before = l.Stats()
	readOne(t, l, stream[2], want[stream[2]])
	if s := l.Stats(); s.ReadaheadWindows != before.ReadaheadWindows+1 {
		t.Errorf("the batch after the cleaning pass read %d windows, want 1", s.ReadaheadWindows-before.ReadaheadWindows)
	}
	before = l.Stats()
	readOne(t, l, stream[3], want[stream[3]])
	if s := l.Stats(); s.ReadaheadHits != before.ReadaheadHits+1 {
		t.Errorf("the next batch was not served from the window (hits +%d)", s.ReadaheadHits-before.ReadaheadHits)
	}
}

// A mount from a clean shutdown's checkpoint decodes no summary, yet each
// live segment is named by the blocks the checkpoint places there: the
// cleaner finds a victim's blocks without a scan of the map, and a window
// over a segment sealed before the checkpoint stops at its last live byte.
// A block SwapContents re-homes there afterwards is not named, and the
// cleaner's scan of the map still finds it.
func TestCheckpointMountNamesEachSegmentsBlocks(t *testing.T) {
	opts := segIOOptions()
	_, rec, l := newLoggedLLD(t, opts)
	victim, want := hollowVictim(t, l, 2, 3, 20, 22)
	kept := liveOf(l, victim)
	if err := l.Shutdown(true); err != nil {
		t.Fatal(err)
	}
	l, err := Open(rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if l.Stats().RecoverySweepSegments != 0 {
		t.Fatal("the mount swept: want a checkpoint mount")
	}
	s := &l.segs[victim]
	if s.ts > l.ckptTS || s.mapped != int32(len(kept)) {
		t.Fatalf("segment %d stamped %d (checkpoint %d) with %d blocks; want one sealed before the checkpoint holding %d",
			victim, s.ts, l.ckptTS, s.mapped, len(kept))
	}
	names := make([]ld.BlockID, len(s.names))
	for i, b := range s.names {
		names[i] = ld.BlockID(b)
	}
	if !slices.Equal(names, kept) {
		t.Fatalf("segment %d is named %v after the mount, want %v", victim, names, kept)
	}
	if got, end := l.liveEnd(int32(victim)), blockEnd(l, kept[len(kept)-1]); got != end || got >= uint32(l.lay.dataCap()) {
		t.Errorf("liveEnd(%d) = %d, want %d, the end of its last block", victim, got, end)
	}

	// SwapContents gives a block named nowhere in the victim a home there.
	other := ld.BlockID(0)
	for b, data := range want {
		if l.blockSeg(b) != victim && !bytes.Equal(data, want[kept[0]]) {
			other = b
			break
		}
	}
	if err := l.SwapContents(kept[0], other); err != nil {
		t.Fatal(err)
	}
	want[kept[0]], want[other] = want[other], want[kept[0]]
	if l.blockSeg(other) != victim || slices.Contains(s.names, uint32(other)) {
		t.Fatalf("block %d in segment %d, named there: %v; want it swapped in and unnamed", other, l.blockSeg(other), slices.Contains(s.names, uint32(other)))
	}
	if err := cleanPicks(t, l, victim); err != nil {
		t.Fatal(err)
	}
	if s.state == segLive {
		t.Fatalf("segment %d is still live after cleaning", victim)
	}
	checkReads(t, l, want)
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatal(viol)
	}
}

// CheckInvariants holds a segment's names to its summary on the platter
// unless the mount named it from the checkpoint it loaded: a segment this
// instance sealed stays held to its summary after a checkpoint covers it,
// and one named from the checkpoint is still held to ascending order.
func TestInvariantsHoldNamesPastACheckpoint(t *testing.T) {
	opts := segIOOptions()
	_, rec, l := newLoggedLLD(t, opts)
	victim, _ := hollowVictim(t, l, 2, 3, 20, 22)
	l.mu.Lock()
	err := l.checkpoint()
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	s := &l.segs[victim]
	if s.ts > l.ckptTS || s.ts <= l.namedTS {
		t.Fatalf("segment %d stamped %d (checkpoint %d, named to %d); want one this instance sealed before the checkpoint", victim, s.ts, l.ckptTS, l.namedTS)
	}
	names := s.names
	s.names = names[:len(names)-1]
	if viol := l.CheckInvariants(); len(viol) == 0 {
		t.Errorf("segment %d named %v, not its summary's %v: no violation reported", victim, s.names, names)
	}
	s.names = names
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatal(viol)
	}

	if err := l.Shutdown(true); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(rec, opts); err != nil {
		t.Fatal(err)
	}
	s = &l.segs[victim]
	if s.ts > l.namedTS || len(s.names) < 2 {
		t.Fatalf("segment %d stamped %d with %d names after the mount; want it named from the checkpoint (%d)", victim, s.ts, len(s.names), l.namedTS)
	}
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatal(viol)
	}
	s.names[0], s.names[1] = s.names[1], s.names[0]
	if viol := l.CheckInvariants(); len(viol) == 0 {
		t.Errorf("segment %d named %v, out of order: no violation reported", victim, s.names)
	}
}
