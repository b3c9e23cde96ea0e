package lld

import (
	"bytes"
	"testing"

	"repro/internal/ld"
)

// TestReclaimQuarantinedRestoresCapacity: after mid-log rot quarantines
// a segment, salvage + reclaim must return the store to full capacity —
// the segment rejoins the free pool, the evidence slots are cleared so
// later recoveries see nothing to re-quarantine, and every salvaged
// block stays readable from its new home.
func TestReclaimQuarantinedRestoresCapacity(t *testing.T) {
	d, l2, target, want, _ := damagedImage(t)
	rep := l2.RecoveryReport()
	if len(rep.QuarantinedSegments) != 1 || rep.QuarantinedSegments[0].Seg != target {
		t.Fatalf("setup: quarantined %+v, want segment %d", rep.QuarantinedSegments, target)
	}
	if len(rep.DegradedBlocks) == 0 {
		t.Fatal("setup: need degraded blocks")
	}

	floor := l2.ckptTS
	res, err := l2.ReclaimQuarantined()
	if err != nil {
		t.Fatalf("reclaim: %v", err)
	}
	if len(res.Reclaimed) != 1 || res.Reclaimed[0] != target {
		t.Fatalf("reclaimed %v, want [%d]", res.Reclaimed, target)
	}
	if len(res.Stuck) != 0 {
		t.Fatalf("stuck segments: %v", res.Stuck)
	}
	salvaged := make(map[ld.BlockID]bool)
	for _, b := range res.Salvaged {
		salvaged[b] = true
	}
	for _, b := range rep.DegradedBlocks {
		if !salvaged[b] {
			t.Fatalf("degraded block %d not salvaged by reclaim", b)
		}
	}

	// Capacity restored: the segment is plain free space again (salvage
	// moved the blocks' bytes to the open log — that is live data, not
	// lost capacity) and nothing remains quarantined.
	if st := l2.segs[target].state; st != segFree {
		t.Fatalf("reclaimed segment state = %d, want segFree", st)
	}
	st := l2.Stats()
	if st.QuarantinedSegments != 0 {
		t.Fatalf("quarantine gauge = %d after reclaim", st.QuarantinedSegments)
	}
	if st.ReclaimedSegments != 1 {
		t.Fatalf("ReclaimedSegments = %d, want 1", st.ReclaimedSegments)
	}
	// Salvage re-homed the payloads; the blocks' existence and linkage,
	// which the quarantined slot was the last to state, are in the
	// checkpoint written before it was zeroed.
	if l2.ckptTS <= floor {
		t.Fatal("reclaim zeroed the slot with no checkpoint to hold the facts it stated")
	}
	for _, b := range rep.DegradedBlocks {
		if got := mustRead(t, l2, b); !bytes.Equal(got, want[b]) {
			t.Fatalf("block %d content wrong after reclaim", b)
		}
	}
	if viol := l2.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariants after reclaim: %v", viol)
	}

	// Idempotent: nothing left to reclaim.
	res, err = l2.ReclaimQuarantined()
	if err != nil || len(res.Reclaimed) != 0 || len(res.Salvaged) != 0 {
		t.Fatalf("second reclaim did work: %+v err=%v", res, err)
	}

	// The evidence is gone: a crash-restart must come up clean, with the
	// salvaged blocks intact in their new homes.
	l3 := reopenCrashed(t, d, l2)
	rep3 := l3.RecoveryReport()
	if rep3.Degraded() {
		t.Fatalf("recovery after reclaim still degraded: %+v", rep3)
	}
	for _, b := range rep.DegradedBlocks {
		if got := mustRead(t, l3, b); !bytes.Equal(got, want[b]) {
			t.Fatalf("block %d content wrong after reclaim+recovery", b)
		}
	}
	if viol := l3.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariants after reclaim+recovery: %v", viol)
	}
}

// TestReclaimAfterScrub: an earlier Scrub already salvaged the blocks;
// reclaim then only has to clear the evidence and free the segment.
func TestReclaimAfterScrub(t *testing.T) {
	_, l2, target, want, _ := damagedImage(t)
	rep := l2.RecoveryReport()
	if _, err := l2.Scrub(); err != nil {
		t.Fatal(err)
	}
	res, err := l2.ReclaimQuarantined()
	if err != nil {
		t.Fatalf("reclaim: %v", err)
	}
	if len(res.Reclaimed) != 1 || res.Reclaimed[0] != target {
		t.Fatalf("reclaimed %v, want [%d]", res.Reclaimed, target)
	}
	if len(res.Salvaged) != 0 {
		t.Fatalf("reclaim re-salvaged %v after scrub already did", res.Salvaged)
	}
	if st := l2.segs[target].state; st != segFree {
		t.Fatalf("reclaimed segment state = %d, want segFree", st)
	}
	for _, b := range rep.DegradedBlocks {
		if got := mustRead(t, l2, b); !bytes.Equal(got, want[b]) {
			t.Fatalf("block %d content wrong", b)
		}
	}
}

// TestReclaimRefusesUnsalvageableSegment: when a quarantined segment
// holds a block whose payload itself rotted, reclaim must leave the
// segment quarantined (reporting it stuck) rather than discard the
// block's last copy.
func TestReclaimRefusesUnsalvageableSegment(t *testing.T) {
	d, l2, target, want, _ := damagedImage(t)
	rep := l2.RecoveryReport()
	if len(rep.DegradedBlocks) < 2 {
		t.Fatal("setup: need at least two degraded blocks")
	}
	// Rot one degraded block's payload on the media.
	victim := rep.DegradedBlocks[0]
	bi := &l2.blocks[victim]
	d.CorruptRange(l2.lay.segOff(int(bi.seg))+int64(bi.off), int64(bi.stored), 0x01)

	res, err := l2.ReclaimQuarantined()
	if err != nil {
		t.Fatalf("reclaim: %v", err)
	}
	if len(res.Reclaimed) != 0 {
		t.Fatalf("reclaimed %v despite unsalvageable block", res.Reclaimed)
	}
	if len(res.Stuck) != 1 || res.Stuck[0] != target {
		t.Fatalf("stuck = %v, want [%d]", res.Stuck, target)
	}
	if st := l2.segs[target].state; st != segQuarantined {
		t.Fatalf("stuck segment state = %d, want segQuarantined", st)
	}
	if st := l2.Stats(); st.QuarantinedSegments != 1 {
		t.Fatalf("quarantine gauge = %d, want 1", st.QuarantinedSegments)
	}
	// The intact blocks were still salvaged and read fine.
	for _, b := range rep.DegradedBlocks[1:] {
		if got := mustRead(t, l2, b); !bytes.Equal(got, want[b]) {
			t.Fatalf("salvageable block %d not rescued", b)
		}
	}
}
