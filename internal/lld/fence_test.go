package lld

import (
	"bytes"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
)

// TestAbortFenceKeepsDiscardedARUDead reproduces the cross-boot
// resurrection hazard: an atomic recovery unit whose records reached disk
// (inside a sealed segment) but whose commit did not is discarded by the
// next recovery. Committed records written by the following boot carry
// later timestamps, and without the abort fence a second recovery would
// apply the dead unit's records after all ("a committed record with a
// later timestamp exists"), silently undoing state the intervening boot
// had built on. The fence makes the first discard permanent.
func TestAbortFenceKeepsDiscardedARUDead(t *testing.T) {
	o := testOptions()
	d := disk.New(disk.DefaultConfig(8 << 20))
	if err := Format(d, o); err != nil {
		t.Fatal(err)
	}
	l, err := Open(d, o)
	if err != nil {
		t.Fatal(err)
	}

	// Boot 1: a committed list with one block, flushed durable.
	victim := mustNewList(t, l, ld.NilList, ld.ListHints{})
	vb := mustNewBlock(t, l, victim, ld.NilBlock)
	payload := bytes.Repeat([]byte{0xAB}, 2048)
	mustWrite(t, l, vb, payload)
	filler := mustNewList(t, l, ld.NilList, ld.ListHints{})
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}

	// An ARU deletes the list, then writes enough filler inside the same
	// unit to seal at least one segment — the uncommitted records become
	// durable without their commit. The "crash" abandons the unit.
	if err := l.BeginARU(); err != nil {
		t.Fatal(err)
	}
	if err := l.DeleteBlock(vb, victim, ld.NilBlock); err != nil {
		t.Fatal(err)
	}
	if err := l.DeleteList(victim, ld.NilList); err != nil {
		t.Fatal(err)
	}
	pred := ld.NilBlock
	for i := 0; i < 3*o.SegmentSize/4096; i++ {
		b := mustNewBlock(t, l, filler, pred)
		mustWrite(t, l, b, bytes.Repeat([]byte{byte(i)}, 4096))
		pred = b
	}
	if l.Stats().SegmentsSealed == 0 {
		t.Fatal("test needs the in-ARU records sealed to disk")
	}
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}

	// Recovery 1 discards the incomplete unit: the victim list survives.
	l, err = Open(d, o)
	if err != nil {
		t.Fatal(err)
	}
	if l.Stats().RecoveryDiscards == 0 {
		t.Fatal("recovery discarded nothing; the ARU records never hit disk")
	}
	if _, err := l.ListBlocks(victim); err != nil {
		t.Fatalf("discarded deletion must leave the list intact: %v", err)
	}
	if got := mustRead(t, l, vb); !bytes.Equal(got, payload) {
		t.Fatal("block content lost with the discarded ARU")
	}

	// Boot 2 commits unrelated work with later timestamps, then crashes.
	other := mustNewList(t, l, ld.NilList, ld.ListHints{})
	ob := mustNewBlock(t, l, other, ld.NilBlock)
	mustWrite(t, l, ob, bytes.Repeat([]byte{7}, 1024))
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}

	// Recovery 2: without the fence, boot 2's committed records would
	// resurrect the dead deletion and orphan the victim's block.
	l, err = Open(d, o)
	if err != nil {
		t.Fatal(err)
	}
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariants after second recovery: %v", viol)
	}
	if _, err := l.ListBlocks(victim); err != nil {
		t.Fatalf("dead ARU resurrected across boots: %v", err)
	}
	if got := mustRead(t, l, vb); !bytes.Equal(got, payload) {
		t.Fatal("victim block corrupted after second recovery")
	}
	if err := l.Shutdown(true); err != nil {
		t.Fatal(err)
	}
}

// TestAbortFenceSurvivesCleaning: the fence lives in a segment summary,
// which the cleaner may retire but the log does not reuse before a
// checkpoint whose floor lies above the dead window; otherwise a recovery
// after cleaning would resurrect the dead unit.
func TestAbortFenceSurvivesCleaning(t *testing.T) {
	o := testOptions()
	d := disk.New(disk.DefaultConfig(8 << 20))
	if err := Format(d, o); err != nil {
		t.Fatal(err)
	}
	l, err := Open(d, o)
	if err != nil {
		t.Fatal(err)
	}

	victim := mustNewList(t, l, ld.NilList, ld.ListHints{})
	vb := mustNewBlock(t, l, victim, ld.NilBlock)
	mustWrite(t, l, vb, bytes.Repeat([]byte{0xCD}, 2048))
	filler := mustNewList(t, l, ld.NilList, ld.ListHints{})
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	if err := l.BeginARU(); err != nil {
		t.Fatal(err)
	}
	if err := l.DeleteBlock(vb, victim, ld.NilBlock); err != nil {
		t.Fatal(err)
	}
	if err := l.DeleteList(victim, ld.NilList); err != nil {
		t.Fatal(err)
	}
	pred := ld.NilBlock
	for i := 0; i < 3*o.SegmentSize/4096; i++ {
		b := mustNewBlock(t, l, filler, pred)
		mustWrite(t, l, b, bytes.Repeat([]byte{byte(i)}, 4096))
		pred = b
	}
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}

	l, err = Open(d, o)
	if err != nil {
		t.Fatal(err)
	}
	// Boot 2: overwrite the filler list repeatedly so the fence's segment
	// goes cold and the cleaner picks it, then clean aggressively.
	blocks, err := l.ListBlocks(filler)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		for _, b := range blocks {
			mustWrite(t, l, b, bytes.Repeat([]byte{byte(round)}, 4096))
		}
		if err := l.Flush(ld.FailPower); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Clean(l.SegmentCount()); err != nil {
		t.Fatal(err)
	}
	if l.Stats().SegmentsCleaned == 0 {
		t.Skip("cleaner found no victims; fence persistence not exercised")
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}

	l, err = Open(d, o)
	if err != nil {
		t.Fatal(err)
	}
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariants: %v", viol)
	}
	if _, err := l.ListBlocks(victim); err != nil {
		t.Fatalf("fence lost during cleaning; dead ARU resurrected: %v", err)
	}
	if err := l.Shutdown(true); err != nil {
		t.Fatal(err)
	}
}
