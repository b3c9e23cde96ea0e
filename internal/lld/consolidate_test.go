package lld

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/ld"
)

// TestConsolidationCheckpointFloor exercises the consolidation path
// directly: state captured by a consolidation checkpoint survives a crash
// even after the cleaner drops the original records.
func TestConsolidationCheckpointFloor(t *testing.T) {
	d, l := newTestLLD(t, 8<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	var ids []ld.BlockID
	prev := ld.NilBlock
	for i := 0; i < 60; i++ {
		b := mustNewBlock(t, l, lid, prev)
		mustWrite(t, l, b, bytes.Repeat([]byte{byte(i)}, 1024))
		ids = append(ids, b)
		prev = b
	}
	// Checkpoint (this also partial-writes the open segment).
	l.mu.Lock()
	err := l.checkpoint()
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if l.Stats().Consolidations != 1 {
		t.Fatalf("%d checkpoints counted, want 1", l.Stats().Consolidations)
	}
	if l.ckptTS == 0 {
		t.Fatal("consolidation did not set the floor")
	}
	want := captureState(t, l)

	// More (unflushed) activity, then crash: recovery must come back to at
	// least the consolidated state; the unflushed tail is lost.
	b := mustNewBlock(t, l, lid, ids[len(ids)-1])
	mustWrite(t, l, b, []byte("volatile"))

	l2 := crashAndRecover(t, d, l)
	diffState(t, want, captureState(t, l2), "consolidation floor")
	if l2.ckptTS == 0 {
		t.Fatal("recovered instance lost the checkpoint floor")
	}
}

// TestConsolidationThenMoreWritesThenCrash covers the floor+replay path:
// records newer than the checkpoint must still be replayed by the sweep.
func TestConsolidationThenMoreWritesThenCrash(t *testing.T) {
	d, l := newTestLLD(t, 8<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	a := mustNewBlock(t, l, lid, ld.NilBlock)
	mustWrite(t, l, a, []byte("pre-checkpoint"))
	l.mu.Lock()
	err := l.checkpoint()
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint committed-and-flushed activity.
	b := mustNewBlock(t, l, lid, a)
	mustWrite(t, l, b, []byte("post-checkpoint"))
	if err := l.DeleteBlock(a, lid, ld.NilBlock); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, l)
	l2 := crashAndRecover(t, d, l)
	diffState(t, want, captureState(t, l2), "floor plus replay")
	// And a second crash generation on top.
	c := mustNewBlock(t, l2, lid, b)
	mustWrite(t, l2, c, []byte("gen2"))
	if err := l2.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	want2 := captureState(t, l2)
	l3 := crashAndRecover(t, d, l2)
	diffState(t, want2, captureState(t, l3), "second generation after floor")
}

// TestCleanerFutilityTriggersConsolidation reproduces the pathological
// fact-dense workload: many long-lived blocks whose data is repeatedly
// overwritten. Without consolidation the cleaner cannot make progress;
// with it, the run completes and at least one consolidation is recorded.
func TestCleanerFutilityTriggersConsolidation(t *testing.T) {
	o := testOptions()
	_, l := newTestLLD(t, 6<<20, o)
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	var ids []ld.BlockID
	prev := ld.NilBlock
	// Fill half the usable space with long-lived blocks.
	data := bytes.Repeat([]byte{1}, 4096)
	for l.LiveBytes() < l.UsableBytes()/2 {
		b, err := l.NewBlock(lid, prev)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Write(b, data); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, b)
		prev = b
	}
	// Overwrite a small hot subset many times: segments fill with the
	// survivors' immortal alloc facts.
	for round := 0; round < 200; round++ {
		for i := 0; i < 8; i++ {
			if err := l.Write(ids[i], data); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	st := l.Stats()
	if st.Consolidations == 0 {
		t.Log("no consolidation was needed at this scale; loosening is fine, but check the workload still cleans")
	}
	if st.SegmentsCleaned == 0 {
		t.Fatal("cleaner never ran under sustained overwrites")
	}
	// Everything must still be readable.
	for i, b := range ids {
		buf := make([]byte, 4096)
		n, err := l.Read(b, buf)
		if err != nil || n != 4096 {
			t.Fatalf("block %d: n=%d err=%v", i, n, err)
		}
	}
}

// TestShutdownCheckpointDemotion: after a fast restart the complete flag is
// demoted, so a crash then recovers through the sweep while the checkpoint
// still floors everything before the shutdown.
func TestShutdownCheckpointDemotion(t *testing.T) {
	d, l := newTestLLD(t, 8<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	a := mustNewBlock(t, l, lid, ld.NilBlock)
	mustWrite(t, l, a, []byte("before shutdown"))
	if err := l.Shutdown(true); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(d, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if l2.Stats().RecoverySweepSegments != 0 {
		t.Fatal("fast restart swept")
	}
	// New work after restart, flushed, then crash.
	b := mustNewBlock(t, l2, lid, a)
	mustWrite(t, l2, b, []byte("after restart"))
	if err := l2.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, l2)
	l3 := crashAndRecover(t, d, l2)
	diffState(t, want, captureState(t, l3), "demoted checkpoint")
}

// TestManyGenerationsWithConsolidations runs several flush/crash/recover
// generations with explicit consolidations in between.
func TestManyGenerationsWithConsolidations(t *testing.T) {
	d, l := newTestLLD(t, 8<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	prev := ld.NilBlock
	for gen := 0; gen < 5; gen++ {
		for i := 0; i < 10; i++ {
			b := mustNewBlock(t, l, lid, prev)
			mustWrite(t, l, b, []byte(fmt.Sprintf("gen%d-%d", gen, i)))
			prev = b
		}
		if gen%2 == 0 {
			l.mu.Lock()
			err := l.checkpoint()
			l.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
		} else if err := l.Flush(ld.FailPower); err != nil {
			t.Fatal(err)
		}
		want := captureState(t, l)
		l = crashAndRecover(t, d, l)
		diffState(t, want, captureState(t, l), fmt.Sprintf("generation %d", gen))
		// The recovered instance must keep working.
		blocks, err := l.ListBlocks(lid)
		if err != nil {
			t.Fatal(err)
		}
		prev = blocks[len(blocks)-1]
	}
}

// TestTornCheckpointFallsBackToOlderSlot: the two checkpoint pointer slots
// alternate, so a checkpoint whose payload does not read back must not
// disable checkpoint recovery altogether — the previous slot's checkpoint
// still covers every fact the cleaner has dropped so far.
func TestTornCheckpointFallsBackToOlderSlot(t *testing.T) {
	d, l := newTestLLD(t, 8<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	a := mustNewBlock(t, l, lid, ld.NilBlock)
	mustWrite(t, l, a, []byte("covered by checkpoint one"))
	l.mu.Lock()
	err := l.checkpoint()
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	olderTS := l.ckptTS

	b := mustNewBlock(t, l, lid, a)
	mustWrite(t, l, b, []byte("covered by checkpoint two"))
	l.mu.Lock()
	err = l.checkpoint()
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	newerSlot := l.ckptSlot
	if l.ckptTS <= olderTS {
		t.Fatal("second checkpoint did not advance the floor")
	}
	want := captureState(t, l)
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}

	// Corrupt one payload byte of the newer checkpoint (its pointer left
	// intact, so slot selection still prefers it and must fall back on the
	// extent's CRC).
	if l.ckptSlot != newerSlot {
		t.Fatal("the newer checkpoint is not the newest")
	}
	at, _ := newestPayloadAt(t, l)
	ss := int64(d.SectorSize())
	sector := make([]byte, ss)
	if err := d.ReadAt(sector, at/ss*ss); err != nil {
		t.Fatal(err)
	}
	sector[at%ss] ^= 0xFF
	if err := d.WriteAt(sector, at/ss*ss); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(d, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if l2.ckptTS != olderTS {
		t.Fatalf("fell back to floor %d, want the older checkpoint's %d", l2.ckptTS, olderTS)
	}
	// The sweep replays everything past the older floor, so the full state
	// still comes back.
	diffState(t, want, captureState(t, l2), "older-slot fallback")
	if viol := l2.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariants: %v", viol)
	}
}
