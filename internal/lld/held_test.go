package lld

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/ld"
)

// No checkpoint is taken inside an atomic recovery unit, so segments held
// for the next one stay held until the unit ends (the reuse rule). These
// tests hold both units to the rule that replaces releasing them early: a
// unit that begins with the pool low takes the checkpoint first, and one
// that runs the pool dry anyway gets a NoSpaceError and leaves the LD
// consistent and writable.

// heldLLD returns an instance on a disk mostly full of live blocks, with
// segments held for the next checkpoint, exactly pool segments free or
// cooling beside the checkpoint's reserve, and its statistics zeroed when
// the chain started. hot is the block whose rewrites filled the held
// segments, and rest holds the live blocks of one list, in list order.
// opts sets the geometry.
func heldLLD(t *testing.T, opts Options, pool int) (l *LLD, hot ld.BlockID, rest []ld.BlockID) {
	t.Helper()
	_, l = newTestLLD(t, 4<<20, opts)
	l.noHeadroom()
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	perSeg := l.lay.dataCap() / 4096
	pred := ld.NilBlock
	for l.FreeSegments() > 12 {
		pred = mustNewBlock(t, l, lid, pred)
		mustWrite(t, l, pred, bytes.Repeat([]byte{byte(len(rest))}, 4096))
		rest = append(rest, pred)
	}
	hot = mustNewBlock(t, l, lid, pred)
	l.mu.Lock()
	err := l.checkpoint()
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	l.ResetStats()
	// Segments the log opens from here on are on the chain; emptied and
	// cleaned, they are held.
	for i := 0; i < 6*perSeg; i++ {
		mustWrite(t, l, hot, bytes.Repeat([]byte{0xA0}, 4096))
	}
	for id := range l.segs {
		if s := &l.segs[id]; s.state == segLive && s.live == 0 && l.inChain(id) {
			if err := cleanVictim(l, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; l.spare()+len(l.cooling) > pool; i++ {
		if i > 20*perSeg {
			t.Fatalf("the pool never came down to %d", pool)
		}
		mustWrite(t, l, hot, bytes.Repeat([]byte{0xA1}, 4096))
	}
	if len(l.held) == 0 || l.spare()+len(l.cooling) != pool || l.stats.Consolidations != 0 {
		t.Fatalf("%d held, %d free, %d cooling, %d checkpoints since the chain started; want some held, %d free or cooling, none taken",
			len(l.held), l.spare(), len(l.cooling), l.stats.Consolidations, pool)
	}
	return l, hot, rest
}

// rewriteUntil rewrites b until write fails or n writes succeeded, and
// returns how many succeeded and the failure.
func rewriteUntil(l *LLD, b ld.BlockID, n int) (int, error) {
	for i := 0; i < n; i++ {
		if err := l.Write(b, bytes.Repeat([]byte{byte(i)}, 4096)); err != nil {
			return i, err
		}
	}
	return n, nil
}

func requireInvariants(t *testing.T, l *LLD) {
	t.Helper()
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariants: %v", viol)
	}
}

// A unit that begins with segments held and the pool below cleanLow takes
// the checkpoint first, and may then write through the segments it
// released.
func TestBeginARUWithThePoolLowTakesTheCheckpoint(t *testing.T) {
	const pool = cleanLow - 1
	l, hot, _ := heldLLD(t, testOptions(), pool)
	held := len(l.held)
	if err := l.BeginARU(); err != nil {
		t.Fatal(err)
	}
	if l.stats.Consolidations != 1 || len(l.held) != 0 {
		t.Fatalf("BeginARU took %d checkpoints and left %d segments held, want 1 and none", l.stats.Consolidations, len(l.held))
	}
	perSeg := l.lay.dataCap() / 4096
	n := (pool + held) * perSeg
	if done, err := rewriteUntil(l, hot, n); err != nil {
		t.Fatalf("write %d of %d in the unit, %d segments past the pool it began with: %v", done+1, n, held, err)
	}
	if err := l.EndARU(); err != nil {
		t.Fatal(err)
	}
	requireInvariants(t, l)
}

// A unit that writes more than the pool holds while segments are still
// held gets a NoSpaceError; the unit still ends, and the next write goes
// through.
func TestARUThatRunsThePoolDryGetsNoSpace(t *testing.T) {
	const pool = cleanLow
	l, hot, _ := heldLLD(t, testOptions(), pool)
	if err := l.BeginARU(); err != nil {
		t.Fatal(err)
	}
	if l.stats.Consolidations != 0 {
		t.Fatal("BeginARU took a checkpoint with the pool at cleanLow")
	}
	perSeg := l.lay.dataCap() / 4096
	done, err := rewriteUntil(l, hot, 4*(pool+1)*perSeg)
	var nse *NoSpaceError
	if !errors.As(err, &nse) || !errors.Is(err, ld.ErrNoSpace) {
		t.Fatalf("after %d writes in the unit: %v, want a NoSpaceError", done, err)
	}
	if len(l.held) == 0 {
		t.Fatal("no segment held when the unit ran out of room")
	}
	requireInvariants(t, l)
	last := mustRead(t, l, hot)
	if err := l.EndARU(); err != nil {
		t.Fatalf("EndARU: %v", err)
	}
	if got := mustRead(t, l, hot); !bytes.Equal(got, last) {
		t.Fatal("EndARU changed the block the unit last wrote")
	}
	mustWrite(t, l, hot, []byte("after the unit"))
	requireInvariants(t, l)
}

// movableLLD is heldLLD on segments whose summaries hold a few dozen
// snapshots, so one MoveBlocks can fill several.
func movableLLD(t *testing.T, pool int) (*LLD, ld.BlockID, []ld.BlockID) {
	opts := testOptions()
	opts.SummarySize = 512
	return heldLLD(t, opts, pool)
}

// moveRun moves run, a run of blocks after the first of their list, to a
// new list.
func moveRun(l *LLD, run []ld.BlockID) (ld.ListID, error) {
	dst, err := l.NewList(ld.NilList, ld.ListHints{})
	if err != nil {
		return 0, err
	}
	return dst, l.MoveBlocks(run[0], run[len(run)-1], l.blocks[run[0]].lid, dst, ld.NilBlock, ld.NilBlock)
}

// MoveBlocks run outside a unit opens its own, by the same rule: with
// segments held and the pool below cleanLow it takes the checkpoint first.
func TestMoveBlocksWithThePoolLowTakesTheCheckpoint(t *testing.T) {
	const pool = cleanLow - 1
	l, _, rest := movableLLD(t, pool)
	// Snapshots enough for the pool and half the held segments: a
	// snapshot packs into at most 7 bytes here.
	run := rest[1 : 1+(pool+len(l.held)/2)*(l.lay.summarySize-summaryHeaderSize)/7]
	sealed := l.stats.SegmentsSealed
	dst, err := moveRun(l, run)
	if err != nil {
		t.Fatal(err)
	}
	if l.stats.Consolidations != 1 || len(l.held) != 0 {
		t.Fatalf("MoveBlocks took %d checkpoints and left %d segments held, want 1 and none", l.stats.Consolidations, len(l.held))
	}
	if n := l.stats.SegmentsSealed - sealed; n <= pool {
		t.Fatalf("the move of %d blocks sealed %d segments, want more than the pool of %d it began with", len(run), n, pool)
	}
	if got, err := l.ListBlocks(dst); err != nil || !slices.Equal(got, run) {
		t.Fatalf("list %d holds %v, %v", dst, got, err)
	}
	requireInvariants(t, l)
}

// A move whose snapshots need more than the pool while segments are still
// held takes the checkpoint that releases them when the pool runs dry: the
// move is whole in memory by then, so the checkpoint captures all of it,
// and a crash right after finds the run moved.
func TestMoveBlocksThatRunsThePoolDryTakesTheCheckpoint(t *testing.T) {
	l, hot, rest := movableLLD(t, cleanLow)
	run := rest[1:]
	dst, err := moveRun(l, run)
	if err != nil {
		t.Fatalf("moving %d blocks: %v", len(run), err)
	}
	if l.stats.Consolidations != 1 || len(l.held) != 0 || l.aruOpen {
		t.Fatalf("the move took %d checkpoints and left %d segments held, unit open %v; want 1, none, closed",
			l.stats.Consolidations, len(l.held), l.aruOpen)
	}
	src := l.blocks[rest[0]].lid
	check := func(l *LLD, when string) {
		t.Helper()
		if got, err := l.ListBlocks(dst); err != nil || !slices.Equal(got, run) {
			t.Fatalf("%s: list %d holds %d blocks, %v; want the %d moved", when, dst, len(got), err, len(run))
		}
		if got, err := l.ListBlocks(src); err != nil || !slices.Equal(got, []ld.BlockID{rest[0], hot}) {
			t.Fatalf("%s: list %d holds %v, %v; want %v", when, src, got, err, []ld.BlockID{rest[0], hot})
		}
		requireInvariants(t, l)
	}
	check(l, "after the move")
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}
	l, err = Open(l.dsk, l.opts)
	if err != nil {
		t.Fatal(err)
	}
	check(l, "after a crash")
	mustWrite(t, l, hot, []byte("after the move"))
	requireInvariants(t, l)
}

// A checkpoint taken when the log opens next from a pool that was empty at
// the newest summary write names no chain start, and a mount after it
// sweeps every summary. The segments opened since still hold the only
// copy of what they record, so the reuse rule holds them all the same. Here
// a unit deletes a block and cleans the segment holding the delete, and the
// next unit writes past the segments the log would reuse: a crash then
// finds the block still deleted.
func TestChainlessCheckpointHoldsTheSegmentsOpenedSince(t *testing.T) {
	_, l := newTestLLD(t, 4<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	doomed := mustNewBlock(t, l, lid, ld.NilBlock)
	mustWrite(t, l, doomed, []byte("deleted in the first unit"))
	hot := mustNewBlock(t, l, lid, doomed)
	mustWrite(t, l, hot, []byte("rewritten in both units"))
	l.mu.Lock()
	err := l.sealSegment()
	// The sealed segment named no successor: the pool was empty at its
	// summary write and refilled after it.
	l.succ = -1
	if err == nil {
		err = l.checkpoint()
	}
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	perSeg := l.lay.dataCap() / 4096
	if err := l.BeginARU(); err != nil {
		t.Fatal(err)
	}
	if err := l.DeleteBlock(doomed, lid, ld.NilBlock); err != nil {
		t.Fatal(err)
	}
	first := l.cur.id
	// Fill the segment holding the delete with copies of hot that the next
	// segment supersedes, and clean it inside the unit.
	for l.segs[first].state == segOpen {
		mustWrite(t, l, hot, bytes.Repeat([]byte{1}, 4096))
	}
	mustWrite(t, l, hot, bytes.Repeat([]byte{2}, 4096))
	if l.segs[first].live != 0 {
		t.Fatalf("segment %d keeps %d live bytes", first, l.segs[first].live)
	}
	if err := cleanVictim(l, first); err != nil {
		t.Fatal(err)
	}
	if err := l.EndARU(); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(l.held, first) {
		t.Fatalf("segment %d, opened after the checkpoint and cleaned, is not held (state %d)", first, l.segs[first].state)
	}
	requireInvariants(t, l)
	if err := l.BeginARU(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*perSeg; i++ {
		mustWrite(t, l, hot, bytes.Repeat([]byte{3}, 4096))
		if l.segs[first].state == segOpen {
			t.Fatalf("segment %d opened again before a checkpoint covered its records", first)
		}
	}
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}
	l, err = Open(l.dsk, l.opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Read(doomed, make([]byte, 4096)); !errors.Is(err, ld.ErrBadBlock) {
		t.Fatalf("block %d, deleted by a committed unit, reads back after the crash: %v", doomed, err)
	}
	requireInvariants(t, l)
}
