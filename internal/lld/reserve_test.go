package lld

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/ld"
)

// A checkpoint's payload is log data, so a checkpoint needs room in the
// log. These tests hold the two rules that give it room and the one that
// lets a pointer name a payload of any length: writes leave the reserve to
// it (reserve), the checkpoint that releases held segments takes it
// (refillFromHeld), and a payload in more pieces than a pointer slot names
// is named through its extent table.

// A disk written until it refuses still takes its shutdown checkpoint,
// and the next mount is a clean one that finds every block.
func TestShutdownAfterNoSpaceTakesItsCheckpoint(t *testing.T) {
	for _, headroom := range []bool{true, false} {
		name := "utilization limit"
		if !headroom {
			name = "free pool"
		}
		t.Run(name, func(t *testing.T) {
			d, l := newTestLLD(t, 2<<20, testOptions())
			if !headroom {
				l.noHeadroom()
			}
			lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
			want := map[ld.BlockID][]byte{}
			prev := ld.NilBlock
			var err error
			for i := 0; err == nil && i < 4000; i++ {
				var b ld.BlockID
				if b, err = l.NewBlock(lid, prev); err != nil {
					break
				}
				data := bytes.Repeat([]byte{byte(i)}, 1024+i%3*1024)
				if err = l.Write(b, data); err == nil {
					want[b], prev = data, b
				}
			}
			if !errors.Is(err, ld.ErrNoSpace) {
				t.Fatalf("the fill ended with %v, want ErrNoSpace", err)
			}
			if err := l.Shutdown(true); err != nil {
				t.Fatalf("Shutdown(true) after ErrNoSpace: %v", err)
			}
			l2, err := Open(d, testOptions())
			if err != nil {
				t.Fatal(err)
			}
			if rep := l2.RecoveryReport(); rep.SweptSegments != 0 {
				t.Fatalf("the mount after a clean shutdown probed %d summaries (%q)", rep.SweptSegments, rep.FullSweep)
			}
			for b, data := range want {
				if got := mustRead(t, l2, b); !bytes.Equal(got, data) {
					t.Fatalf("block %d reads back %d bytes, want %d", b, len(got), len(data))
				}
			}
			requireInvariants(t, l2)
		})
	}
}

// When the pool comes down to the reserve with a single segment held, the
// write that needs a segment takes the checkpoint, whose payload goes into
// the reserve, and it releases that segment.
func TestRefillReleasesASingleHeldSegment(t *testing.T) {
	_, l := newTestLLD(t, 4<<20, testOptions())
	l.noHeadroom()
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	perSeg := l.lay.dataCap() / 4096
	pred := ld.NilBlock
	for l.FreeSegments() > 12 {
		pred = mustNewBlock(t, l, lid, pred)
		mustWrite(t, l, pred, bytes.Repeat([]byte{1}, 4096))
	}
	hot := mustNewBlock(t, l, lid, pred)
	l.mu.Lock()
	err := l.checkpoint()
	if err == nil && l.cur != nil {
		err = l.sealSegment()
	}
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	// One segment of the chain filled by rewrites of one block, then
	// superseded and cleaned: it is held.
	for i := 0; i < perSeg; i++ {
		mustWrite(t, l, hot, bytes.Repeat([]byte{2}, 4096))
	}
	l.mu.Lock()
	err = l.sealSegment()
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, l, hot, []byte("moved on"))
	for id := range l.segs {
		if s := &l.segs[id]; s.state == segLive && s.live == 0 && l.inChain(id) {
			if err := cleanVictim(l, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(l.held) != 1 {
		t.Fatalf("%d segments held, want 1", len(l.held))
	}
	held := l.held[0]
	// Cold blocks bring the pool down to the reserve; the write that finds
	// it there takes the checkpoint.
	ckpts := l.stats.Consolidations
	for i := 0; l.stats.Consolidations == ckpts; i++ {
		if i > 20*perSeg {
			t.Fatalf("no checkpoint after %d writes: %d free, reserve %d, %d held", i, len(l.freeSegs), l.reserve(), len(l.held))
		}
		pred = mustNewBlock(t, l, lid, pred)
		if err := l.Write(pred, bytes.Repeat([]byte{3}, 4096)); err != nil {
			t.Fatalf("write %d, %d free, reserve %d, %d held: %v", i, len(l.freeSegs), l.reserve(), len(l.held), err)
		}
	}
	if slices.Contains(l.held, held) || l.segs[held].state == segCooling {
		t.Fatalf("the refill's checkpoint left segment %d held", held)
	}
	requireInvariants(t, l)
}

// A payload in more pieces than a pointer slot names is named through its
// extent table: a crash mount and a clean one both load it.
func TestCheckpointInMoreExtentsThanAPointerNames(t *testing.T) {
	opts := testOptions()
	opts.SegmentSize, opts.SummarySize = 16<<10, 4<<10
	d, l := newTestLLD(t, 8<<20, opts)
	lay := l.lay
	var lists []ld.ListID
	for {
		l.mu.Lock()
		n := len(encodeCheckpoint(liveState{l}))
		l.mu.Unlock()
		if n > (lay.maxExtents()+2)*lay.dataCap() {
			break
		}
		for i := 0; i < 1000; i++ {
			lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
			mustNewBlock(t, l, lid, ld.NilBlock)
			lists = append(lists, lid)
		}
	}
	last := lists[len(lists)-1]
	b := mustNewBlock(t, l, last, ld.NilBlock)
	mustWrite(t, l, b, []byte("named through the table"))
	l.mu.Lock()
	err := l.checkpoint()
	slot := l.ckptSlot
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, lay.pointerSize())
	if err := d.ReadAt(buf, lay.pointerOff(slot)); err != nil {
		t.Fatal(err)
	}
	p, ok := readPointer(buf, lay)
	if !ok || p.table == nil || p.exts != nil {
		t.Fatalf("the pointer reads %v, names %d payload extents and a table of %d", ok, len(p.exts), len(p.table))
	}
	check := func(l *LLD, when string) {
		t.Helper()
		for _, lid := range lists {
			if got, err := l.ListBlocks(lid); err != nil || len(got) != 1 && lid != last {
				t.Fatalf("%s: list %d holds %v, %v", when, lid, got, err)
			}
		}
		if got := mustRead(t, l, b); string(got) != "named through the table" {
			t.Fatalf("%s: block %d reads %q", when, b, got)
		}
		requireInvariants(t, l)
	}
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}
	l, err = Open(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep := l.RecoveryReport(); rep.CheckpointTS != p.ts || rep.FullSweep != "" {
		t.Fatalf("the crash mount replayed over the checkpoint @%d (%q), want @%d", rep.CheckpointTS, rep.FullSweep, p.ts)
	}
	check(l, "after a crash")
	if err := l.Shutdown(true); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(d, opts); err != nil {
		t.Fatal(err)
	}
	if rep := l.RecoveryReport(); rep.SweptSegments != 0 {
		t.Fatalf("the clean mount probed %d summaries (%q)", rep.SweptSegments, rep.FullSweep)
	}
	check(l, "after a clean shutdown")
}
