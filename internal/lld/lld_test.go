package lld

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/disk"
	"repro/internal/ld"
)

// testOptions returns a small, fast configuration for unit tests:
// 32-KB segments with 4-KB summaries on a small disk.
func testOptions() Options {
	o := DefaultOptions()
	o.SegmentSize = 32 * 1024
	o.SummarySize = 4 * 1024
	o.MaxBlockSize = 4096
	o.CompressBandwidth = 0
	return o
}

func newTestLLD(t *testing.T, capacity int64, opts Options) (*disk.Disk, *LLD) {
	t.Helper()
	d := disk.New(disk.DefaultConfig(capacity))
	if err := Format(d, opts); err != nil {
		t.Fatalf("format: %v", err)
	}
	l, err := Open(d, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return d, l
}

func mustNewList(t *testing.T, l *LLD, pred ld.ListID, h ld.ListHints) ld.ListID {
	t.Helper()
	lid, err := l.NewList(pred, h)
	if err != nil {
		t.Fatalf("NewList: %v", err)
	}
	return lid
}

func mustNewBlock(t *testing.T, l *LLD, lid ld.ListID, pred ld.BlockID) ld.BlockID {
	t.Helper()
	b, err := l.NewBlock(lid, pred)
	if err != nil {
		t.Fatalf("NewBlock: %v", err)
	}
	return b
}

func mustWrite(t *testing.T, l *LLD, b ld.BlockID, data []byte) {
	t.Helper()
	if err := l.Write(b, data); err != nil {
		t.Fatalf("Write(%d): %v", b, err)
	}
}

func mustRead(t *testing.T, l *LLD, b ld.BlockID) []byte {
	t.Helper()
	buf := make([]byte, l.MaxBlockSize())
	n, err := l.Read(b, buf)
	if err != nil {
		t.Fatalf("Read(%d): %v", b, err)
	}
	return buf[:n]
}

func TestWriteReadRoundTrip(t *testing.T) {
	_, l := newTestLLD(t, 4<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	b := mustNewBlock(t, l, lid, ld.NilBlock)
	data := []byte("hello, logical disk")
	mustWrite(t, l, b, data)
	if got := mustRead(t, l, b); !bytes.Equal(got, data) {
		t.Fatalf("got %q want %q", got, data)
	}
	// Overwrite keeps the logical number, changes contents.
	data2 := bytes.Repeat([]byte{0x7}, 4096)
	mustWrite(t, l, b, data2)
	if got := mustRead(t, l, b); !bytes.Equal(got, data2) {
		t.Fatal("overwrite not visible")
	}
	if sz, err := l.BlockSize(b); err != nil || sz != 4096 {
		t.Fatalf("BlockSize=%d err=%v", sz, err)
	}
}

func TestReadUnwrittenBlockIsEmpty(t *testing.T) {
	_, l := newTestLLD(t, 4<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	b := mustNewBlock(t, l, lid, ld.NilBlock)
	if got := mustRead(t, l, b); len(got) != 0 {
		t.Fatalf("unwritten block read %d bytes", len(got))
	}
}

func TestVariableBlockSizes(t *testing.T) {
	_, l := newTestLLD(t, 4<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	// Multiple block sizes (paper §2.1): 64-byte i-node-style blocks next
	// to 4-KB data blocks on the same LD.
	sizes := []int{64, 1, 512, 4096, 100, 0}
	ids := make([]ld.BlockID, len(sizes))
	prev := ld.NilBlock
	for i, sz := range sizes {
		ids[i] = mustNewBlock(t, l, lid, prev)
		prev = ids[i]
		mustWrite(t, l, ids[i], bytes.Repeat([]byte{byte(i + 1)}, sz))
	}
	for i, sz := range sizes {
		got := mustRead(t, l, ids[i])
		if len(got) != sz {
			t.Fatalf("block %d: size %d want %d", i, len(got), sz)
		}
	}
	// Oversized write fails.
	big := make([]byte, l.MaxBlockSize()+1)
	if err := l.Write(ids[0], big); !errors.Is(err, ld.ErrTooLarge) {
		t.Fatalf("oversized write: %v", err)
	}
}

func TestBadBlockAndListErrors(t *testing.T) {
	_, l := newTestLLD(t, 4<<20, testOptions())
	buf := make([]byte, 16)
	if _, err := l.Read(ld.NilBlock, buf); !errors.Is(err, ld.ErrBadBlock) {
		t.Fatalf("read nil block: %v", err)
	}
	if _, err := l.Read(12345, buf); !errors.Is(err, ld.ErrBadBlock) {
		t.Fatalf("read unallocated: %v", err)
	}
	if err := l.Write(99, nil); !errors.Is(err, ld.ErrBadBlock) {
		t.Fatalf("write unallocated: %v", err)
	}
	if _, err := l.NewBlock(42, ld.NilBlock); !errors.Is(err, ld.ErrBadList) {
		t.Fatalf("NewBlock on bad list: %v", err)
	}
	if err := l.DeleteList(42, ld.NilList); !errors.Is(err, ld.ErrBadList) {
		t.Fatalf("DeleteList bad list: %v", err)
	}
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	other := mustNewList(t, l, lid, ld.ListHints{})
	b := mustNewBlock(t, l, lid, ld.NilBlock)
	if err := l.DeleteBlock(b, other, ld.NilBlock); !errors.Is(err, ld.ErrNotInList) {
		t.Fatalf("DeleteBlock wrong list: %v", err)
	}
	if _, err := l.NewBlock(other, b); !errors.Is(err, ld.ErrNotInList) {
		t.Fatalf("NewBlock pred on wrong list: %v", err)
	}
}

func TestListOrderAndInsertion(t *testing.T) {
	_, l := newTestLLD(t, 4<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	// Build c -> a -> b by head insertion and pred insertion.
	a := mustNewBlock(t, l, lid, ld.NilBlock)
	b := mustNewBlock(t, l, lid, a)
	c := mustNewBlock(t, l, lid, ld.NilBlock)
	got, err := l.ListBlocks(lid)
	if err != nil {
		t.Fatal(err)
	}
	want := []ld.BlockID{c, a, b}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("list order %v want %v", got, want)
	}
	// Offset addressing (paper §5.4).
	for i, w := range want {
		bi, err := l.ListIndex(lid, i)
		if err != nil || bi != w {
			t.Fatalf("ListIndex(%d)=%v,%v want %v", i, bi, err, w)
		}
	}
	if _, err := l.ListIndex(lid, 3); !errors.Is(err, ld.ErrBadBlock) {
		t.Fatalf("out-of-range index: %v", err)
	}
	if n, _ := l.ListCount(lid); n != 3 {
		t.Fatalf("count %d", n)
	}
}

func TestDeleteBlockWithHints(t *testing.T) {
	_, l := newTestLLD(t, 4<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	var ids []ld.BlockID
	prev := ld.NilBlock
	for i := 0; i < 5; i++ {
		b := mustNewBlock(t, l, lid, prev)
		ids = append(ids, b)
		prev = b
	}
	before := l.Stats()
	// Correct hint.
	if err := l.DeleteBlock(ids[2], lid, ids[1]); err != nil {
		t.Fatal(err)
	}
	// Wrong hint: still succeeds via search from the beginning (paper §2.2).
	if err := l.DeleteBlock(ids[3], lid, ids[0]); err != nil {
		t.Fatal(err)
	}
	// No hint for the head.
	if err := l.DeleteBlock(ids[0], lid, ld.NilBlock); err != nil {
		t.Fatal(err)
	}
	after := l.Stats()
	if after.HintHits-before.HintHits < 1 {
		t.Fatal("correct hint not counted as hit")
	}
	if after.HintMisses-before.HintMisses < 1 {
		t.Fatal("wrong hint not counted as miss")
	}
	got, _ := l.ListBlocks(lid)
	if len(got) != 2 || got[0] != ids[1] || got[1] != ids[4] {
		t.Fatalf("remaining %v", got)
	}
}

func TestBlockNumberReuse(t *testing.T) {
	_, l := newTestLLD(t, 4<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	b := mustNewBlock(t, l, lid, ld.NilBlock)
	mustWrite(t, l, b, []byte("old generation"))
	if err := l.DeleteBlock(b, lid, ld.NilBlock); err != nil {
		t.Fatal(err)
	}
	b2 := mustNewBlock(t, l, lid, ld.NilBlock)
	if b2 != b {
		t.Fatalf("expected number reuse, got %d then %d", b, b2)
	}
	if got := mustRead(t, l, b2); len(got) != 0 {
		t.Fatalf("reused number leaked %d bytes of old data", len(got))
	}
}

func TestDeleteListFreesBlocks(t *testing.T) {
	_, l := newTestLLD(t, 4<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	prev := ld.NilBlock
	for i := 0; i < 10; i++ {
		b := mustNewBlock(t, l, lid, prev)
		mustWrite(t, l, b, bytes.Repeat([]byte{1}, 512))
		prev = b
	}
	liveBefore := l.LiveBytes()
	if liveBefore == 0 {
		t.Fatal("no live bytes before delete")
	}
	if err := l.DeleteList(lid, ld.NilList); err != nil {
		t.Fatal(err)
	}
	if l.LiveBytes() != 0 {
		t.Fatalf("%d live bytes after DeleteList", l.LiveBytes())
	}
	if _, err := l.ListBlocks(lid); !errors.Is(err, ld.ErrBadList) {
		t.Fatal("list still exists")
	}
}

func TestListOfLists(t *testing.T) {
	_, l := newTestLLD(t, 4<<20, testOptions())
	a := mustNewList(t, l, ld.NilList, ld.ListHints{})
	b := mustNewList(t, l, a, ld.ListHints{})
	c := mustNewList(t, l, ld.NilList, ld.ListHints{})
	// Order should be c, a, b.
	lists, err := l.Lists()
	if err != nil {
		t.Fatal(err)
	}
	want := []ld.ListID{c, a, b}
	for i := range want {
		if lists[i] != want[i] {
			t.Fatalf("order %v want %v", lists, want)
		}
	}
	// MoveList c after b -> a, b, c.
	if err := l.MoveList(c, b, ld.NilList); err != nil {
		t.Fatal(err)
	}
	lists, _ = l.Lists()
	want = []ld.ListID{a, b, c}
	for i := range want {
		if lists[i] != want[i] {
			t.Fatalf("after move: %v want %v", lists, want)
		}
	}
	if err := l.MoveList(c, c, ld.NilList); !errors.Is(err, ld.ErrBadList) {
		t.Fatalf("self-move: %v", err)
	}
}

func TestMoveBlocks(t *testing.T) {
	_, l := newTestLLD(t, 4<<20, testOptions())
	src := mustNewList(t, l, ld.NilList, ld.ListHints{})
	dst := mustNewList(t, l, src, ld.ListHints{})
	var s []ld.BlockID
	prev := ld.NilBlock
	for i := 0; i < 6; i++ {
		b := mustNewBlock(t, l, src, prev)
		mustWrite(t, l, b, []byte{byte(i)})
		s = append(s, b)
		prev = b
	}
	d0 := mustNewBlock(t, l, dst, ld.NilBlock)

	// Move s[2..4] after d0.
	if err := l.MoveBlocks(s[2], s[4], src, dst, d0, s[1]); err != nil {
		t.Fatal(err)
	}
	gotSrc, _ := l.ListBlocks(src)
	gotDst, _ := l.ListBlocks(dst)
	wantSrc := []ld.BlockID{s[0], s[1], s[5]}
	wantDst := []ld.BlockID{d0, s[2], s[3], s[4]}
	if fmt.Sprint(gotSrc) != fmt.Sprint(wantSrc) {
		t.Fatalf("src %v want %v", gotSrc, wantSrc)
	}
	if fmt.Sprint(gotDst) != fmt.Sprint(wantDst) {
		t.Fatalf("dst %v want %v", gotDst, wantDst)
	}
	// Data still readable after the move.
	if got := mustRead(t, l, s[3]); !bytes.Equal(got, []byte{3}) {
		t.Fatal("data lost in move")
	}
	// Moving within one list.
	if err := l.MoveBlocks(s[5], s[5], src, src, ld.NilBlock, s[1]); err != nil {
		t.Fatal(err)
	}
	gotSrc, _ = l.ListBlocks(src)
	wantSrc = []ld.BlockID{s[5], s[0], s[1]}
	if fmt.Sprint(gotSrc) != fmt.Sprint(wantSrc) {
		t.Fatalf("src after self-move %v want %v", gotSrc, wantSrc)
	}
	// Destination predecessor inside the run is rejected.
	if err := l.MoveBlocks(s[0], s[1], src, src, s[0], ld.NilBlock); !errors.Is(err, ld.ErrNotInList) {
		t.Fatalf("pred inside run: %v", err)
	}
	// A non-run is rejected.
	if err := l.MoveBlocks(s[1], s[5], src, dst, ld.NilBlock, ld.NilBlock); !errors.Is(err, ld.ErrNotInList) {
		t.Fatalf("non-run: %v", err)
	}
}

func TestSwapContents(t *testing.T) {
	_, l := newTestLLD(t, 4<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	a := mustNewBlock(t, l, lid, ld.NilBlock)
	b := mustNewBlock(t, l, lid, a)
	mustWrite(t, l, a, []byte("AAAA"))
	mustWrite(t, l, b, []byte("BB"))
	if err := l.SwapContents(a, b); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, l, a); !bytes.Equal(got, []byte("BB")) {
		t.Fatalf("a=%q", got)
	}
	if got := mustRead(t, l, b); !bytes.Equal(got, []byte("AAAA")) {
		t.Fatalf("b=%q", got)
	}
	// Swap with self is a no-op.
	if err := l.SwapContents(a, a); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, l, a); !bytes.Equal(got, []byte("BB")) {
		t.Fatal("self-swap changed contents")
	}
}

func TestSegmentSealingOnFill(t *testing.T) {
	_, l := newTestLLD(t, 8<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	// Write enough 4-KB blocks to force several seals.
	data := bytes.Repeat([]byte{0xC3}, 4096)
	prev := ld.NilBlock
	var ids []ld.BlockID
	for i := 0; i < 40; i++ {
		b := mustNewBlock(t, l, lid, prev)
		mustWrite(t, l, b, data)
		ids = append(ids, b)
		prev = b
	}
	if l.Stats().SegmentsSealed < 3 {
		t.Fatalf("expected several sealed segments, got %d", l.Stats().SegmentsSealed)
	}
	// Everything still readable, including blocks in sealed segments.
	for _, b := range ids {
		if got := mustRead(t, l, b); !bytes.Equal(got, data) {
			t.Fatalf("block %d corrupted", b)
		}
	}
}

func TestFlushPartialSegmentStrategy(t *testing.T) {
	_, l := newTestLLD(t, 8<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	b := mustNewBlock(t, l, lid, ld.NilBlock)
	mustWrite(t, l, b, bytes.Repeat([]byte{1}, 1024))

	// Below threshold: Flush writes a partial segment and keeps filling.
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	s := l.Stats()
	if s.PartialWrites != 1 || s.SegmentsSealed != 0 {
		t.Fatalf("partial=%d sealed=%d; want 1,0", s.PartialWrites, s.SegmentsSealed)
	}
	// A clean Flush with nothing new is free.
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	if l.Stats().PartialWrites != 1 {
		t.Fatal("no-op flush wrote again")
	}
	// FailNone is a no-op by definition.
	mustWrite(t, l, b, bytes.Repeat([]byte{2}, 1024))
	if err := l.Flush(ld.FailNone); err != nil {
		t.Fatal(err)
	}
	if l.Stats().PartialWrites != 1 {
		t.Fatal("FailNone flushed")
	}

	// Fill above the threshold: the next Flush seals instead.
	data := bytes.Repeat([]byte{3}, 4096)
	prev := b
	for i := 0; i < 6; i++ { // 6*4K = 24K of 28K data cap > 75%
		nb := mustNewBlock(t, l, lid, prev)
		mustWrite(t, l, nb, data)
		prev = nb
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	s = l.Stats()
	if s.SegmentsSealed != 1 {
		t.Fatalf("sealed=%d after above-threshold flush", s.SegmentsSealed)
	}
}

func TestFlushListOnlyFlushesInvolvedLists(t *testing.T) {
	_, l := newTestLLD(t, 8<<20, testOptions())
	a := mustNewList(t, l, ld.NilList, ld.ListHints{})
	bLst := mustNewList(t, l, a, ld.ListHints{})
	ba := mustNewBlock(t, l, a, ld.NilBlock)
	mustWrite(t, l, ba, []byte("a data"))
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	flushesBefore := l.Stats().Flushes
	// bLst has nothing pending: FlushList must be a no-op.
	if err := l.FlushList(bLst); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Flushes != flushesBefore {
		t.Fatal("FlushList flushed an uninvolved list")
	}
	// After touching bLst it must flush.
	bb := mustNewBlock(t, l, bLst, ld.NilBlock)
	mustWrite(t, l, bb, []byte("b data"))
	if err := l.FlushList(bLst); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Flushes != flushesBefore+1 {
		t.Fatal("FlushList did not flush an involved list")
	}
}

func TestARUBasics(t *testing.T) {
	_, l := newTestLLD(t, 4<<20, testOptions())
	if err := l.EndARU(); !errors.Is(err, ld.ErrNoARU) {
		t.Fatalf("EndARU without begin: %v", err)
	}
	if err := l.BeginARU(); err != nil {
		t.Fatal(err)
	}
	if err := l.BeginARU(); !errors.Is(err, ld.ErrARUOpen) {
		t.Fatalf("nested BeginARU: %v", err)
	}
	if err := l.EndARU(); err != nil {
		t.Fatal(err)
	}
	if l.Stats().ARUs != 1 {
		t.Fatalf("ARUs=%d", l.Stats().ARUs)
	}
}

func TestReservations(t *testing.T) {
	_, l := newTestLLD(t, 4<<20, testOptions())
	usable := l.UsableBytes()
	nBlocks := int(usable) / l.MaxBlockSize()
	// Reserving more than the disk fails.
	if err := l.Reserve(nBlocks + 1); !errors.Is(err, ld.ErrNoSpace) {
		t.Fatalf("over-reserve: %v", err)
	}
	// Reserve half the disk.
	if err := l.Reserve(nBlocks / 2); err != nil {
		t.Fatal(err)
	}
	if l.ReservedBytes() != int64(nBlocks/2)*int64(l.MaxBlockSize()) {
		t.Fatalf("reserved=%d", l.ReservedBytes())
	}
	// A second over-reservation fails.
	if err := l.Reserve(nBlocks); !errors.Is(err, ld.ErrNoSpace) {
		t.Fatalf("second reserve: %v", err)
	}
	// Writes may consume the reservation rather than fail.
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	data := bytes.Repeat([]byte{1}, 4096)
	prev := ld.NilBlock
	for i := 0; i < nBlocks*3/4; i++ {
		b, err := l.NewBlock(lid, prev)
		if err != nil {
			t.Fatalf("NewBlock %d: %v", i, err)
		}
		if err := l.Write(b, data); err != nil {
			t.Fatalf("write %d (reservation should cover): %v", i, err)
		}
		prev = b
	}
	if l.ReservedBytes() >= int64(nBlocks/2)*int64(l.MaxBlockSize()) {
		t.Fatal("reservation was not consumed")
	}
	if err := l.CancelReservation(nBlocks); err != nil {
		t.Fatal(err)
	}
	if l.ReservedBytes() != 0 {
		t.Fatalf("reserved=%d after cancel", l.ReservedBytes())
	}
}

func TestNoSpace(t *testing.T) {
	o := testOptions()
	_, l := newTestLLD(t, 2<<20, o)
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	data := bytes.Repeat([]byte{1}, 4096)
	prev := ld.NilBlock
	var lastErr error
	for i := 0; i < 4000; i++ {
		b, err := l.NewBlock(lid, prev)
		if err != nil {
			lastErr = err
			break
		}
		if err := l.Write(b, data); err != nil {
			lastErr = err
			break
		}
		prev = b
	}
	if !errors.Is(lastErr, ld.ErrNoSpace) {
		t.Fatalf("expected ErrNoSpace, got %v", lastErr)
	}
	// The LD must still be consistent and readable after ENOSPC.
	ids, err := l.ListBlocks(lid)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) < 2 {
		t.Fatal("no blocks written before ENOSPC")
	}
	// The final block may be the one whose Write failed (allocated but
	// empty); everything before it must be intact.
	for _, id := range ids[:len(ids)-1] {
		if got := mustRead(t, l, id); !bytes.Equal(got, data) {
			t.Fatalf("block %d corrupted near ENOSPC", id)
		}
	}
}

func TestCompressionHint(t *testing.T) {
	o := testOptions()
	_, l := newTestLLD(t, 8<<20, o)
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{Compress: true})
	b := mustNewBlock(t, l, lid, ld.NilBlock)
	data := compress.SyntheticData(4096, 0.5, 1)
	mustWrite(t, l, b, data)
	if got := mustRead(t, l, b); !bytes.Equal(got, data) {
		t.Fatal("compressed round trip failed")
	}
	s := l.Stats()
	if s.CompressedBlocks != 1 {
		t.Fatalf("CompressedBlocks=%d", s.CompressedBlocks)
	}
	if s.CompressOutBytes >= s.CompressInBytes {
		t.Fatalf("no savings: in=%d out=%d", s.CompressInBytes, s.CompressOutBytes)
	}
	// Incompressible data falls back to raw storage but still round trips.
	b2 := mustNewBlock(t, l, lid, b)
	rnd := compress.SyntheticData(4096, 1.0, 2)
	mustWrite(t, l, b2, rnd)
	if got := mustRead(t, l, b2); !bytes.Equal(got, rnd) {
		t.Fatal("incompressible round trip failed")
	}
	// Live bytes should reflect the compressed footprint.
	if l.LiveBytes() >= int64(2*4096) {
		t.Fatalf("liveBytes=%d suggests no compression", l.LiveBytes())
	}
}

func TestShutdownSemantics(t *testing.T) {
	_, l := newTestLLD(t, 4<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	b := mustNewBlock(t, l, lid, ld.NilBlock)
	mustWrite(t, l, b, []byte("x"))
	if err := l.BeginARU(); err != nil {
		t.Fatal(err)
	}
	if err := l.Shutdown(true); !errors.Is(err, ld.ErrARUOpen) {
		t.Fatalf("clean shutdown with open ARU: %v", err)
	}
	if err := l.EndARU(); err != nil {
		t.Fatal(err)
	}
	if err := l.Shutdown(true); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Read(b, make([]byte, 4)); !errors.Is(err, ld.ErrShutdown) {
		t.Fatalf("post-shutdown read: %v", err)
	}
	if err := l.Write(b, nil); !errors.Is(err, ld.ErrShutdown) {
		t.Fatalf("post-shutdown write: %v", err)
	}

	// Write racing Shutdown(false): every Write returns nil or ErrShutdown,
	// and the crashed image mounts with clean invariants and whole blocks —
	// a shutdown landing beside an append tears nothing.
	d, l := newTestLLD(t, 4<<20, testOptions())
	lid = mustNewList(t, l, ld.NilList, ld.ListHints{})
	var blocks []ld.BlockID
	for i := 0; i < 8; i++ {
		blocks = append(blocks, mustNewBlock(t, l, lid, ld.NilBlock))
	}
	const writers = 4
	var wg sync.WaitGroup
	started := make(chan struct{}, writers)
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				err := l.Write(blocks[(w+i)%len(blocks)], bytes.Repeat([]byte{byte(w + 1)}, 3000))
				if i == 0 {
					started <- struct{}{}
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	for w := 0; w < writers; w++ {
		<-started
	}
	if err := l.Shutdown(false); err != nil {
		t.Fatalf("Shutdown(false) under writers: %v", err)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if !errors.Is(err, ld.ErrShutdown) {
			t.Errorf("Write racing Shutdown(false): %v, want nil or ErrShutdown", err)
		}
	}
	l2, err := Open(d, testOptions())
	if err != nil {
		t.Fatalf("mount after the race: %v", err)
	}
	if viol := l2.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariants after the race: %v", viol)
	}
	for _, b := range blocks {
		if got := mustRead(t, l2, b); len(got) != 0 && !bytes.Equal(got, bytes.Repeat(got[:1], 3000)) {
			t.Errorf("block %d torn after the race (%d bytes)", b, len(got))
		}
	}
}

func TestCleanShutdownFastRestart(t *testing.T) {
	d, l := newTestLLD(t, 8<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{Cluster: true})
	var ids []ld.BlockID
	prev := ld.NilBlock
	for i := 0; i < 30; i++ {
		b := mustNewBlock(t, l, lid, prev)
		mustWrite(t, l, b, bytes.Repeat([]byte{byte(i)}, 2048))
		ids = append(ids, b)
		prev = b
	}
	if err := l.Shutdown(true); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(d, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Fast restart must not sweep.
	if l2.Stats().RecoverySweepSegments != 0 {
		t.Fatal("clean restart performed a sweep")
	}
	for i, b := range ids {
		buf := make([]byte, 4096)
		n, err := l2.Read(b, buf)
		if err != nil || n != 2048 || buf[0] != byte(i) {
			t.Fatalf("block %d after restart: n=%d err=%v", b, n, err)
		}
	}
	got, _ := l2.ListBlocks(lid)
	if len(got) != len(ids) {
		t.Fatalf("list has %d blocks after restart, want %d", len(got), len(ids))
	}
	h, _ := l2.ListHints(lid)
	if !h.Cluster {
		t.Fatal("hints lost across restart")
	}
	// The checkpoint marker must be invalidated: crash now and reopen;
	// state must come from the sweep, not the stale checkpoint.
	b := mustNewBlock(t, l2, lid, ids[len(ids)-1])
	mustWrite(t, l2, b, []byte("post-restart"))
	if err := l2.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	if err := l2.Shutdown(false); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(d, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if l3.Stats().RecoverySweepSegments == 0 {
		t.Fatal("reused an invalidated checkpoint")
	}
	buf := make([]byte, 64)
	n, err := l3.Read(b, buf)
	if err != nil || string(buf[:n]) != "post-restart" {
		t.Fatalf("post-restart block lost: n=%d err=%v", n, err)
	}
}

// TestQuickListInvariants drives random list operations and checks the
// structural invariants after each: census counts match chain walks, every
// block is on exactly the list the map says, and ids never duplicate.
func TestQuickListInvariants(t *testing.T) {
	_, l := newTestLLD(t, 8<<20, testOptions())
	rng := rand.New(rand.NewSource(7))
	var lists []ld.ListID
	blocks := make(map[ld.ListID][]ld.BlockID)

	check := func() {
		seen := make(map[ld.BlockID]bool)
		for _, lid := range lists {
			got, err := l.ListBlocks(lid)
			if err != nil {
				t.Fatalf("ListBlocks(%d): %v", lid, err)
			}
			if n, _ := l.ListCount(lid); n != len(got) {
				t.Fatalf("count mismatch on %d: %d vs %d", lid, n, len(got))
			}
			want := blocks[lid]
			if len(got) != len(want) {
				t.Fatalf("list %d: %v want %v", lid, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("list %d order: %v want %v", lid, got, want)
				}
				if seen[got[i]] {
					t.Fatalf("block %d appears twice", got[i])
				}
				seen[got[i]] = true
			}
		}
	}

	for step := 0; step < 800; step++ {
		op := rng.Intn(10)
		switch {
		case op < 2 || len(lists) == 0:
			lid, err := l.NewList(ld.NilList, ld.ListHints{})
			if err != nil {
				t.Fatal(err)
			}
			lists = append(lists, lid)
			blocks[lid] = nil
		case op < 6:
			lid := lists[rng.Intn(len(lists))]
			w := blocks[lid]
			pred := ld.NilBlock
			at := 0
			if len(w) > 0 && rng.Intn(2) == 0 {
				at = rng.Intn(len(w)) + 1
				pred = w[at-1]
			}
			b, err := l.NewBlock(lid, pred)
			if err != nil {
				t.Fatal(err)
			}
			nw := append(append([]ld.BlockID{}, w[:at]...), b)
			blocks[lid] = append(nw, w[at:]...)
			if rng.Intn(2) == 0 {
				mustWrite(t, l, b, bytes.Repeat([]byte{byte(b)}, rng.Intn(1000)))
			}
		case op < 8:
			lid := lists[rng.Intn(len(lists))]
			w := blocks[lid]
			if len(w) == 0 {
				continue
			}
			at := rng.Intn(len(w))
			hint := ld.NilBlock
			if rng.Intn(2) == 0 && at > 0 {
				hint = w[at-1]
			} else if rng.Intn(2) == 0 {
				hint = w[rng.Intn(len(w))] // possibly wrong hint
			}
			if err := l.DeleteBlock(w[at], lid, hint); err != nil {
				t.Fatal(err)
			}
			blocks[lid] = append(append([]ld.BlockID{}, w[:at]...), w[at+1:]...)
		case op == 8 && len(lists) > 1:
			// Move a random run between lists.
			src := lists[rng.Intn(len(lists))]
			dst := lists[rng.Intn(len(lists))]
			w := blocks[src]
			if len(w) == 0 || src == dst {
				continue
			}
			i := rng.Intn(len(w))
			j := i + rng.Intn(len(w)-i)
			pred := ld.NilBlock
			at := 0
			dw := blocks[dst]
			if len(dw) > 0 && rng.Intn(2) == 0 {
				at = rng.Intn(len(dw)) + 1
				pred = dw[at-1]
			}
			if err := l.MoveBlocks(w[i], w[j], src, dst, pred, ld.NilBlock); err != nil {
				t.Fatal(err)
			}
			run := append([]ld.BlockID{}, w[i:j+1]...)
			blocks[src] = append(append([]ld.BlockID{}, w[:i]...), w[j+1:]...)
			nd := append(append([]ld.BlockID{}, dw[:at]...), run...)
			blocks[dst] = append(nd, dw[at:]...)
		case op == 9:
			if err := l.Flush(ld.FailPower); err != nil {
				t.Fatal(err)
			}
		}
		if step%50 == 0 {
			check()
		}
	}
	check()
}

// TestNoSpaceError checks the typed error ensureRoom's treadmill bound
// returns: it must unwrap to ld.ErrNoSpace (the stable API contract
// callers match with errors.Is), and the wrapping must survive another
// fmt.Errorf layer.
func TestNoSpaceError(t *testing.T) {
	base := &NoSpaceError{Reason: "cleaning reclaims no net space"}
	if !errors.Is(base, ld.ErrNoSpace) {
		t.Error("NoSpaceError does not unwrap to ErrNoSpace")
	}
	wrapped := fmt.Errorf("write block 7: %w", base)
	if !errors.Is(wrapped, ld.ErrNoSpace) {
		t.Error("wrapped NoSpaceError does not unwrap to ErrNoSpace")
	}
	var nse *NoSpaceError
	if !errors.As(wrapped, &nse) {
		t.Fatal("wrapped error does not carry *NoSpaceError")
	}
	if !strings.Contains(base.Error(), nse.Reason) {
		t.Errorf("NoSpaceError message %q does not carry the reason", base.Error())
	}
}
