package lld

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
)

// These tests hold the read-ahead window's walk along the log
// (readahead.go) piece by piece: clip, slide, crossing and confirmation,
// and the per-block path for a block a window served with bad bytes.

// streamLLD writes blocks of the given sizes back to back in one list of a
// fresh instance on a 16-MB disk with the default segment size, flushes,
// and returns the ids, their bytes and the recorder of every request.
func streamLLD(t *testing.T, sizes []int) (*disk.Disk, *ioLog, *LLD, []ld.BlockID, map[ld.BlockID][]byte) {
	t.Helper()
	d := disk.New(disk.DefaultConfig(16 << 20))
	rec, l := openLogged(t, d, DefaultOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	ids := make([]ld.BlockID, len(sizes))
	want := make(map[ld.BlockID][]byte, len(sizes))
	prev := ld.NilBlock
	for i, size := range sizes {
		ids[i] = mustNewBlock(t, l, lid, prev)
		want[ids[i]] = bytes.Repeat([]byte{byte(i), byte(i >> 8), 0x5A}, size/3+1)[:size]
		mustWrite(t, l, ids[i], want[ids[i]])
		prev = ids[i]
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	rec.take('r')
	return d, rec, l, ids, want
}

// sizes is n blocks of size bytes.
func sizes(n, size int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = size
	}
	return s
}

// inSegment returns the blocks of ids that segment seg holds, in log order.
func inSegment(l *LLD, ids []ld.BlockID, seg int) []ld.BlockID {
	var out []ld.BlockID
	for _, b := range ids {
		if bi := &l.blocks[b]; bi.allocated() && bi.hasData() && l.segOf(bi) == seg {
			out = append(out, b)
		}
	}
	return out
}

// blockEnd is where b's stored bytes end in its segment's data area.
func blockEnd(l *LLD, b ld.BlockID) uint32 { return l.blockOff(b) + uint32(l.blocks[b].stored) }

// bytesRead is what the requests transferred.
func bytesRead(reads []ioOp) int64 {
	var n int64
	for _, r := range reads {
		n += int64(r.n)
	}
	return n
}

// A segment of 1-KB blocks seals with its summary full, short of its data
// area's end, and its last fifty blocks are then deleted. Read one block a
// batch, its live blocks cost a window a request, and the windows end at
// its last live byte: the stream transfers exactly the live bytes, none
// twice, and nothing of the dead or unused tail.
func TestReadaheadWindowClipsAtTheLastLiveByte(t *testing.T) {
	_, rec, l, ids, want := streamLLD(t, sizes(600, 1024))
	seg := l.blockSeg(ids[0])
	blocks := inSegment(l, ids, seg)
	if l.segs[seg].state != segLive || l.Stats().SealsSummaryFull == 0 || blockEnd(l, blocks[len(blocks)-1]) == uint32(l.lay.dataCap()) {
		t.Fatalf("segment %d (state %d) holds %d KB of %d: want one sealed with its summary full", seg, l.segs[seg].state, len(blocks), l.lay.dataCap()>>10)
	}
	lid := l.blocks[ids[0]].lid
	for _, b := range blocks[len(blocks)-50:] {
		if err := l.DeleteBlock(b, lid, ld.NilBlock); err != nil {
			t.Fatal(err)
		}
	}
	blocks = blocks[:len(blocks)-50]
	end := blockEnd(l, blocks[len(blocks)-1])
	if got := l.liveEnd(int32(seg)); got != end {
		t.Fatalf("liveEnd %d, want %d", got, end)
	}
	before := l.Stats()
	for _, b := range blocks {
		readOne(t, l, b, want[b])
	}
	reads := rec.take('r')
	ascendingReads(t, reads)
	last := reads[len(reads)-1]
	if got := bytesRead(reads); got != int64(end) || last.end() != l.lay.segOff(seg)+int64(end) {
		t.Errorf("%d requests read %d bytes, the last %v; want the %d live bytes, ending at %d",
			len(reads), got, last, end, l.lay.segOff(seg)+int64(end))
	}
	if w := l.Stats().ReadaheadWindows - before.ReadaheadWindows; w != int64(len(reads)-2) || w != int64((end-2048+readaheadWindow-1)/readaheadWindow) {
		t.Errorf("%d windows among %d requests", w, len(reads))
	}
}

// 3-KB files do not divide a window, so one file in every window straddles
// its end. Read one file a batch, the window slides: it keeps the file's
// first part and reads on from its own end, so the requests ascend, no
// sector is transferred twice, and a straddling file costs no request of
// its own. A block that lies ahead of the window, as an i-node block lies
// ahead of the files written before it, slides the window too, and the
// files between the stream and that block are then served from it.
func TestReadaheadWindowSlides(t *testing.T) {
	t.Run("straddling files", func(t *testing.T) {
		_, rec, l, ids, want := streamLLD(t, sizes(300, 3072))
		seg := l.blockSeg(ids[0])
		blocks := inSegment(l, ids, seg)
		if l.segs[seg].state != segLive || blockEnd(l, blocks[len(blocks)-1]) < 3*readaheadWindow/2 {
			t.Fatalf("segment %d holds %d files: want a sealed one of more than a window", seg, len(blocks))
		}
		before := l.Stats()
		for _, b := range blocks {
			readOne(t, l, b, want[b])
		}
		reads := rec.take('r')
		for i := 1; i < len(reads); i++ {
			if reads[i].off < reads[i-1].end() {
				t.Fatalf("request %v reads again what request %v read", reads[i], reads[i-1])
			}
		}
		s := l.Stats()
		end := blockEnd(l, blocks[len(blocks)-1])
		if got := bytesRead(reads); got != int64(end) {
			t.Errorf("%d requests read %d bytes, want the segment's %d live bytes", len(reads), got, end)
		}
		if w, h := s.ReadaheadWindows-before.ReadaheadWindows, s.ReadaheadHits-before.ReadaheadHits; w != int64(len(reads)-2) || h != int64(len(blocks)-2)-w {
			t.Errorf("%d files: %d requests, %d windows, %d hits", len(blocks), len(reads), w, h)
		}
	})
	t.Run("a block ahead", func(t *testing.T) {
		_, rec, l, ids, want := streamLLD(t, sizes(600, 1024))
		for _, b := range ids[:10] {
			readOne(t, l, b, want[b])
		}
		// The window is [2 KB, 2 KB + readaheadWindow), the stream stands at
		// 10 KB, and the block ahead lies 4 KB past the window's end.
		ahead := ids[(2048+readaheadWindow)/1024+4]
		if l.blockSeg(ahead) != l.blockSeg(ids[0]) {
			t.Fatal("the block ahead is not in the stream's segment")
		}
		rec.take('r')
		readOne(t, l, ahead, want[ahead])
		winEnd := l.lay.segOff(l.blockSeg(ids[0])) + 2048 + readaheadWindow
		if reads := rec.take('r'); len(reads) != 1 || reads[0].off != winEnd || reads[0].end() != winEnd-2048+10*1024 {
			t.Fatalf("the block ahead read %v, want one request from the window's end at %d to one window past the stream", reads, winEnd)
		}
		before := l.Stats().ReadaheadHits
		for _, b := range ids[10 : (2048+readaheadWindow)/1024+4] {
			readOne(t, l, b, want[b])
		}
		if reads := rec.take('r'); len(reads) != 0 {
			t.Errorf("the blocks between the stream and the block ahead cost %d requests: %v", len(reads), reads)
		}
		if h := l.Stats().ReadaheadHits - before; h != int64((2048+readaheadWindow)/1024+4-10) {
			t.Errorf("%d hits", h)
		}
	})
}

// A stream of 1-KB blocks through sealed neighbours s and s+1 reads s+1's
// first block in a window that starts at s+1's first byte: no lone request
// at a segment's start. After a stream that ends at s's last live byte, the
// first block of s+2, which is not s's neighbour, is read alone.
func TestReadaheadWindowCrossesIntoTheNextSegment(t *testing.T) {
	_, rec, l, ids, want := streamLLD(t, sizes(1400, 1024))
	s := l.blockSeg(ids[0])
	first, second, third := inSegment(l, ids, s), inSegment(l, ids, s+1), inSegment(l, ids, s+2)
	if len(first) == 0 || len(second) == 0 || len(third) == 0 || l.segs[s+2].state != segLive || l.blockOff(second[0]) != 0 || l.blockOff(third[0]) != 0 {
		t.Fatalf("segments %d, %d and %d hold %d, %d and %d blocks: want three sealed neighbours holding the stream",
			s, s+1, s+2, len(first), len(second), len(third))
	}
	for _, b := range first {
		readOne(t, l, b, want[b])
	}
	rec.take('r')
	before := l.Stats()
	for _, b := range second {
		readOne(t, l, b, want[b])
	}
	reads := rec.take('r')
	start := l.lay.segOff(s + 1)
	if len(reads) == 0 || reads[0].off != start || reads[0].n != int(min(readaheadWindow, blockEnd(l, second[len(second)-1]))) {
		t.Errorf("segment %d's stream began with %v, want a window from its first byte at %d", s+1, reads, start)
	}
	if w := l.Stats().ReadaheadWindows - before.ReadaheadWindows; w != int64(len(reads)) {
		t.Errorf("%d requests in segment %d, %d of them windows: want every one a window", len(reads), s+1, w)
	}

	for _, b := range first {
		readOne(t, l, b, want[b])
	}
	rec.take('r')
	before = l.Stats()
	readOne(t, l, third[0], want[third[0]])
	if reads, w := rec.take('r'), l.Stats().ReadaheadWindows-before.ReadaheadWindows; len(reads) != 1 || reads[0].n != 1024 || w != 0 {
		t.Errorf("segment %d's first block after a stream through segment %d: %v, %d windows; want it read alone", s+2, s, reads, w)
	}
}

// A block that continues the previous extent starts no window unless that
// extent continued the one before it: a lone read does not confirm a
// stream, so an i-node block read just past a file reads only itself.
func TestReadaheadWindowNeedsAConfirmedStream(t *testing.T) {
	_, rec, l, ids, want := streamLLD(t, sizes(600, 1024))
	for i, b := range ids[40:43] {
		readOne(t, l, b, want[b])
		reads, w := rec.take('r'), l.Stats().ReadaheadWindows
		switch {
		case i < 2 && (len(reads) != 1 || reads[0].n != 1024 || w != 0):
			t.Errorf("read %d of a run: %v, %d windows; want the block alone", i+1, reads, w)
		case i == 2 && (len(reads) != 1 || reads[0].n <= 1024 || w != 1):
			t.Errorf("read 3 of a run: %v, %d windows; want a window", reads, w)
		}
	}
	readOne(t, l, ids[80], want[ids[80]]) // in the window: a hit, not a continuation
	rec.take('r')
	readOne(t, l, ids[10], want[ids[10]])
	readOne(t, l, ids[11], want[ids[11]])
	if reads, w := rec.take('r'), l.Stats().ReadaheadWindows; len(reads) != 2 || reads[1].n != 1024 || w != 1 {
		t.Errorf("a block that continues a lone read: %v, %d windows; want it read alone", reads, w)
	}
}

// Two blocks a window is about to serve are corrupted on the platter; the
// window reads them bad, and one of them is then put right on the platter.
// Each fails its check out of the window and takes the per-block read:
// BatchFallbacks counts both, the one still bad is refused with the
// checksum error a Read gives, and the one put right reads right.
func TestReadaheadWindowBadBlockTakesThePerBlockRead(t *testing.T) {
	d, _, l, ids, want := streamLLD(t, sizes(200, 4096))
	bad, mended := ids[20], ids[30]
	good := make([]byte, 4096)
	if err := d.ReadAt(good, platterOff(l, mended)); err != nil || !bytes.Equal(good, want[mended]) {
		t.Fatal("cannot read the block to mend back", err)
	}
	d.CorruptRange(platterOff(l, bad)+100, 64, 0xFF)
	d.CorruptRange(platterOff(l, mended)+100, 64, 0xFF)
	for _, b := range ids[:3] {
		readOne(t, l, b, want[b])
	}
	if w := l.Stats().ReadaheadWindows; w != 1 {
		t.Fatalf("%d windows after three reads in a row, want 1", w)
	}
	if err := d.WriteAt(good, platterOff(l, mended)); err != nil {
		t.Fatal(err)
	}
	before := l.Stats()
	res, bufs := batchRead(t, l, []ld.BlockID{bad})
	if !errors.Is(res[0].Err, ld.ErrCorrupt) {
		t.Errorf("the bad block read %d bytes, %v; want the checksum error", res[0].N, res[0].Err)
	}
	res, bufs = batchRead(t, l, []ld.BlockID{mended})
	if res[0].Err != nil || !bytes.Equal(bufs[0][:res[0].N], want[mended]) {
		t.Errorf("the mended block read %d bytes, %v; want its bytes", res[0].N, res[0].Err)
	}
	s := l.Stats()
	if f, c := s.BatchFallbacks-before.BatchFallbacks, s.CorruptReads-before.CorruptReads; f != 2 || c != 1 {
		t.Errorf("BatchFallbacks +%d, CorruptReads +%d; want 2 and 1", f, c)
	}
	if s.ReadaheadWindows != before.ReadaheadWindows {
		t.Errorf("%d more windows for blocks the window held", s.ReadaheadWindows-before.ReadaheadWindows)
	}
}
