package lld

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
)

// These tests hold the read-ahead window (readahead.go) to its contract: a
// stream of batches that continue each other along the platter costs one
// request a window, every entry is still what a Read of the block gives,
// and nothing else — random batches, the single-block Read — moves.

// readOne is one ReadBlocks of b alone, its bytes checked against want.
func readOne(t *testing.T, l *LLD, b ld.BlockID, want []byte) {
	t.Helper()
	res, bufs := batchRead(t, l, []ld.BlockID{b})
	if res[0].Err != nil || !bytes.Equal(bufs[0][:res[0].N], want) {
		t.Fatalf("block %d: %d bytes, %v", b, res[0].N, res[0].Err)
	}
}

// A thousand 1-KB blocks written back to back, read back one ReadBlocks
// each in log order, as a file system reads small files: the first read is
// its own request, the second starts where the first ended and fills the
// window, and from then on one request serves 128 blocks. A Read of each
// afterwards costs its request, window or not.
func TestReadaheadServesAStreamOneWindowARequest(t *testing.T) {
	d := disk.New(disk.DefaultConfig(16 << 20))
	rec := &ioLog{Backend: d}
	opts := DefaultOptions()
	if err := Format(rec, opts); err != nil {
		t.Fatal(err)
	}
	l, err := Open(rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	const n, size = 1000, 1024
	ids := make([]ld.BlockID, n)
	want := make(map[ld.BlockID][]byte, n)
	prev := ld.NilBlock
	for i := range ids {
		ids[i] = mustNewBlock(t, l, lid, prev)
		want[ids[i]] = bytes.Repeat([]byte{byte(i), byte(i >> 8)}, size/2)
		mustWrite(t, l, ids[i], want[ids[i]])
		prev = ids[i]
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	seg := l.blocks[ids[0]].seg
	var stream []ld.BlockID // the blocks of the first, sealed segment
	for _, b := range ids {
		if l.blocks[b].seg == seg {
			stream = append(stream, b)
		}
	}
	if l.segs[seg].state != segLive || len(stream) < 3*readaheadWindow/size {
		t.Fatalf("%d blocks in segment %d (state %d); want a sealed segment of several windows", len(stream), seg, l.segs[seg].state)
	}

	rec.take('r')
	before := l.Stats()
	for _, b := range stream {
		readOne(t, l, b, want[b])
	}
	s, reads := l.Stats(), rec.take('r')
	windows, hits := s.ReadaheadWindows-before.ReadaheadWindows, s.ReadaheadHits-before.ReadaheadHits
	perWindow := readaheadWindow / size
	wantWindows := int64((len(stream) - 1 + perWindow - 1) / perWindow)
	if windows != wantWindows || hits != int64(len(stream)-1)-windows || int64(len(reads)) != 1+windows {
		t.Errorf("%d blocks: %d requests, %d windows, %d hits; want %d, %d, %d",
			len(stream), len(reads), windows, hits, 1+wantWindows, wantWindows, int64(len(stream)-1)-wantWindows)
	}
	ascendingReads(t, reads)
	for _, r := range reads[1 : len(reads)-1] {
		if r.n != readaheadWindow {
			t.Errorf("window request %v, want %d bytes", r, readaheadWindow)
		}
	}
	if last := reads[len(reads)-1]; last.end() > l.lay.segOff(int(seg))+int64(l.lay.dataCap()) {
		t.Errorf("last window %v runs past the segment's data area", last)
	}

	before = l.Stats()
	for _, b := range stream {
		if got := mustRead(t, l, b); !bytes.Equal(got, want[b]) {
			t.Fatalf("Read(%d) differs", b)
		}
	}
	s, reads = l.Stats(), rec.take('r')
	if len(reads) != len(stream) || s.ReadaheadWindows != before.ReadaheadWindows || s.ReadaheadHits != before.ReadaheadHits {
		t.Errorf("%d Reads: %d requests, %d windows, %d hits; want one request each and the window untouched",
			len(stream), len(reads), s.ReadaheadWindows-before.ReadaheadWindows, s.ReadaheadHits-before.ReadaheadHits)
	}
}

// forgeCRC rewrites the last four bytes of p so that payloadCRC(p) == want.
// A CRC is affine over GF(2): flipping one bit of the tail flips a fixed
// set of checksum bits, and the 32 tail bits reach every checksum.
func forgeCRC(t *testing.T, p []byte, want uint32) {
	t.Helper()
	tail := p[len(p)-4:]
	clear(tail)
	base := payloadCRC(p)
	var basis, combo [32]uint32 // basis[b] has top bit b; combo: the tail bits that make it
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(tail, 1<<i)
		v, m := payloadCRC(p)^base, uint32(1)<<i
		for b := 31; b >= 0 && v != 0; b-- {
			if v>>b&1 == 0 {
				continue
			}
			if basis[b] == 0 {
				basis[b], combo[b] = v, m
				break
			}
			v, m = v^basis[b], m^combo[b]
		}
	}
	var x uint32
	for target, b := want^base, 31; b >= 0; b-- {
		if target>>b&1 != 0 {
			target, x = target^basis[b], x^combo[b]
		}
	}
	binary.LittleEndian.PutUint32(tail, x)
	if payloadCRC(p) != want {
		t.Fatalf("could not forge checksum %08x", want)
	}
}

// A window outlives nothing it describes. Fill one over segment S, clean S,
// reopen it and write into it, at offsets the window covers, blocks whose
// checksums equal those of the retired bytes there — the one case the
// per-block check cannot catch — and ReadBlocks must return the new bytes.
// Only openNewSegment's drop keeps the window from serving the old ones.
func TestReadaheadWindowDiesWithItsSegment(t *testing.T) {
	d, _, l := newLoggedLLD(t, segIOOptions())
	ids, want := fillBlocks(t, l, l.lay.dataCap()/4096)
	s := int(l.blocks[ids[0]].seg)
	if l.segs[s].state != segLive || l.blocks[ids[len(ids)-1]].seg != int32(s) {
		t.Fatalf("segment %d state %d: want one sealed segment holding every block", s, l.segs[s].state)
	}
	readOne(t, l, ids[0], want[ids[0]])
	readOne(t, l, ids[1], want[ids[1]])
	if w := l.Stats().ReadaheadWindows; w != 1 {
		t.Fatalf("%d windows after two reads in a row, want 1", w)
	}
	winLo, winEnd := l.blocks[ids[1]].off, uint32(l.lay.dataCap())
	old := make([]byte, l.lay.dataCap())
	if err := d.ReadAt(old, l.lay.segOff(s)); err != nil {
		t.Fatal(err)
	}

	// Retire S: every block freed, the empty victim cleaned and released.
	lid := l.blocks[ids[0]].lid
	for _, b := range ids {
		if err := l.DeleteBlock(b, lid, ld.NilBlock); err != nil {
			t.Fatal(err)
		}
	}
	if err := cleanVictim(l, s); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	err := l.checkpoint() // S was opened since the last one: this releases it
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	filler := mustNewList(t, l, ld.NilList, ld.ListHints{})
	put := func(lid ld.ListID, p []byte) ld.BlockID {
		b := mustNewBlock(t, l, lid, ld.NilBlock)
		mustWrite(t, l, b, p)
		return b
	}
	junk := func() []byte {
		p := make([]byte, 4096)
		rng.Read(p)
		return p
	}
	put(filler, junk())
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	if l.segs[s].state != segFree {
		t.Fatalf("segment %d state %d after cleaning, want free", s, l.segs[s].state)
	}

	// Reopen S and write the look-alikes where the window lies.
	for l.cur == nil || l.cur.id != s || l.cur.dataOff < int(winLo) {
		put(filler, junk())
		if l.segs[s].state == segLive {
			t.Fatalf("segment %d was reopened and sealed before reaching offset %d", s, winLo)
		}
	}
	fresh := make(map[ld.BlockID][]byte)
	for i := 0; i < 4; i++ {
		off := uint32(l.cur.dataOff)
		p := junk()
		forgeCRC(t, p, payloadCRC(old[off:off+4096]))
		if off+4096 > winEnd || bytes.Equal(p, old[off:off+4096]) {
			t.Fatalf("look-alike at %d is outside the window or not new", off)
		}
		fresh[put(lid, p)] = p
	}
	for l.segs[s].state != segLive {
		put(filler, junk())
	}
	for b, p := range fresh {
		if l.blocks[b].seg != int32(s) {
			t.Fatalf("block %d went to segment %d, not %d", b, l.blocks[b].seg, s)
		}
		readOne(t, l, b, p)
	}
	checkReads(t, l, fresh)
}

// On a mirror, leg 0's copy of one block and leg 1's copy of its neighbour
// are rotted, so whichever leg serves the window holds one bad block. That
// block fails its check out of the window and takes the per-block read,
// which heals the rotted leg; every entry reads right and no read is
// refused.
func TestReadaheadHealsARottedMirrorCopy(t *testing.T) {
	legs, m, l := newMirrorLLD(t, segIOOptions())
	ids, want := fillBlocks(t, l, l.lay.dataCap()/4096)
	if seg := l.blocks[ids[0]].seg; l.segs[seg].state != segLive || l.blocks[ids[len(ids)-1]].seg != seg {
		t.Fatal("the blocks are not in one sealed segment")
	}
	x, y := ids[5], ids[6]
	legs[0].CorruptRange(platterOff(l, x)+100, 64, 0xFF)
	legs[1].CorruptRange(platterOff(l, y)+100, 64, 0xFF)

	before := l.Stats()
	for _, b := range ids {
		readOne(t, l, b, want[b])
	}
	s := l.Stats()
	if w, h := s.ReadaheadWindows-before.ReadaheadWindows, s.ReadaheadHits-before.ReadaheadHits; w != 1 || h != int64(len(ids)-2) {
		t.Errorf("%d windows and %d hits over %d blocks, want 1 and %d", w, h, len(ids), len(ids)-2)
	}
	if heals, deg := s.SelfHeals-before.SelfHeals, s.DegradedReads-before.DegradedReads; heals != 1 || deg != 1 || m.Stats().Heals != 1 {
		t.Errorf("SelfHeals +%d, DegradedReads +%d, mirror heals %d; want 1 each", heals, deg, m.Stats().Heals)
	}
	if s.CorruptReads != before.CorruptReads {
		t.Errorf("CorruptReads +%d for blocks with a good copy", s.CorruptReads-before.CorruptReads)
	}
	good := func(leg *disk.Disk, b ld.BlockID) bool {
		buf := make([]byte, 4096)
		return leg.ReadAt(buf, platterOff(l, b)) == nil && bytes.Equal(buf, want[b])
	}
	if good(legs[0], x) == good(legs[1], y) {
		t.Errorf("healed: block %d on leg 0 %v, block %d on leg 1 %v; want exactly the one the window held", x, good(legs[0], x), y, good(legs[1], y))
	}
}

// Random two-block batches — a file read eight random KB at a time, no
// chunk straight after the one before — never continue each other, so
// they issue exactly the requests the sweep issued before there was a
// window: one per extent, or the per-block read for a block alone.
func TestReadaheadLeavesRandomBatchesAlone(t *testing.T) {
	_, rec, l := newLoggedLLD(t, segIOOptions())
	ids, want := fillBlocks(t, l, 256)
	ss := uint32(l.lay.sectorSize)
	// sweep is the platter-order request list of one batch without a window.
	sweep := func(bs []ld.BlockID) []ioOp {
		var spans []liveSpan
		for _, b := range bs {
			if bi := &l.blocks[b]; l.cur == nil || int(bi.seg) != l.cur.id {
				spans = append(spans, liveSpan{bid: b, seg: bi.seg, off: bi.off, stored: bi.stored})
			}
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].before(spans[j]) })
		var ops []ioOp
		for k := 0; k < len(spans); {
			end := k + 1
			for end < len(spans) && spans[end].seg == spans[k].seg {
				end++
			}
			for k < end {
				n, lo, hi := nextExtent(spans[k:end], ss)
				if n == 1 {
					off, span, _ := l.storedSpan(&l.blocks[spans[k].bid])
					ops = append(ops, ioOp{'r', off, span})
				} else {
					ops = append(ops, ioOp{'r', l.lay.segOff(int(spans[k].seg)) + int64(lo), int(hi - lo)})
				}
				k += n
			}
		}
		return ops
	}
	before := l.Stats()
	rec.take('r')
	chunks := len(ids) / 2
	for i := 0; i < chunks; i++ {
		k := (5 + 37*i) % chunks
		bs := ids[2*k : 2*k+2]
		expect := sweep(bs)
		res, bufs := batchRead(t, l, bs)
		for j, b := range bs {
			if res[j].Err != nil || !bytes.Equal(bufs[j][:res[j].N], want[b]) {
				t.Fatalf("chunk %d, block %d: %d bytes, %v", k, b, res[j].N, res[j].Err)
			}
		}
		if got := rec.take('r'); !slices.Equal(got, expect) {
			t.Fatalf("chunk %d: requests %v, want %v", k, got, expect)
		}
	}
	if s := l.Stats(); s.ReadaheadWindows != before.ReadaheadWindows || s.ReadaheadHits != before.ReadaheadHits {
		t.Errorf("random batches read %d windows and hit %d times", s.ReadaheadWindows-before.ReadaheadWindows, s.ReadaheadHits-before.ReadaheadHits)
	}
}

// Two readers stream two runs of blocks in order, one ReadBlocks a block,
// while a writer fills and seals segments (each openNewSegment drops a
// window) and a third reader reads with Read: under -race, every entry is
// right and the instance's invariants hold.
func TestReadaheadConcurrentStreams(t *testing.T) {
	_, l := newTestLLD(t, 16<<20, segIOOptions())
	ids, want := fillBlocks(t, l, 240)
	runs := [][]ld.BlockID{ids[:120], ids[120:]}
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for _, run := range runs {
		wg.Add(1)
		go func(run []ld.BlockID) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for _, b := range run {
					buf := make([]byte, 4096)
					res, err := l.ReadBlocks([]ld.BlockID{b}, [][]byte{buf})
					if err == nil {
						err = res[0].Err
					}
					if err == nil && !bytes.Equal(buf[:res[0].N], want[b]) {
						err = errors.New("wrong bytes")
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}(run)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		buf := make([]byte, 4096)
		for i := 0; i < 360; i++ {
			b := ids[(7*i)%len(ids)]
			if n, err := l.Read(b, buf); err != nil || !bytes.Equal(buf[:n], want[b]) {
				errs <- errors.New("Read returned wrong bytes")
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		p := bytes.Repeat([]byte{0xAB}, 4096)
		for i := 0; i < 200; i++ {
			b, err := l.NewBlock(lid, ld.NilBlock)
			if err == nil {
				err = l.Write(b, p)
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkReads(t, l, want)
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatal(viol)
	}
}
