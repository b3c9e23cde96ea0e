package lld

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/mdisk"
)

// These tests hold the multi-block reader (readStoredBatch: ReadBlocks,
// Reorganize) to its contract: every entry is what a Read of that block
// alone gives, and the device sees one ascending sweep of few requests.

// batchRead is one ReadBlocks over bs into fresh full-size buffers.
func batchRead(t *testing.T, l *LLD, bs []ld.BlockID) ([]ld.BlockRead, [][]byte) {
	t.Helper()
	bufs := make([][]byte, len(bs))
	for i := range bufs {
		bufs[i] = make([]byte, l.MaxBlockSize())
	}
	res, err := l.ReadBlocks(bs, bufs)
	if err != nil {
		t.Fatalf("ReadBlocks: %v", err)
	}
	if len(res) != len(bs) {
		t.Fatalf("%d results for %d blocks", len(res), len(bs))
	}
	return res, bufs
}

// readCounters are the statistics a client read moves.
type readCounters struct {
	corrupt, degraded, heals, blocks, bytes int64
}

func (l *LLD) readCounters() readCounters {
	s := l.Stats()
	return readCounters{s.CorruptReads, s.DegradedReads, s.SelfHeals, s.BlocksRead, s.UserBytesRead}
}

func (a readCounters) minus(b readCounters) readCounters {
	return readCounters{a.corrupt - b.corrupt, a.degraded - b.degraded, a.heals - b.heals, a.blocks - b.blocks, a.bytes - b.bytes}
}

// checkBatchMatchesReads holds one ReadBlocks over bs against a Read of each
// entry made right after it: N, bytes, the error, and what either pass added
// to the read counters. It returns the batch's results.
func checkBatchMatchesReads(t *testing.T, l *LLD, bs []ld.BlockID) []ld.BlockRead {
	t.Helper()
	c0 := l.readCounters()
	res, bufs := batchRead(t, l, bs)
	c1 := l.readCounters()
	buf := make([]byte, l.MaxBlockSize())
	for i, b := range bs {
		n, err := l.Read(b, buf)
		got := res[i]
		if fmt.Sprint(got.Err) != fmt.Sprint(err) ||
			errors.Is(got.Err, ld.ErrCorrupt) != errors.Is(err, ld.ErrCorrupt) ||
			errors.Is(got.Err, ld.ErrBadBlock) != errors.Is(err, ld.ErrBadBlock) {
			t.Fatalf("entry %d (block %d): batch error %v, Read error %v", i, b, got.Err, err)
		}
		if got.N != n || !bytes.Equal(bufs[i][:got.N], buf[:n]) {
			t.Fatalf("entry %d (block %d): batch returned %d bytes, Read %d, or they differ", i, b, got.N, n)
		}
	}
	c2 := l.readCounters()
	if batch, seq := c1.minus(c0), c2.minus(c1); batch != seq {
		t.Fatalf("counters moved %+v over the batch and %+v over the same Reads", batch, seq)
	}
	return res
}

// Random histories — writes of every size, a Compress-hinted list, deletes,
// flushes, forced cleaning, on half the seeds rotted media — then random
// batches naming live blocks (some still in the open segment, some twice),
// NilBlock, ids out of range and freed ids: every entry and every counter is
// what the same Reads give.
func TestReadBlocksMatchesSequentialReads(t *testing.T) {
	var extents, fromMemory, corrupt int64
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, l := newTestLLD(t, 4<<20, segIOOptions())
		lists := []ld.ListID{
			mustNewList(t, l, ld.NilList, ld.ListHints{}),
			mustNewList(t, l, ld.NilList, ld.ListHints{Cluster: true}),
			mustNewList(t, l, ld.NilList, ld.ListHints{Compress: true}),
		}
		payload := func() []byte {
			var p []byte
			switch rng.Intn(6) {
			case 0:
				return nil
			case 1:
				p = make([]byte, 1+rng.Intn(600))
			case 2:
				p = make([]byte, 4096)
			case 3: // compressible
				return bytes.Repeat([]byte{byte(rng.Intn(256))}, 64+rng.Intn(4033))
			default:
				p = make([]byte, 1+rng.Intn(4096))
			}
			rng.Read(p)
			return p
		}
		var ids, freed []ld.BlockID
		listOf := make(map[ld.BlockID]ld.ListID)
		write := func(b ld.BlockID) { mustWrite(t, l, b, payload()) }
		for op := 0; op < 1500; op++ {
			switch p := rng.Intn(100); {
			case len(ids) < 8 || (p < 20 && len(ids) < 250):
				lid := lists[rng.Intn(len(lists))]
				b := mustNewBlock(t, l, lid, ld.NilBlock)
				ids, listOf[b] = append(ids, b), lid
				if rng.Intn(10) > 0 { // one in ten stays unwritten
					write(b)
				}
			case p < 80:
				write(ids[rng.Intn(len(ids))])
			case p < 86:
				i := rng.Intn(len(ids))
				b := ids[i]
				if err := l.DeleteBlock(b, listOf[b], ld.NilBlock); err != nil {
					t.Fatal(err)
				}
				ids = append(ids[:i], ids[i+1:]...)
				freed = append(freed, b)
			case p < 93:
				if err := l.Flush(ld.FailPower); err != nil {
					t.Fatal(err)
				}
			default:
				if _, err := l.Clean(1 + rng.Intn(2)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if seed%2 == 0 {
			if err := l.Flush(ld.FailPower); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6; i++ {
				b := ids[rng.Intn(len(ids))]
				if bi := &l.blocks[b]; bi.hasData() && bi.stored > 0 && l.segs[l.segOf(bi)].state == segLive {
					d.CorruptRange(platterOff(l, b)+int64(rng.Intn(int(bi.stored))), 1, 0x5a)
				}
			}
		}
		for i := 0; i < 10; i++ { // the newest versions sit in the open segment
			write(ids[rng.Intn(len(ids))])
		}
		if l.cur == nil {
			t.Fatalf("seed %d: no open segment for the batches to read from", seed)
		}

		for batch := 0; batch < 40; batch++ {
			bs := make([]ld.BlockID, 1+rng.Intn(80))
			for i := range bs {
				switch p := rng.Intn(100); {
				case p < 80:
					bs[i] = ids[rng.Intn(len(ids))]
				case p < 84:
					bs[i] = ld.NilBlock
				case p < 88:
					bs[i] = ld.BlockID(l.MaxBlocks() + 1 + rng.Intn(1000))
				case p < 94 && len(freed) > 0:
					bs[i] = freed[rng.Intn(len(freed))] // freed, or since handed out again
				default:
					bs[i] = bs[rng.Intn(i+1)] // a block named twice (or itself: zero, NilBlock)
				}
				if int(bs[i]) < len(l.blocks) {
					if bi := &l.blocks[bs[i]]; bi.allocated() && bi.hasData() && l.segOf(bi) == l.cur.id {
						fromMemory++
					}
				}
			}
			for _, r := range checkBatchMatchesReads(t, l, bs) {
				if errors.Is(r.Err, ld.ErrCorrupt) {
					corrupt++
				}
			}
		}
		extents += l.Stats().BatchExtents
		if viol := l.CheckInvariants(); len(viol) != 0 {
			t.Fatalf("seed %d: %v", seed, viol)
		}
	}
	if extents == 0 || fromMemory == 0 || corrupt == 0 {
		t.Errorf("%d extents, %d entries from the open segment, %d corrupt entries: the batches missed a path", extents, fromMemory, corrupt)
	}
}

// On a single disk, one rotted sector inside a multi-block extent fails
// exactly the blocks that have bytes on it; their extent-mates get their
// data out of the same request.
func TestReadBlocksRottedSectorFailsOnlyTheBlocksOnIt(t *testing.T) {
	d, l := newTestLLD(t, 4<<20, segIOOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	var ids []ld.BlockID
	want := make(map[ld.BlockID][]byte)
	const nBlocks, size = 28, 3500 // neighbours share sectors
	for i := 0; i < nBlocks; i++ {
		b := mustNewBlock(t, l, lid, ld.NilBlock)
		want[b] = bytes.Repeat([]byte{byte(i + 1)}, size)
		mustWrite(t, l, b, want[b])
		ids = append(ids, b)
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	seg := l.blockSeg(ids[0])
	if l.segs[seg].state != segLive || l.blockSeg(ids[nBlocks-1]) != seg {
		t.Fatal("the blocks are not in one sealed segment")
	}
	ss := int64(d.SectorSize())
	rot := platterOff(l, ids[11]) / ss * ss // the sector block 10 ends and block 11 starts in
	d.CorruptRange(rot, ss, 0xA5)
	bad := make(map[ld.BlockID]bool)
	for _, b := range ids {
		if off := platterOff(l, b); off < rot+ss && off+size > rot {
			bad[b] = true
		}
	}
	if len(bad) != 2 {
		t.Fatalf("%d blocks overlap the rotted sector, want 2", len(bad))
	}

	bs := append([]ld.BlockID(nil), ids...)
	rand.New(rand.NewSource(1)).Shuffle(len(bs), func(i, j int) { bs[i], bs[j] = bs[j], bs[i] })
	before, reads := l.Stats(), d.Stats().Reads
	res := checkBatchMatchesReads(t, l, bs)
	for i, b := range bs {
		if errors.Is(res[i].Err, ld.ErrCorrupt) != bad[b] {
			t.Errorf("block %d (on the rotted sector: %v): %v", b, bad[b], res[i].Err)
		}
	}
	s := l.Stats()
	if ext, fb := s.BatchExtents-before.BatchExtents, s.BatchFallbacks-before.BatchFallbacks; ext != 1 || fb != 2 {
		t.Errorf("%d extents and %d fallbacks, want 1 and 2", ext, fb)
	}
	if got, want := s.BatchExtentBytes-before.BatchExtentBytes, (nBlocks*size+ss-1)/ss*ss; got != want {
		t.Errorf("the extent read %d bytes, want the %d the blocks span", got, want)
	}
	// The batch's own requests: the extent and the two per-block reads
	// (checkBatchMatchesReads then made one per block).
	if got := d.Stats().Reads - reads - int64(len(bs)); got != 3 {
		t.Errorf("the batch issued %d requests, want 3", got)
	}
}

// An unreadable sector among the dead bytes an extent crosses fails that
// request and no entry: the blocks on either side are read one by one.
func TestReadBlocksUnreadableDeadGapFailsNoEntry(t *testing.T) {
	d, _, l := newLoggedLLD(t, segIOOptions())
	victim, want := hollowVictim(t, l, 2, 3, 20, 22)
	d.InjectUnreadable((l.lay.segOff(victim)+21*4096+1024)/int64(d.SectorSize()), 1)
	var bs []ld.BlockID
	for b := range want {
		bs = append(bs, b)
	}
	before := l.Stats()
	for i, r := range checkBatchMatchesReads(t, l, bs) {
		if r.Err != nil || r.N != 4096 {
			t.Errorf("block %d: %d bytes, %v", bs[i], r.N, r.Err)
		}
	}
	if fb := l.Stats().BatchFallbacks - before.BatchFallbacks; fb != 2 {
		t.Errorf("%d blocks fell back, want the two on either side of the bad sector", fb)
	}
	checkReads(t, l, want)
}

// newMirrorLLD formats and opens an LLD on a two-way mirror of plain disks.
func newMirrorLLD(t *testing.T, opts Options) ([]*disk.Disk, *mdisk.Mirror, *LLD) {
	t.Helper()
	legs := []*disk.Disk{disk.New(disk.DefaultConfig(4 << 20)), disk.New(disk.DefaultConfig(4 << 20))}
	m, err := mdisk.NewMirror(legs[0], legs[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := Format(m, opts); err != nil {
		t.Fatal(err)
	}
	l, err := Open(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return legs, m, l
}

// On a mirror with one leg's copy of one block rotted, a batch returns the
// right bytes whichever leg its extent starts on, and the one that starts on
// the rotted leg heals it — that block's sectors, through the per-block read,
// though the rotation then offers the good leg first: one heal, and a scrub
// afterwards finds nothing.
func TestReadBlocksHealsARottedMirrorCopy(t *testing.T) {
	legs, m, l := newMirrorLLD(t, testOptions())
	ids, want := fillBlocks(t, l, 12)
	x, _ := neighbours(t, l, ids)
	var bs []ld.BlockID
	for _, b := range ids {
		if l.blockSeg(b) == l.blockSeg(x) {
			bs = append(bs, b)
		}
	}
	if len(bs) < 3 || l.segs[l.blockSeg(x)].state != segLive {
		t.Fatalf("%d blocks share block %d's segment, state %d; want a sealed extent", len(bs), x, l.segs[l.blockSeg(x)].state)
	}
	legs[0].CorruptRange(platterOff(l, x)+100, 64, 0xFF)

	before := l.Stats()
	for pass := 0; pass < 2; pass++ { // one request each, so the two start on different legs
		res, bufs := batchRead(t, l, bs)
		for i, b := range bs {
			if res[i].Err != nil || !bytes.Equal(bufs[i][:res[i].N], want[b]) {
				t.Fatalf("pass %d, block %d: %d bytes, %v", pass, b, res[i].N, res[i].Err)
			}
		}
	}
	s := l.Stats()
	if ext, fb := s.BatchExtents-before.BatchExtents, s.BatchFallbacks-before.BatchFallbacks; ext != 2 || fb != 1 {
		t.Errorf("%d extents and %d fallbacks over two batches, want 2 and 1", ext, fb)
	}
	if heals, deg := s.SelfHeals-before.SelfHeals, s.DegradedReads-before.DegradedReads; heals != 1 || deg != 1 || m.Stats().Heals != 1 {
		t.Errorf("SelfHeals +%d, DegradedReads +%d, mirror heals %d; want 1 each", heals, deg, m.Stats().Heals)
	}
	if s.CorruptReads != before.CorruptReads {
		t.Errorf("CorruptReads +%d for a block with a good copy", s.CorruptReads-before.CorruptReads)
	}
	res, err := l.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Corrupt) != 0 || l.Stats().ScrubHeals != 0 || m.Stats().Heals != 1 {
		t.Errorf("scrub after the batches found %v corrupt and healed %d copies", res.Corrupt, l.Stats().ScrubHeals)
	}
	for _, leg := range legs {
		legHolds(t, l, leg, x, want[x])
	}
}

// victimBlocks returns the blocks mapped into segment seg, in offset order.
func victimBlocks(l *LLD, want map[ld.BlockID][]byte, seg int) []ld.BlockID {
	var in []ld.BlockID
	for b := range want {
		if l.blockSeg(b) == seg {
			in = append(in, b)
		}
	}
	sort.Slice(in, func(i, j int) bool { return l.blockOff(in[i]) < l.blockOff(in[j]) })
	return in
}

// legHolds fails unless leg's own copy of block b is data.
func legHolds(t *testing.T, l *LLD, leg *disk.Disk, b ld.BlockID, data []byte) {
	t.Helper()
	buf := make([]byte, len(data))
	if err := leg.ReadAt(buf, platterOff(l, b)); err != nil || !bytes.Equal(buf, data) {
		t.Fatalf("the leg holds a bad copy of block %d (%v)", b, err)
	}
}

// An extent crosses live blocks its caller did not name, and checks none of
// them, so nothing it finds may rewrite a replica over its range. Leg 0 has
// rot in a named block and leg 1 in the unnamed one between the two named:
// whichever leg the extent starts on, every entry reads right, leg 0 keeps
// the last good copy of the unnamed block, and only the named block's own
// sectors are healed.
func TestReadBlocksExtentNeverRewritesAnUnnamedBlock(t *testing.T) {
	legs, m, l := newMirrorLLD(t, segIOOptions())
	victim, want := hollowVictim(t, l, 3, 4, 5)
	in := victimBlocks(l, want, victim)
	if len(in) != 3 {
		t.Fatalf("%d blocks left in the victim, want 3", len(in))
	}
	named, unnamed := []ld.BlockID{in[2], in[0]}, in[1]
	legs[0].CorruptRange(platterOff(l, in[0])+100, 64, 0xFF)
	legs[1].CorruptRange(platterOff(l, unnamed)+100, 64, 0xFF)
	before := l.Stats()
	for pass := 0; pass < 2; pass++ {
		res, bufs := batchRead(t, l, named)
		for i, b := range named {
			if res[i].Err != nil || !bytes.Equal(bufs[i][:res[i].N], want[b]) {
				t.Fatalf("pass %d, block %d: %d bytes, %v", pass, b, res[i].N, res[i].Err)
			}
		}
		legHolds(t, l, legs[0], unnamed, want[unnamed])
	}
	s := l.Stats()
	if ext, fb, heals := s.BatchExtents-before.BatchExtents, s.BatchFallbacks-before.BatchFallbacks, s.SelfHeals-before.SelfHeals; ext != 2 || fb != 1 || heals != 1 || m.Stats().Heals != 1 {
		t.Errorf("%d extents, %d fallbacks, SelfHeals +%d, mirror heals %d; want 2, 1, 1, 1", ext, fb, heals, m.Stats().Heals)
	}
	legHolds(t, l, legs[0], in[0], want[in[0]])
	// The unnamed block is still one good copy and one rotted: its own reads
	// find and heal that.
	for i := 0; i < 2; i++ {
		if got := mustRead(t, l, unnamed); !bytes.Equal(got, want[unnamed]) {
			t.Fatalf("block %d reads wrong after the batches", unnamed)
		}
	}
	legHolds(t, l, legs[1], unnamed, want[unnamed])
}

// A mirror answers a leg's read error by rewriting that leg from the sibling
// that served the request — bytes nobody has checked. Were that the whole
// request range, an extent would let it copy one leg's rotted block over the
// other's good copy, a loss the same Reads cannot cause; the mirror rewrites
// only the sectors that did not read. Leg 0 has an unreadable sector in a
// dead gap and leg 1 a rotted block on the far side of it: whichever leg the
// extent starts on, every entry reads right and leg 0 keeps its good copy.
func TestReadBlocksNeverLaundersRotAcrossMirrorLegs(t *testing.T) {
	legs, _, l := newMirrorLLD(t, segIOOptions())
	victim, want := hollowVictim(t, l, 20, 22)
	in := victimBlocks(l, want, victim)
	if len(in) != 2 {
		t.Fatalf("%d blocks left in the victim, want 2", len(in))
	}
	rotted := in[1]
	legs[0].InjectUnreadable((l.lay.segOff(victim)+21*4096+1024)/int64(legs[0].SectorSize()), 1)
	legs[1].CorruptRange(platterOff(l, rotted)+100, 64, 0xFF)
	for pass := 0; pass < 2; pass++ {
		res, bufs := batchRead(t, l, in)
		for i, b := range in {
			if res[i].Err != nil || !bytes.Equal(bufs[i][:res[i].N], want[b]) {
				t.Fatalf("pass %d, block %d: %d bytes, %v", pass, b, res[i].N, res[i].Err)
			}
		}
		legHolds(t, l, legs[0], rotted, want[rotted])
	}
}

// ascendingReads fails unless every request lies after the one before it.
func ascendingReads(t *testing.T, reads []ioOp) {
	t.Helper()
	for i := 1; i < len(reads); i++ {
		if reads[i].off < reads[i-1].end() {
			t.Fatalf("request %d %v does not lie after request %d %v", i, reads[i], i-1, reads[i-1])
		}
	}
}

// What the device sees. A thousand blocks written in list order come back in
// a request or two per segment; blocks scattered by random overwrites come
// back in no more requests than blocks; a quarantined segment's blocks cost
// no request at all. Both hold whether the disk serves a batch soonest first
// or in platter order; in platter order the requests are the ascending sweep
// they were cut in.
func TestReadBlocksRequestShape(t *testing.T) {
	t.Run("list order", func(t *testing.T) {
		forEachOrder(t, func(t *testing.T, be disk.Backend, sweep bool) {
			rec, l := openLogged(t, be, segIOOptions())
			lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
			var ids []ld.BlockID
			prev := ld.NilBlock
			for i := 0; i < 1000; i++ {
				b := mustNewBlock(t, l, lid, prev)
				mustWrite(t, l, b, bytes.Repeat([]byte{byte(i)}, 2048))
				ids, prev = append(ids, b), b
			}
			if err := l.Flush(ld.FailPower); err != nil {
				t.Fatal(err)
			}
			segs := make(map[int]bool)
			for _, b := range ids {
				if bi := &l.blocks[b]; l.segs[l.segOf(bi)].state == segLive {
					segs[l.segOf(bi)] = true
				}
			}
			rec.take('r')
			res, _ := batchRead(t, l, ids)
			for i, r := range res {
				if r.Err != nil || r.N != 2048 {
					t.Fatalf("block %d: %d bytes, %v", ids[i], r.N, r.Err)
				}
			}
			reads := rec.take('r')
			if sweep {
				ascendingReads(t, reads)
			}
			if len(segs) < 15 || len(reads) == 0 || len(reads) > 2*len(segs) {
				t.Errorf("%d requests for 1,000 blocks in %d sealed segments, want at most two a segment", len(reads), len(segs))
			}
		})
	})
	t.Run("scattered", func(t *testing.T) {
		forEachOrder(t, func(t *testing.T, be disk.Backend, sweep bool) {
			rec, l := openLogged(t, be, segIOOptions())
			ids, _ := fillBlocks(t, l, 400)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 600; i++ {
				mustWrite(t, l, ids[rng.Intn(len(ids))], bytes.Repeat([]byte{byte(i)}, 4096))
			}
			if err := l.Flush(ld.FailPower); err != nil {
				t.Fatal(err)
			}
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			bs := ids[:256]
			rec.take('r')
			res, _ := batchRead(t, l, bs)
			for i, r := range res {
				if r.Err != nil || r.N != 4096 {
					t.Fatalf("block %d: %d bytes, %v", bs[i], r.N, r.Err)
				}
			}
			reads := rec.take('r')
			if sweep {
				ascendingReads(t, reads)
			}
			if len(reads) == 0 || len(reads) > len(bs) {
				t.Errorf("%d requests for %d scattered blocks", len(reads), len(bs))
			}
			t.Logf("%d scattered blocks read in %d requests", len(bs), len(reads))
		})
	})
	t.Run("quarantined", func(t *testing.T) {
		d, l, target, want, _ := damagedImage(t)
		var bs []ld.BlockID
		for b := range want {
			if bi := &l.blocks[b]; bi.allocated() && bi.hasData() && l.segOf(bi) == target {
				bs = append(bs, b)
			}
		}
		if len(bs) < 2 || l.segs[target].state != segQuarantined {
			t.Fatalf("%d blocks in segment %d, state %d; want a quarantined segment with blocks", len(bs), target, l.segs[target].state)
		}
		before := d.Stats().Reads
		for i, r := range checkBatchMatchesReads(t, l, bs) {
			if !errors.Is(r.Err, ld.ErrCorrupt) {
				t.Errorf("block %d of the quarantined segment: %v", bs[i], r.Err)
			}
		}
		if got := d.Stats().Reads - before; got != 0 {
			t.Errorf("%d device requests for a quarantined segment's blocks", got)
		}
	})
}

// Reorganize fetches each segment's worth of a scattered list in one batch:
// fewer requests than blocks, and the list reads back whole. In platter order
// each run's requests ascend.
func TestReorganizeReadsEachRunInPlatterOrder(t *testing.T) {
	forEachOrder(t, reorganizeReadsEachRun)
}

func reorganizeReadsEachRun(t *testing.T, be disk.Backend, sweep bool) {
	rec, l := openLogged(t, be, segIOOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{Cluster: true})
	const nBlocks = 300
	var ids []ld.BlockID
	want := make(map[ld.BlockID][]byte)
	prev := ld.NilBlock
	put := func(b ld.BlockID, fill byte) {
		want[b] = bytes.Repeat([]byte{fill}, 2048)
		mustWrite(t, l, b, want[b])
	}
	for i := 0; i < nBlocks; i++ {
		b := mustNewBlock(t, l, lid, prev)
		put(b, byte(i))
		ids, prev = append(ids, b), b
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2*nBlocks; i++ {
		put(ids[rng.Intn(nBlocks)], byte(rng.Intn(256)))
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}

	perRun := l.lay.dataCap() / l.lay.maxBlockSize
	runs := (nBlocks + perRun - 1) / perRun
	rec.take('r')
	before := l.Stats()
	if err := l.Reorganize(runs); err != nil {
		t.Fatal(err)
	}
	s := l.Stats()
	reads := rec.take('r')
	// The victims' reads come after the last run's: the cleaning follows the
	// rewriting.
	reads = reads[:len(reads)-int(s.CleanReads-before.CleanReads)]
	if len(reads) == 0 || len(reads) >= nBlocks {
		t.Errorf("reorganizing %d blocks issued %d read requests, want fewer than blocks", nBlocks, len(reads))
	}
	descents := 0
	for i := 1; i < len(reads); i++ {
		if reads[i].off < reads[i-1].end() {
			descents++
		}
	}
	if sweep && descents >= runs {
		t.Errorf("the reads turned back %d times over %d runs, want each run ascending", descents, runs)
	}
	if s.BatchExtents == before.BatchExtents {
		t.Error("no extent was read")
	}
	t.Logf("%d blocks in %d runs: %d requests, %d of them extents", nBlocks, runs, len(reads), s.BatchExtents-before.BatchExtents)

	got, err := l.ListBlocks(lid)
	if err != nil || len(got) != nBlocks {
		t.Fatalf("ListBlocks: %d blocks, %v", len(got), err)
	}
	for i := 1; i < nBlocks; i++ { // list order is log order now
		a, b := &l.blocks[got[i-1]], &l.blocks[got[i]]
		if l.segOf(a) == l.segOf(b) && l.offOf(b) != l.offOf(a)+uint32(a.stored) {
			t.Fatalf("blocks %d and %d of the list are not adjacent in segment %d", got[i-1], got[i], l.segOf(a))
		}
	}
	checkReads(t, l, want)
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatal(viol)
	}
}
