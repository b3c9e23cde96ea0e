package lld

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
)

// These tests pin which bytes cross the arm when a segment is cleaned,
// flushed or sealed: only live ones and ones not yet on the platter, with a
// dead run crossed only when it is at most deadGapMax long.

// ioOp is one backend request as ioLog saw it.
type ioOp struct {
	op  byte // 'r' ReadAt, 'w' WriteAt, 'n' WriteAtNVRAM
	off int64
	n   int
}

func (o ioOp) end() int64 { return o.off + int64(o.n) }

func (o ioOp) String() string { return fmt.Sprintf("%c[%d,+%d)", o.op, o.off, o.n) }

// ioLog is a backend that records the shape of every request. lld owns no
// goroutine, so requests arrive on the test's.
type ioLog struct {
	disk.Backend
	ops []ioOp
}

func (b *ioLog) ReadAt(p []byte, off int64) error {
	b.ops = append(b.ops, ioOp{'r', off, len(p)})
	return b.Backend.ReadAt(p, off)
}

func (b *ioLog) WriteAt(p []byte, off int64) error {
	b.ops = append(b.ops, ioOp{'w', off, len(p)})
	return b.Backend.WriteAt(p, off)
}

func (b *ioLog) WriteAtNVRAM(p []byte, off int64) error {
	b.ops = append(b.ops, ioOp{'n', off, len(p)})
	return b.Backend.WriteAtNVRAM(p, off)
}

// take returns the requests of kind op logged since the last take.
func (b *ioLog) take(op byte) []ioOp {
	var out []ioOp
	for _, o := range b.ops {
		if o.op == op {
			out = append(out, o)
		}
	}
	b.ops = nil
	return out
}

// segIOOptions has a data area of 120 KB — thirty 4-KB blocks, several
// tracks — so a dead run can be longer than deadGapMax.
func segIOOptions() Options {
	o := testOptions()
	o.SegmentSize = 128 << 10
	return o
}

func newLoggedLLD(t *testing.T, opts Options) (*disk.Disk, *ioLog, *LLD) {
	t.Helper()
	d := disk.New(disk.DefaultConfig(4 << 20))
	rec, l := openLogged(t, d, opts)
	return d, rec, l
}

// openLogged formats be and opens an instance on it through an ioLog.
func openLogged(t *testing.T, be disk.Backend, opts Options) (*ioLog, *LLD) {
	t.Helper()
	rec := &ioLog{Backend: be}
	if err := Format(rec, opts); err != nil {
		t.Fatalf("format: %v", err)
	}
	l, err := Open(rec, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return rec, l
}

// hollowVictim seals one segment of thirty 4-KB blocks and then rewrites
// all of them but those at the positions in keep, leaving the first
// segment live with exactly the kept blocks in it. It returns the victim
// and what every block should read as.
func hollowVictim(t *testing.T, l *LLD, keep ...int) (victim int, want map[ld.BlockID][]byte) {
	t.Helper()
	ids, want := fillBlocks(t, l, l.lay.dataCap()/4096)
	victim = l.blockSeg(ids[0])
	if s := &l.segs[victim]; s.state != segLive || s.live != int64(l.lay.dataCap()) {
		t.Fatalf("segment %d: state %d, %d live bytes; want one sealed full segment", victim, s.state, s.live)
	}
	kept := make(map[int]bool)
	for _, i := range keep {
		kept[i] = true
	}
	for i, b := range ids {
		if !kept[i] {
			want[b] = bytes.Repeat([]byte{0xC0 | byte(i&0xF)}, 4096)
			mustWrite(t, l, b, want[b])
		}
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	if s := &l.segs[victim]; s.state != segLive || s.live != int64(len(keep))*4096 {
		t.Fatalf("segment %d: state %d, %d live bytes; want %d blocks left", victim, s.state, s.live, len(keep))
	}
	cleanEmptyBut(t, l, victim)
	return victim, want
}

func cleanVictim(l *LLD, victim int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cleaning = true
	defer func() { l.cleaning = false }()
	return l.cleanSegment(victim, new(cleanBufs))
}

// reopenSegment has the log open the cleaned segment v again. A checkpoint
// releases it if the cleaner holds it (a segment of the chain is held until
// one is durable), and the log, which opens segments in address order,
// opens it within a lap of the disk: fill appends to the open segment, and
// each segment it opened that is not v is sealed. v is the open segment on
// return unless fill sealed it.
func reopenSegment(t *testing.T, l *LLD, v int, fill func()) {
	t.Helper()
	if l.segs[v].state != segFree {
		l.mu.Lock()
		err := l.checkpoint()
		l.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if l.segs[v].state != segFree {
			t.Fatalf("segment %d in state %d after the checkpoint, want free", v, l.segs[v].state)
		}
	}
	for i := 0; l.segs[v].state == segFree; i++ {
		if l.cur != nil {
			sealOpen(t, l)
		}
		if i > 2*l.lay.nSegments {
			t.Fatalf("segment %d not reopened after %d seals", v, i)
		}
		fill()
	}
}

func checkReads(t *testing.T, l *LLD, want map[ld.BlockID][]byte) {
	t.Helper()
	for b, data := range want {
		if got := mustRead(t, l, b); !bytes.Equal(got, data) {
			t.Errorf("block %d reads wrong", b)
		}
	}
}

// A victim with nothing live in it issues no request at all: what its
// summary names is in the usage table.
func TestCleanEmptyVictimIssuesNoRequest(t *testing.T) {
	_, rec, l := newLoggedLLD(t, segIOOptions())
	victim, want := hollowVictim(t, l)
	rec.take('r')
	before := l.Stats()
	if err := cleanVictim(l, victim); err != nil {
		t.Fatal(err)
	}
	if reads := rec.take('r'); len(reads) != 0 {
		t.Fatalf("cleaning an empty victim read %v, want no request", reads)
	}
	s := l.Stats()
	if got, bytes := s.CleanReads-before.CleanReads, s.CleanReadBytes-before.CleanReadBytes; got != 0 || bytes != 0 {
		t.Errorf("CleanReads +%d CleanReadBytes +%d, want 0 and 0", got, bytes)
	}
	if s.SegmentsCleaned != before.SegmentsCleaned+1 || s.BlocksMoved != before.BlocksMoved {
		t.Errorf("cleaned %d segments and moved %d blocks, want 1 and 0",
			s.SegmentsCleaned-before.SegmentsCleaned, s.BlocksMoved-before.BlocksMoved)
	}
	checkReads(t, l, want)
}

// A victim with live blocks costs one read per live extent — the extents a
// scrub of the same segment reads — and nothing else: no summary, nothing
// past its last live sector.
func TestCleanReadsOneRequestPerLiveExtent(t *testing.T) {
	_, rec, l := newLoggedLLD(t, segIOOptions())
	// Blocks 2 and 3 touch; 20 sits 64 KB on (a new extent); 22 follows it
	// across a 4-KB dead block (the same extent).
	victim, want := hollowVictim(t, l, 2, 3, 20, 22)
	lo, hi := l.lay.segOff(victim), l.lay.segOff(victim)+int64(l.lay.dataCap())

	rec.take('r')
	if _, err := l.Scrub(); err != nil {
		t.Fatal(err)
	}
	var extents []ioOp
	for _, o := range rec.take('r') {
		if o.off >= lo && o.off < hi {
			extents = append(extents, o)
		}
	}
	if len(extents) != 2 {
		t.Fatalf("scrub read segment %d as %v, want two extents", victim, extents)
	}

	before := l.Stats()
	if err := cleanVictim(l, victim); err != nil {
		t.Fatal(err)
	}
	// The same extents, in whatever order the batch issues them (soonest
	// first).
	reads := rec.take('r')
	slices.SortFunc(reads, func(a, b ioOp) int { return cmp.Compare(a.off, b.off) })
	if !slices.Equal(reads, extents) {
		t.Fatalf("cleaning read %v, want %v", reads, extents)
	}
	if reads[1].end() != lo+23*4096 {
		t.Errorf("last extent ends at %d, want the end of block 22 (%d)", reads[1].end(), lo+23*4096)
	}
	s := l.Stats()
	if got := s.BlocksMoved - before.BlocksMoved; got != 4 {
		t.Errorf("moved %d blocks, want 4", got)
	}
	var total int64
	for _, o := range reads {
		total += int64(o.n)
	}
	if got, bytes := s.CleanReads-before.CleanReads, s.CleanReadBytes-before.CleanReadBytes; got != 2 || bytes != total {
		t.Errorf("CleanReads +%d CleanReadBytes +%d, want 2 and %d", got, bytes, total)
	}
	checkReads(t, l, want)
}

// emptySealedAfter overwrites two segments' worth of fresh blocks twice and
// returns a sealed segment stamped after ts that the second pass emptied.
func emptySealedAfter(t *testing.T, l *LLD, ts uint64, want map[ld.BlockID][]byte) int {
	t.Helper()
	ids, fresh := fillBlocks(t, l, 2*l.lay.dataCap()/4096)
	for b, data := range fresh {
		want[b] = data
	}
	for _, b := range ids {
		want[b] = bytes.Repeat([]byte{0xA5}, 4096)
		mustWrite(t, l, b, want[b])
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	for i := range l.segs {
		if s := &l.segs[i]; s.state == segLive && s.live == 0 && s.ts > ts {
			return i
		}
	}
	t.Fatal("no segment sealed since the mount is empty")
	return -1
}

// No victim's summary is read back. A segment the instance sealed itself,
// or one its mount decoded, has what its summary names in memory while a
// block is left in it; one mounted from a checkpoint without being decoded
// (every segment after a clean shutdown) lies at or below that checkpoint's
// floor, which holds every fact its summary states. The empty victims here
// hold no names either way.
func TestNoMountLoadsASummary(t *testing.T) {
	for _, tc := range []struct {
		name  string
		clean bool
	}{
		{"clean shutdown, checkpoint mount", true},
		{"crash, sweep mount", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := segIOOptions()
			_, rec, l := newLoggedLLD(t, opts)
			victim, want := hollowVictim(t, l)
			if err := l.Shutdown(tc.clean); err != nil {
				t.Fatal(err)
			}
			l, err := Open(rec, opts)
			if err != nil {
				t.Fatal(err)
			}
			if swept := l.Stats().RecoverySweepSegments != 0; swept == tc.clean {
				t.Fatalf("sweep ran: %v after Shutdown(%v)", swept, tc.clean)
			}
			if s := &l.segs[victim]; s.state != segLive || s.live != 0 || s.names != nil {
				t.Fatalf("segment %d mounted in state %d with %d live bytes, names in memory: %v", victim, s.state, s.live, s.names != nil)
			}
			mounted := l.ts

			rec.take('r')
			if err := cleanVictim(l, victim); err != nil {
				t.Fatal(err)
			}
			if reads := rec.take('r'); len(reads) != 0 {
				t.Fatalf("cleaning segment %d read %v", victim, reads)
			}
			if s := l.Stats(); s.CleanReads != 0 {
				t.Fatalf("CleanReads %d, want 0", s.CleanReads)
			}

			// A segment sealed since the mount is cleaned from memory.
			later := emptySealedAfter(t, l, mounted, want)
			rec.take('r')
			if err := cleanVictim(l, later); err != nil {
				t.Fatal(err)
			}
			if reads := rec.take('r'); len(reads) != 0 {
				t.Fatalf("cleaning segment %d, sealed after the mount, read %v", later, reads)
			}
			checkReads(t, l, want)
			if viol := l.CheckInvariants(); len(viol) != 0 {
				t.Fatalf("invariants: %v", viol)
			}
		})
	}
}

// One unreadable sector among a victim's dead bytes must not stop the
// cleaner — or, through it, the user's Write: the victim rule would pick the same
// victim on every later attempt and the instance could never clean again.
// Scrub and recovery never look at dead bytes either
// (TestVerifyUnreadableDeadGapDoesNotQuarantine).
func TestCleanerIgnoresUnreadableDeadSector(t *testing.T) {
	t.Run("empty victim", func(t *testing.T) {
		d, l := newTestLLD(t, 2<<20, testOptions())
		ids, want := fillBlocks(t, l, 40)
		round := func(r int) {
			for i, b := range ids {
				want[b] = bytes.Repeat([]byte{byte(r), byte(i)}, 2048)
				if err := l.Write(b, want[b]); err != nil {
					t.Fatalf("round %d: Write(%d): %v (%d segments cleaned)", r, b, err, l.Stats().SegmentsCleaned)
				}
			}
		}
		round(1)
		victim := -1
		for i := range l.segs {
			if l.segs[i].state == segLive && l.segs[i].live == 0 {
				victim = i
				break
			}
		}
		if victim < 0 {
			t.Fatal("no live segment is empty after a full overwrite")
		}
		stamp := l.segs[victim].ts // a checkpoint's payload may reopen it
		d.InjectUnreadable((l.lay.segOff(victim)+8192)/int64(d.SectorSize()), 1)
		for r := 2; r < 40; r++ {
			round(r)
		}
		if l.segs[victim].state == segLive && l.segs[victim].live == 0 && l.segs[victim].ts == stamp {
			t.Errorf("segment %d was never cleaned", victim)
		}
		if n := l.Stats().SegmentsCleaned; n < int64(l.lay.nSegments) {
			t.Errorf("%d segments cleaned over 38 rounds on a %d-segment disk", n, l.lay.nSegments)
		}
		checkReads(t, l, want)
	})
	t.Run("dead gap between live extents", func(t *testing.T) {
		d, _, l := newLoggedLLD(t, segIOOptions())
		victim, want := hollowVictim(t, l, 2, 20)
		// 40 KB in: more than a track from either live block.
		d.InjectUnreadable((l.lay.segOff(victim)+(40<<10))/int64(d.SectorSize()), 1)
		if err := cleanVictim(l, victim); err != nil {
			t.Fatalf("cleaning around an unreadable dead sector: %v", err)
		}
		if l.segs[victim].state == segLive {
			t.Errorf("segment %d is still live", victim)
		}
		checkReads(t, l, want)
	})
}

// flushedBlock is one block appended and flushed by flushOddBlocks: the end
// of data when the flush ran, and the writes it made to the segment's data
// area and to its summary slots.
type flushedBlock struct {
	dataOff    int
	data, sums []ioOp
}

// openSegmentOf writes one byte to a new list, so a segment is open, and
// returns its id.
func openSegmentOf(t *testing.T, l *LLD) int {
	t.Helper()
	mustWrite(t, l, mustNewBlock(t, l, mustNewList(t, l, ld.NilList, ld.ListHints{}), ld.NilBlock), []byte{1})
	return l.cur.id
}

// flushOddBlocks appends k blocks of unaligned sizes to the open segment,
// with a Flush after each.
func flushOddBlocks(t *testing.T, rec *ioLog, l *LLD, k int) []flushedBlock {
	t.Helper()
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	sumBase := l.lay.sumOff(l.cur.id, 0)
	var out []flushedBlock
	for i := 0; i < k; i++ {
		mustWrite(t, l, mustNewBlock(t, l, lid, ld.NilBlock), bytes.Repeat([]byte{byte(i + 1)}, 700+300*i))
		f := flushedBlock{dataOff: l.cur.dataOff}
		rec.take('w')
		if err := l.Flush(ld.FailPower); err != nil {
			t.Fatal(err)
		}
		for _, o := range rec.take('w') {
			if o.off < sumBase {
				f.data = append(f.data, o)
			} else {
				f.sums = append(f.sums, o)
			}
		}
		out = append(out, f)
	}
	return out
}

// k flushes of one filling segment write each data sector once, plus the
// sector each flush ended in once more — not the whole prefix every time.
func TestFlushesAppendToThePlatterImage(t *testing.T) {
	_, rec, l := newLoggedLLD(t, segIOOptions())
	const k = 8
	ss := l.lay.sectorSize
	seg := openSegmentOf(t, l)
	base := l.lay.segOff(seg)
	var total int64
	from := 0 // where the previous flush's data ended, rounded down to a sector
	for i, f := range flushOddBlocks(t, rec, l, k) {
		want := ioOp{'w', base + int64(from), (f.dataOff+ss-1)/ss*ss - from}
		if len(f.data) != 1 || f.data[0] != want {
			t.Errorf("flush %d wrote data %v, want %v", i, f.data, want)
		}
		// A flush's few records pack into one sector of the 4-KB slot.
		if want := (ioOp{'w', l.lay.sumOff(seg, i%2), ss}); len(f.sums) != 1 || f.sums[0] != want {
			t.Errorf("flush %d wrote summaries %v, want %v", i, f.sums, want)
		}
		for _, o := range f.data {
			total += int64(o.n)
		}
		from = f.dataOff / ss * ss
	}
	if l.cur == nil || l.cur.id != seg {
		t.Fatal("the segment did not stay open across the flushes")
	}
	if max := int64(l.cur.dataOff + k*ss); total > max {
		t.Errorf("%d flushes wrote %d data bytes for %d in the segment, want at most %d", k, total, l.cur.dataOff, max)
	}
	if got, want := l.Stats().PartialBytes, total+int64(k*ss); got != want {
		t.Errorf("PartialBytes = %d, want %d", got, want)
	}
}

// fillAndSeal appends n 4-KB blocks to the open segment, seals it and
// returns the end of its data and the writes of the seal.
func fillAndSeal(t *testing.T, rec *ioLog, l *LLD, n int) (dataOff int, writes []ioOp) {
	t.Helper()
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	seg := l.cur.id
	for i := 0; i < n; i++ {
		mustWrite(t, l, mustNewBlock(t, l, lid, ld.NilBlock), bytes.Repeat([]byte{0x77}, 4096))
	}
	if l.cur == nil || l.cur.id != seg {
		t.Fatalf("%d blocks did not fit the open segment", n)
	}
	dataOff = l.cur.dataOff
	rec.take('w')
	l.mu.Lock()
	err := l.sealSegment()
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if l.segs[seg].state != segLive {
		t.Fatalf("segment %d not sealed", seg)
	}
	return dataOff, rec.take('w')
}

// A seal writes the data no flush has put on the platter and the used
// sectors of one summary slot. It runs on through the dead middle into
// slot 0 only when the middle is at most a track; otherwise data and
// summary are two requests.
func TestSealWritesOnlyTheSuffixAndCrossesOnlyAShortMiddle(t *testing.T) {
	for _, tc := range []struct {
		name    string
		flushes int // odd-sized flushed blocks first
		blocks  int // then this many 4-KB blocks
		slot    int // the seal's target
		oneReq  bool
		sumLen  int // the summary's used sectors, of a 4-KB slot
	}{
		{"after two flushes, full", 2, 29, 0, true, 1024},
		{"after three flushes, full", 3, 28, 1, false, 1024},
		{"no flush, middle of 28 KB", 0, 23, 0, true, 512},
		{"no flush, middle of 56 KB", 0, 16, 0, false, 512},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, rec, l := newLoggedLLD(t, segIOOptions())
			ss := l.lay.sectorSize
			seg := openSegmentOf(t, l)
			from := 0
			if flushed := flushOddBlocks(t, rec, l, tc.flushes); len(flushed) > 0 {
				from = flushed[len(flushed)-1].dataOff / ss * ss
			}
			if l.cur.slot != tc.slot {
				t.Fatalf("the seal would target slot %d, want %d", l.cur.slot, tc.slot)
			}
			dataOff, writes := fillAndSeal(t, rec, l, tc.blocks)
			data := ioOp{'w', l.lay.segOff(seg) + int64(from), (dataOff+ss-1)/ss*ss - from}
			sum := ioOp{'w', l.lay.sumOff(seg, tc.slot), tc.sumLen}
			want := []ioOp{data, sum}
			if tc.oneReq {
				want = []ioOp{{'w', data.off, int(sum.end() - data.off)}}
			}
			if !slices.Equal(writes, want) {
				t.Fatalf("seal wrote %v, want %v", writes, want)
			}
		})
	}
}

// Battery-backed memory is not the platter: after flushes absorbed by
// NVRAM the seal's own writes still cover every data byte of the segment.
func TestSealAfterNVRAMFlushesWritesEveryDataByte(t *testing.T) {
	opts := segIOOptions()
	opts.NVRAMBytes = 64 << 10
	_, rec, l := newLoggedLLD(t, opts)
	seg := openSegmentOf(t, l)
	for i, f := range flushOddBlocks(t, rec, l, 4) {
		if len(f.data) != 0 || len(f.sums) != 0 {
			t.Fatalf("flush %d went to the disk: %v %v", i, f.data, f.sums)
		}
	}
	if s := l.Stats(); s.NVRAMFlushes != 4 || s.PartialWrites != 0 || s.PartialBytes != 0 {
		t.Fatalf("NVRAMFlushes=%d PartialWrites=%d PartialBytes=%d, want 4, 0, 0", s.NVRAMFlushes, s.PartialWrites, s.PartialBytes)
	}
	dataOff, writes := fillAndSeal(t, rec, l, 24)
	base := l.lay.segOff(seg)
	if len(writes) == 0 || writes[0].off != base || writes[0].end() < base+int64(dataOff) {
		t.Fatalf("seal wrote %v, want its first request to cover the %d data bytes at %d", writes, dataOff, base)
	}
}

// TestFlushAppendFlushSealSurvivesEveryPowerCut cuts power after every
// sector of: write some blocks, Flush, write more, Flush (an append to the
// first image), fill the segment until it seals (a suffix write), Flush.
// On a plain disk writes tear in order; behind a write-back cache any
// subset of unsynced sectors is lost and the acknowledgement is Flush plus
// a device sync. Either way recovery returns every block of an
// acknowledged flush byte for byte, and of the others all or nothing.
func TestFlushAppendFlushSealSurvivesEveryPowerCut(t *testing.T) {
	opts := segIOOptions()
	payload := func(i int) []byte {
		n := 4096
		if i < 7 {
			n = 900 + 211*i // the flushed prefix ends mid-sector every time
		}
		p := bytes.Repeat([]byte{byte(0x30 + i)}, n)
		p[0] = byte(i)
		return p
	}

	// run formats back, arms the cut and drives the sequence until an
	// operation fails (the power is out). It reports the blocks written and
	// how many of them an acknowledged flush covers. flushes is 2 or 3: the
	// seal then targets slot 0 (one request through the summary) or slot 1
	// (two requests).
	run := func(back disk.Backend, sync func() error, arm func(), flushes int) (blocks []ld.BlockID, acked int) {
		if err := Format(back, opts); err != nil {
			t.Fatal(err)
		}
		if err := sync(); err != nil {
			t.Fatal(err)
		}
		arm()
		l, err := Open(back, opts)
		if err != nil {
			return nil, 0
		}
		defer func() { _ = l.Shutdown(false) }()
		lid, err := l.NewList(ld.NilList, ld.ListHints{})
		if err != nil {
			return nil, 0
		}
		add := func() bool {
			b, err := l.NewBlock(lid, ld.NilBlock)
			if err != nil || l.Write(b, payload(len(blocks))) != nil {
				return false
			}
			blocks = append(blocks, b)
			return true
		}
		flush := func() bool {
			if l.Flush(ld.FailPower) != nil || sync() != nil {
				return false
			}
			acked = len(blocks)
			return true
		}
		for f := 0; f < flushes; f++ {
			if !add() || !add() || !flush() {
				return blocks, acked
			}
		}
		for l.Stats().SegmentsSealed == 0 {
			if !add() {
				return blocks, acked
			}
		}
		flush()
		return blocks, acked
	}

	// check recovers and holds the result against what run reported.
	// ordered says writes reached the platter in issue order.
	check := func(back disk.Backend, ordered bool, blocks []ld.BlockID, acked int) error {
		l, err := Open(back, opts)
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		if viol := l.CheckInvariants(); len(viol) != 0 {
			return fmt.Errorf("invariants violated: %v", viol)
		}
		degraded := l.RecoveryReport().Degraded()
		if degraded {
			if ordered {
				return fmt.Errorf("in-order tear quarantined %v", l.RecoveryReport().QuarantinedSegments)
			}
			// A summary of the unacknowledged tail outlived its data. The
			// acknowledged blocks of that segment are intact on the
			// platter; scrub salvages them.
			if _, err := l.Scrub(); err != nil {
				return fmt.Errorf("scrub: %w", err)
			}
		}
		buf := make([]byte, opts.MaxBlockSize)
		missing := -1
		for i, b := range blocks {
			n, err := l.Read(b, buf)
			whole := err == nil && bytes.Equal(buf[:n], payload(i))
			none := errors.Is(err, ld.ErrBadBlock) || (err == nil && n == 0) || (degraded && errors.Is(err, ld.ErrCorrupt))
			switch {
			case i < acked && !whole:
				return fmt.Errorf("block %d of %d acknowledged: read %d bytes, err %v", i, acked, n, err)
			case !whole && !none:
				return fmt.Errorf("unacknowledged block %d is half there: read %d bytes, err %v", i, n, err)
			case !whole && missing < 0:
				missing = i
			case whole && missing >= 0 && ordered:
				return fmt.Errorf("block %d survived but the earlier block %d did not", i, missing)
			}
		}
		return nil
	}

	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	noSync := func() error { return nil }
	for _, flushes := range []int{2, 3} {
		t.Run(fmt.Sprintf("disk/%d flushes", flushes), func(t *testing.T) {
			ref := disk.New(disk.DefaultConfig(4 << 20))
			blocks, acked := run(ref, noSync, ref.ResetStats, flushes)
			if acked != len(blocks) || acked < 20 {
				t.Fatalf("reference run acknowledged %d of %d blocks", acked, len(blocks))
			}
			total := ref.Stats().SectorsWritten
			for k := int64(0); k <= total; k += stride {
				d := disk.New(disk.DefaultConfig(4 << 20))
				blocks, acked := run(d, noSync, func() { d.InjectCrashAfterSectors(k) }, flushes)
				d.ClearCrash()
				if err := check(d, true, blocks, acked); err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
			}
			t.Logf("cut power at %d points over %d sectors", total/stride+1, total)
		})
		t.Run(fmt.Sprintf("wbcache/%d flushes", flushes), func(t *testing.T) {
			rail := disk.NewRail()
			var base int64
			blocks, acked := run(disk.NewWBCache(disk.New(disk.DefaultConfig(4<<20)), rail), rail.SyncAll,
				func() { base = rail.Accepted() }, flushes)
			if acked != len(blocks) || acked < 20 {
				t.Fatalf("reference run acknowledged %d of %d blocks", acked, len(blocks))
			}
			total := rail.Accepted() - base
			for k := int64(0); k <= total; k += stride {
				rail := disk.NewRail()
				c := disk.NewWBCache(disk.New(disk.DefaultConfig(4<<20)), rail)
				blocks, acked := run(c, rail.SyncAll, func() { rail.Arm(k, 1000+k) }, flushes)
				rail.PowerLoss(k) // the last point outruns the sequence: cut now
				rail.Restart()
				if err := check(c, false, blocks, acked); err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
			}
			t.Logf("cut power at %d points over %d sectors", total/stride+1, total)
		})
	}
}

// shortOverLong is what runShortOverLong left behind: segment seg reopened
// after the cleaner retired a generation that had filled both of its
// summary slots with long images, block a written and acknowledged by the
// new generation's first flush (a short image into slot 0), and fresh
// blocks allocated for its second (a short image into slot 1, over the
// longer one the retired generation left there).
type shortOverLong struct {
	l      *LLD
	seg    int
	a      ld.BlockID
	fresh  []ld.BlockID
	oldLen [2]int    // bytes of the retired generation's image in each slot
	ts     [2]uint64 // stamps of the new generation's images; ts[1] is 0 when the second flush failed
}

func shortSlotPayload() []byte { return bytes.Repeat([]byte{0x5A}, 1024) }

// runShortOverLong drives that sequence on back. sync is the device's
// drain, which acknowledges a flush; arm runs just before the second flush,
// whose only request is the short summary (block a fills two whole
// sectors, so no data sector is written again).
func runShortOverLong(t *testing.T, back disk.Backend, sync func() error, arm func()) *shortOverLong {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	opts := segIOOptions()
	must(Format(back, opts))
	must(sync())
	l, err := Open(back, opts)
	must(err)
	r := &shortOverLong{l: l}
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	r.seg = l.cur.id
	var old []ld.BlockID
	pred := ld.NilBlock
	for _, n := range []int{150, 150} {
		for i := 0; i < n; i++ {
			pred = mustNewBlock(t, l, lid, pred)
			old = append(old, pred)
		}
		must(l.Flush(ld.FailPower)) // slot 0, then slot 1
	}
	l.mu.Lock()
	err = l.sealSegment() // slot 0 again
	l.mu.Unlock()
	must(err)
	must(sync())
	for slot := range r.oldLen {
		si, _ := slotImage(t, back, l.lay, r.seg, slot)
		r.oldLen[slot] = summaryBytes(si.entries, si.tuples)
	}

	// Retire the generation, make what was logged since durable so the
	// segment leaves the cooling queue, and seal the segment it went to.
	must(cleanVictim(l, r.seg))
	must(l.Flush(ld.FailPower))
	l.mu.Lock()
	err = l.sealSegment()
	l.mu.Unlock()
	must(err)
	must(sync())

	r.a = old[0]
	reopenSegment(t, l, r.seg, func() { mustWrite(t, l, r.a, shortSlotPayload()) })
	must(l.Flush(ld.FailPower))
	must(sync())
	r.ts[0] = l.segs[r.seg].ts
	for i := 0; i < 150; i++ {
		r.fresh = append(r.fresh, mustNewBlock(t, l, lid, ld.NilBlock))
	}
	arm()
	if l.Flush(ld.FailPower) == nil && sync() == nil {
		r.ts[1] = l.segs[r.seg].ts
	}
	return r
}

// slotImage reads one summary slot as the platter has it and decodes it.
func slotImage(t *testing.T, back disk.Backend, lay layout, seg, slot int) (*summaryInfo, []byte) {
	t.Helper()
	buf := make([]byte, lay.summarySize)
	if err := back.ReadAt(buf, lay.sumOff(seg, slot)); err != nil {
		t.Fatal(err)
	}
	si, err := decodeSummary(buf, lay, seg)
	if err != nil {
		t.Fatalf("segment %d slot %d: %v", seg, slot, err)
	}
	return si, buf
}

// A summary written over a longer, older image in the same slot writes
// only its own sectors and decodes as the new image: the header's counts
// and CRC end at its last record, and the older image's tail past them is
// never read.
func TestShortSummaryOverALongerImageDecodesAsTheNewOne(t *testing.T) {
	d := disk.New(disk.DefaultConfig(4 << 20))
	var before int64
	r := runShortOverLong(t, d, func() error { return nil }, func() { before = d.Stats().SectorsWritten })
	ss := r.l.lay.sectorSize
	for slot, ts := range r.ts {
		si, img := slotImage(t, d, r.l.lay, r.seg, slot)
		n := summaryBytes(si.entries, si.tuples)
		if si.writeTS != ts {
			t.Errorf("slot %d decodes as the image stamped %d, want the new one, %d", slot, si.writeTS, ts)
		}
		used := (n + ss - 1) / ss * ss
		if r.oldLen[slot] < used+ss {
			t.Fatalf("slot %d: the retired image (%d bytes) is not a sector longer than the new one (%d)", slot, r.oldLen[slot], n)
		}
		if bytes.Equal(img[used:r.oldLen[slot]], make([]byte, r.oldLen[slot]-used)) {
			t.Errorf("slot %d: nothing of the retired image is left past the new one's %d bytes", slot, used)
		}
		if slot == 1 {
			if got := d.Stats().SectorsWritten - before; got != int64(used/ss) {
				t.Errorf("the second flush wrote %d sectors, want the summary's %d", got, used/ss)
			}
		}
	}
}

// A power cut at every sector of that short write, on a plain disk and
// behind a volatile write cache, falls back to the sibling slot's image —
// the new generation's first, never the retired generation's — or mounts
// the new image whole, and quarantines nothing.
func TestShortSummaryWriteSurvivesEveryPowerCut(t *testing.T) {
	opts := segIOOptions()
	// check recovers back and reports whether the mount took the second
	// image (or fell back to the first).
	check := func(back disk.Backend, r *shortOverLong) (second bool, err error) {
		l, err := Open(back, opts)
		if err != nil {
			return false, fmt.Errorf("recovery: %w", err)
		}
		if viol := l.CheckInvariants(); len(viol) != 0 {
			return false, fmt.Errorf("invariants violated: %v", viol)
		}
		if q := l.RecoveryReport().QuarantinedSegments; len(q) != 0 {
			return false, fmt.Errorf("quarantined %v", q)
		}
		ts := l.segs[r.seg].ts
		if ts < r.ts[0] {
			return false, fmt.Errorf("segment %d mounted from the image stamped %d, older than the acknowledged %d", r.seg, ts, r.ts[0])
		}
		if got := mustRead(t, l, r.a); !bytes.Equal(got, shortSlotPayload()) {
			return false, fmt.Errorf("acknowledged block %d reads %d bytes, not its 1,024", r.a, len(got))
		}
		second = ts > r.ts[0]
		for _, b := range r.fresh {
			_, err := l.Read(b, make([]byte, opts.MaxBlockSize))
			if exists := err == nil; exists != second {
				return false, fmt.Errorf("segment %d mounted from the image stamped %d (first flush %d), and fresh block %d: %v", r.seg, ts, r.ts[0], b, err)
			}
		}
		return second, nil
	}
	// sweep cuts power at every point 0..total and requires both outcomes.
	sweep := func(t *testing.T, total int64, cut func(k int64) (disk.Backend, *shortOverLong)) {
		fellBack, tookNew := 0, 0
		for k := int64(0); k <= total; k++ {
			back, r := cut(k)
			second, err := check(back, r)
			if err != nil {
				t.Fatalf("cut after %d of %d sectors: %v", k, total, err)
			}
			if second {
				tookNew++
			} else {
				fellBack++
			}
		}
		if fellBack == 0 || tookNew == 0 || total < 2 {
			t.Fatalf("%d cuts over a %d-sector write: %d fell back, %d mounted the new image; want a multi-sector write and both", total+1, total, fellBack, tookNew)
		}
		t.Logf("%d cuts over a %d-sector write: %d fell back to the sibling slot, %d mounted the new image", total+1, total, fellBack, tookNew)
	}
	noSync := func() error { return nil }
	t.Run("disk", func(t *testing.T) {
		ref := disk.New(disk.DefaultConfig(4 << 20))
		var base int64
		runShortOverLong(t, ref, noSync, func() { base = ref.Stats().SectorsWritten })
		sweep(t, ref.Stats().SectorsWritten-base, func(k int64) (disk.Backend, *shortOverLong) {
			d := disk.New(disk.DefaultConfig(4 << 20))
			r := runShortOverLong(t, d, noSync, func() { d.InjectCrashAfterSectors(k) })
			d.ClearCrash()
			return d, r
		})
	})
	t.Run("wbcache", func(t *testing.T) {
		rail := disk.NewRail()
		var base int64
		runShortOverLong(t, disk.NewWBCache(disk.New(disk.DefaultConfig(4<<20)), rail), rail.SyncAll, func() { base = rail.Accepted() })
		for seed := int64(0); seed < 4; seed++ {
			sweep(t, rail.Accepted()-base, func(k int64) (disk.Backend, *shortOverLong) {
				rail := disk.NewRail()
				c := disk.NewWBCache(disk.New(disk.DefaultConfig(4<<20)), rail)
				r := runShortOverLong(t, c, rail.SyncAll, func() { rail.Arm(k, 1000*seed+k) })
				rail.PowerLoss(1000*seed + k) // the last point outruns the write: cut now
				rail.Restart()
				return c, r
			})
		}
	})
}

// A segment no block is left in forgets its summary's names and is cleaned
// from the usage table alone: no request and no scan of the map. A block
// that stores no bytes still counts, so a segment whose bytes all died keeps
// its names while such a block is there, and a block SwapContents re-homes
// into it is found and moved.
func TestDeadSegmentForgetsItsNames(t *testing.T) {
	_, rec, l := newLoggedLLD(t, segIOOptions())
	victim, want := hollowVictim(t, l)
	if s := &l.segs[victim]; s.mapped != 0 || s.names != nil {
		t.Fatalf("segment %d holds %d blocks and %d names after its blocks all died, want none", victim, s.mapped, len(s.names))
	}
	// An entry placed in the victim behind the usage table's back is found
	// only by a scan of the map.
	stray := ld.BlockID(l.nextFresh)
	l.growBlocks(int(stray) + 1)
	l.blocks[stray] = blockInfo{flags: bAllocated, lid: ld.NilList}
	l.blocks[stray].setData(l.lay.pack(victim, 0), 4096, 4096, false, 0)
	rec.take('r')
	if err := cleanVictim(l, victim); err != nil {
		t.Fatal(err)
	}
	if reads := rec.take('r'); len(reads) != 0 {
		t.Fatalf("cleaning segment %d read %v, want no request", victim, reads)
	}
	if l.blockSeg(stray) != victim || l.segs[victim].state == segLive {
		t.Fatalf("cleaning segment %d scanned the map: the planted entry went to segment %d", victim, l.blockSeg(stray))
	}
	l.blocks[stray] = blockInfo{}

	// z stores nothing, in a segment whose other blocks all die.
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	z := mustNewBlock(t, l, lid, ld.NilBlock)
	mustWrite(t, l, z, nil)
	want[z] = nil
	ids, fresh := fillBlocks(t, l, l.lay.dataCap()/4096+1)
	seg := l.blockSeg(z)
	for i, b := range ids {
		want[b] = fresh[b]
		if l.blockSeg(b) == seg {
			want[b] = bytes.Repeat([]byte{0xE0 | byte(i&0xF)}, 4096)
			mustWrite(t, l, b, want[b])
		}
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	if s := &l.segs[seg]; s.state != segLive || s.live != 0 || s.mapped != 1 || s.names == nil {
		t.Fatalf("segment %d: state %d, %d live bytes, %d blocks, names %v; want a sealed segment holding only block %d",
			seg, s.state, s.live, s.mapped, s.names != nil, z)
	}
	// Re-home a block into it: w now stores nothing there, z holds w's bytes.
	w := ids[len(ids)-1]
	if err := l.SwapContents(z, w); err != nil {
		t.Fatal(err)
	}
	want[z], want[w] = want[w], nil
	if l.blockSeg(w) != seg {
		t.Fatalf("SwapContents left block %d in segment %d, not %d", w, l.blockSeg(w), seg)
	}
	if err := cleanVictim(l, seg); err != nil {
		t.Fatal(err)
	}
	if l.blockSeg(w) == seg {
		t.Fatalf("the cleaner left block %d, re-homed by SwapContents, in segment %d", w, seg)
	}
	checkReads(t, l, want)
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariants: %v", viol)
	}
}
