package lld

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
)

// --- helpers -------------------------------------------------------------

// reopenCrashed simulates a crash (in-memory state lost) and reopens the
// disk so subsequent reads are served from the platter, not the in-memory
// open segment.
func reopenCrashed(t *testing.T, d *disk.Disk, l *LLD) *LLD {
	t.Helper()
	if err := l.Shutdown(false); err != nil {
		t.Fatalf("unclean shutdown: %v", err)
	}
	l2, err := Open(d, testOptions())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return l2
}

// damagedImage builds a crashed image whose first data-bearing segment has
// a valid older summary slot and a deliberately rotted newest slot: the
// shape recovery must classify as mid-log corruption and quarantine. It
// returns the reopened disk, the quarantined segment id, the expected
// content of every block, and each block's pre-crash segment.
func damagedImage(t *testing.T) (d *disk.Disk, l2 *LLD, target int, want map[ld.BlockID][]byte, segOf map[ld.BlockID]int) {
	t.Helper()
	var l *LLD
	d, l = newTestLLD(t, 8<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})

	// Per-block flushes alternate the ping-pong summary slots, so by the
	// time a segment seals, its older slot holds a valid prefix image.
	want = make(map[ld.BlockID][]byte)
	segOf = make(map[ld.BlockID]int)
	var ids []ld.BlockID
	prev := ld.NilBlock
	for i := 0; i < 30; i++ {
		b := mustNewBlock(t, l, lid, prev)
		data := bytes.Repeat([]byte{byte(i + 1)}, 4096)
		mustWrite(t, l, b, data)
		if err := l.Flush(ld.FailPower); err != nil {
			t.Fatal(err)
		}
		want[b] = data
		ids = append(ids, b)
		prev = b
	}
	for _, b := range ids {
		segOf[b] = l.blockSeg(b)
	}
	lay := l.lay
	target = segOf[ids[0]]
	if l.cur != nil && target == l.cur.id {
		t.Fatal("first segment still open; test needs more writes")
	}
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}

	// Rot the newest summary slot of the target segment: keep the header
	// (magic, segment id, claimed timestamp) intact so recovery can see
	// the slot was once acknowledged, but break the body so the summary
	// CRC fails.
	newestSlot, newestTS := -1, uint64(0)
	buf := make([]byte, lay.summarySize)
	for slot := 0; slot < 2; slot++ {
		if err := d.ReadAt(buf, lay.sumOff(target, slot)); err != nil {
			t.Fatal(err)
		}
		if si, err := decodeSummary(buf, lay, target); err == nil && si.writeTS >= newestTS {
			newestSlot, newestTS = slot, si.writeTS
		}
	}
	if newestSlot < 0 {
		t.Fatal("target segment has no valid summary slot")
	}
	d.CorruptRange(lay.sumOff(target, newestSlot)+int64(summaryHeaderSize)+4, 8, 0xFF)

	l2, err := Open(d, testOptions())
	if err != nil {
		t.Fatalf("recovery of damaged image failed: %v", err)
	}
	if viol := l2.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("recovered state violates invariants: %v", viol)
	}
	return d, l2, target, want, segOf
}

// --- Verify: a mount that trusts nothing --------------------------------

// crashedImage is a crashed write-through image of 30 4-KB blocks: several
// sealed segments, every one at or below the durable mark, and a flushed
// open one. l is the crashed instance, kept for its block map.
func crashedImage(t *testing.T) (d *disk.Disk, l *LLD, ids []ld.BlockID) {
	t.Helper()
	d, l = newTestLLD(t, 4<<20, testOptions())
	ids, _ = fillBlocks(t, l, 30)
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}
	return d, l, ids
}

// shutDownClean mounts d and shuts it down cleanly.
func shutDownClean(t *testing.T, d *disk.Disk) {
	t.Helper()
	l, err := Open(d, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Shutdown(true); err != nil {
		t.Fatal(err)
	}
}

// copyOf is a private copy of d's platter.
func copyOf(t *testing.T, d *disk.Disk) *disk.Disk {
	t.Helper()
	c := disk.New(d.Config())
	if err := c.Restore(d.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return c
}

// mountReport is what a plain mount of a copy of d finds.
func mountReport(t *testing.T, d *disk.Disk) RecoveryReport {
	t.Helper()
	l, err := Open(copyOf(t, d), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	return l.RecoveryReport()
}

func runVerify(t *testing.T, d disk.Backend) (int, string) {
	t.Helper()
	var out strings.Builder
	faults, err := Verify(d, &out)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	return faults, out.String()
}

func TestVerifyUndamagedImagesHaveNoFaults(t *testing.T) {
	d, _, _ := crashedImage(t)
	if n, out := runVerify(t, copyOf(t, d)); n != 0 || !strings.Contains(out, "30 block payloads read back") {
		t.Errorf("crashed image: %d faults:\n%s", n, out)
	}
	shutDownClean(t, d)
	if n, out := runVerify(t, copyOf(t, d)); n != 0 || !strings.Contains(out, "30 block payloads read back") {
		t.Errorf("clean image: %d faults:\n%s", n, out)
	}
}

// A segment an earlier recovery quarantined stays a fault after a clean
// shutdown, though its rotted slot now lies below the checkpoint.
func TestVerifyReportsQuarantineKeptByACheckpoint(t *testing.T) {
	d, l2, target, _, _ := damagedImage(t)
	degraded := len(l2.RecoveryReport().DegradedBlocks)
	if err := l2.Shutdown(true); err != nil {
		t.Fatal(err)
	}
	n, out := runVerify(t, d)
	want := fmt.Sprintf("segment %4d: FAULT quarantined by an earlier recovery (checkpoint)", target)
	if n != 1 || !strings.Contains(out, want) || !strings.Contains(out, fmt.Sprintf("%d blocks degraded", degraded)) {
		t.Errorf("%d faults, want 1 naming segment %d and %d degraded blocks:\n%s", n, target, degraded, out)
	}
}

// A mount takes a segment at or below the durable mark on trust; Verify
// reads it back.
func TestVerifyReadsBackBelowTheDurableMark(t *testing.T) {
	d, l, ids := crashedImage(t)
	seg := l.blockSeg(ids[0])
	d.CorruptRange(platterOff(l, ids[0])+100, 1, 0x01)
	if rep := mountReport(t, d); rep.Degraded() || rep.DurableMark < l.segs[seg].ts {
		t.Fatalf("control: mount quarantined %v; segment %d stamped %d, mark %d",
			rep.QuarantinedSegments, seg, l.segs[seg].ts, rep.DurableMark)
	}
	n, out := runVerify(t, d)
	if want := fmt.Sprintf("segment %4d: FAULT block data lost", seg); n != 1 || !strings.Contains(out, want) {
		t.Errorf("%d faults, want 1 naming segment %d:\n%s", n, seg, out)
	}
}

func TestVerifyReadsBackACleanImage(t *testing.T) {
	d, l, ids := crashedImage(t)
	shutDownClean(t, d)
	seg := l.blockSeg(ids[0])
	d.CorruptRange(platterOff(l, ids[0])+100, 1, 0x01)
	if rep := mountReport(t, d); rep.SweptSegments != 0 || rep.Degraded() {
		t.Fatalf("control: mount swept %d segments, quarantined %v", rep.SweptSegments, rep.QuarantinedSegments)
	}
	n, out := runVerify(t, d)
	if want := fmt.Sprintf("segment %4d: FAULT block data lost", seg); n != 1 || !strings.Contains(out, want) {
		t.Errorf("%d faults, want 1 naming segment %d:\n%s", n, seg, out)
	}
}

func TestVerifyReportsUnreadableSummaryOnACleanImage(t *testing.T) {
	d, l, ids := crashedImage(t)
	shutDownClean(t, d)
	seg := l.blockSeg(ids[0])
	d.InjectUnreadable(l.lay.sumOff(seg, 0)/int64(l.lay.sectorSize), 1)
	n, out := runVerify(t, d)
	if want := fmt.Sprintf("segment %4d: FAULT summary slot unreadable", seg); n != 1 || !strings.Contains(out, want) {
		t.Errorf("%d faults, want 1 naming segment %d:\n%s", n, seg, out)
	}
}

// --- read-path fault handling -------------------------------------------

func TestTransientReadErrorsAreRetried(t *testing.T) {
	d, l := newTestLLD(t, 4<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	b := mustNewBlock(t, l, lid, ld.NilBlock)
	data := bytes.Repeat([]byte{0x5A}, 4096)
	mustWrite(t, l, b, data)
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	l2 := reopenCrashed(t, d, l)

	d.InjectTransientReadErrors(2)
	if got := mustRead(t, l2, b); !bytes.Equal(got, data) {
		t.Fatal("read through transient faults returned wrong data")
	}
	if r := l2.Stats().ReadRetries; r < 2 {
		t.Fatalf("ReadRetries=%d, want >=2", r)
	}
}

func TestUnreadableSectorSurfacesAsCorrupt(t *testing.T) {
	d, l := newTestLLD(t, 4<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	b := mustNewBlock(t, l, lid, ld.NilBlock)
	data := bytes.Repeat([]byte{0x33}, 4096)
	mustWrite(t, l, b, data)
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	l2 := reopenCrashed(t, d, l)

	sector := (l2.lay.segOff(l2.blockSeg(b)) + int64(l2.blockOff(b))) / int64(l2.lay.sectorSize)
	d.InjectUnreadable(sector, 1)

	buf := make([]byte, 4096)
	_, err := l2.Read(b, buf)
	var ce *CorruptError
	if !errors.As(err, &ce) || !errors.Is(err, ld.ErrCorrupt) || !errors.Is(err, disk.ErrUnreadable) {
		t.Fatalf("read over bad sector: got %v, want CorruptError wrapping ErrCorrupt and ErrUnreadable", err)
	}
	if ce.Block != b {
		t.Fatalf("CorruptError names block %d, want %d", ce.Block, b)
	}
	if l2.Stats().CorruptReads == 0 {
		t.Fatal("CorruptReads stat not incremented")
	}

	// The latent fault heals when the sector is rewritten (here: cleared),
	// and the block is whole again — nothing was lost, only refused.
	d.ClearUnreadable()
	if got := mustRead(t, l2, b); !bytes.Equal(got, data) {
		t.Fatal("data wrong after fault cleared")
	}
}

func TestBitRotDetectedOnReadAndScrub(t *testing.T) {
	d, l := newTestLLD(t, 4<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	b := mustNewBlock(t, l, lid, ld.NilBlock)
	mustWrite(t, l, b, bytes.Repeat([]byte{0x77}, 4096))
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	l2 := reopenCrashed(t, d, l)

	d.CorruptRange(l2.lay.segOff(l2.blockSeg(b))+int64(l2.blockOff(b))+100, 1, 0x01)

	buf := make([]byte, 4096)
	if _, err := l2.Read(b, buf); !errors.Is(err, ld.ErrCorrupt) {
		t.Fatalf("read of rotted block: got %v, want ErrCorrupt", err)
	}

	res, err := l2.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, cb := range res.Corrupt {
		if cb == b {
			found = true
		}
	}
	if !found {
		t.Fatalf("scrub missed the rotted block: corrupt=%v", res.Corrupt)
	}
	if l2.Stats().ScrubErrors == 0 {
		t.Fatal("ScrubErrors stat not incremented")
	}
}

// --- recovery classification --------------------------------------------

func TestCleanCrashRecoveryWritesNothingAndReportsClean(t *testing.T) {
	d, l := newTestLLD(t, 8<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	prev := ld.NilBlock
	for i := 0; i < 20; i++ {
		b := mustNewBlock(t, l, lid, prev)
		mustWrite(t, l, b, bytes.Repeat([]byte{byte(i + 1)}, 1000))
		prev = b
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, l)
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}

	pre := make([]byte, d.Capacity())
	if err := d.ReadAt(pre, 0); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(d, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	post := make([]byte, d.Capacity())
	if err := d.ReadAt(post, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pre, post) {
		t.Fatal("recovery of an undamaged crash image modified the disk")
	}
	rep := l2.RecoveryReport()
	if rep.Degraded() || rep.TornSlotsCleared != 0 {
		t.Fatalf("clean image reported damage: %+v", rep)
	}
	diffState(t, want, captureState(t, l2), "clean-image recovery")
}

func TestMidLogCorruptionQuarantinesOneSegment(t *testing.T) {
	_, l2, target, want, segOf := damagedImage(t)

	rep := l2.RecoveryReport()
	if len(rep.QuarantinedSegments) != 1 || rep.QuarantinedSegments[0].Seg != target {
		t.Fatalf("quarantined %+v, want exactly segment %d", rep.QuarantinedSegments, target)
	}
	if len(rep.DegradedBlocks) == 0 {
		t.Fatal("no degraded blocks reported for a quarantined data segment")
	}
	degraded := make(map[ld.BlockID]bool)
	for _, b := range rep.DegradedBlocks {
		if segOf[b] != target {
			t.Fatalf("degraded block %d was in segment %d, not the quarantined %d", b, segOf[b], target)
		}
		degraded[b] = true
	}
	if l2.Stats().QuarantinedSegments != 1 {
		t.Fatalf("QuarantinedSegments gauge = %d", l2.Stats().QuarantinedSegments)
	}

	buf := make([]byte, 4096)
	for b, data := range want {
		n, err := l2.Read(b, buf)
		switch {
		case degraded[b]:
			var ce *CorruptError
			if !errors.As(err, &ce) || !errors.Is(err, ld.ErrCorrupt) {
				t.Fatalf("degraded block %d: got %v, want CorruptError", b, err)
			}
			if ce.Seg != target {
				t.Fatalf("degraded block %d blames segment %d, want %d", b, ce.Seg, target)
			}
		case segOf[b] == target:
			// A block whose only records were in the lost newest slot may
			// be gone entirely (a stale state); it must not read wrong bytes.
			if err == nil && n != 0 && !bytes.Equal(buf[:n], data) {
				t.Fatalf("lost block %d read wrong bytes without an error", b)
			}
		default:
			if err != nil {
				t.Fatalf("healthy block %d: %v", b, err)
			}
			if !bytes.Equal(buf[:n], data) {
				t.Fatalf("healthy block %d content wrong", b)
			}
		}
	}
}

func TestScrubSalvagesQuarantinedBlocks(t *testing.T) {
	d, l2, target, want, _ := damagedImage(t)
	rep := l2.RecoveryReport()
	if len(rep.DegradedBlocks) == 0 {
		t.Fatal("test needs degraded blocks")
	}

	// The segment's data region is intact — only its newest summary rotted
	// — so every degraded block still matches its checksum and the
	// foreground scrub can rewrite it into the log.
	res, err := l2.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	repaired := make(map[ld.BlockID]bool)
	for _, b := range res.Repaired {
		repaired[b] = true
	}
	for _, b := range rep.DegradedBlocks {
		if !repaired[b] {
			t.Fatalf("block %d not salvaged: repaired=%v", b, res.Repaired)
		}
		if got := mustRead(t, l2, b); !bytes.Equal(got, want[b]) {
			t.Fatalf("salvaged block %d content wrong", b)
		}
	}
	if l2.Stats().ScrubRepairs < int64(len(rep.DegradedBlocks)) {
		t.Fatalf("ScrubRepairs=%d, want >=%d", l2.Stats().ScrubRepairs, len(rep.DegradedBlocks))
	}
	if viol := l2.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariants after salvage: %v", viol)
	}

	// The salvage must be durable: crash again, recover, and the blocks
	// read from their new home while the rotted segment stays quarantined.
	if err := l2.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	l3 := reopenCrashed(t, d, l2)
	rep3 := l3.RecoveryReport()
	if len(rep3.QuarantinedSegments) != 1 || rep3.QuarantinedSegments[0].Seg != target {
		t.Fatalf("second recovery quarantined %+v, want segment %d", rep3.QuarantinedSegments, target)
	}
	if len(rep3.DegradedBlocks) != 0 {
		t.Fatalf("blocks still degraded after salvage: %v", rep3.DegradedBlocks)
	}
	for _, b := range rep.DegradedBlocks {
		if got := mustRead(t, l3, b); !bytes.Equal(got, want[b]) {
			t.Fatalf("block %d wrong after salvage+crash", b)
		}
	}
}

// --- whole-image corruption sweep ---------------------------------------

// TestCorruptionSweep is the end-to-end integrity property test: flip one
// byte anywhere on the platter and the LLD must never return wrong payload
// bytes without an error. Every sampled offset across the whole image is
// tried against a fresh copy; each outcome must be detect (open or read
// fails) or clean-recover (reads return a previously-written version —
// here, the written value or the empty pre-write state).
func TestCorruptionSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	d, l := newTestLLD(t, 2<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	want := make(map[ld.BlockID][]byte)
	prev := ld.NilBlock
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 40; i++ {
		b := mustNewBlock(t, l, lid, prev)
		data := bytes.Repeat([]byte{byte(rng.Intn(255) + 1)}, 512+rng.Intn(3500))
		mustWrite(t, l, b, data)
		want[b] = data
		prev = b
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}
	pristine := make([]byte, d.Capacity())
	if err := d.ReadAt(pristine, 0); err != nil {
		t.Fatal(err)
	}

	const stride = 4099 // prime, so samples cut across all structures
	buf := make([]byte, 4096)
	opens, opensFailed := 0, 0
	for off := int64(0); off < int64(len(pristine)); off += stride {
		nd := disk.New(disk.DefaultConfig(int64(len(pristine))))
		if err := nd.WriteAt(pristine, 0); err != nil {
			t.Fatal(err)
		}
		nd.CorruptRange(off, 1, 0xFF)
		l2, err := Open(nd, testOptions())
		if err != nil {
			opensFailed++ // detection at open time (e.g. superblock rot)
			continue
		}
		opens++
		if viol := l2.CheckInvariants(); len(viol) != 0 {
			t.Fatalf("offset %d: invariants violated after recovery: %v", off, viol)
		}
		for b, data := range want {
			n, err := l2.Read(b, buf)
			if err != nil {
				continue // refused or absent: detection, never wrong bytes
			}
			if n != 0 && !bytes.Equal(buf[:n], data) {
				t.Fatalf("offset %d: block %d read wrong bytes without an error", off, b)
			}
		}
	}
	if opens == 0 {
		t.Fatalf("every corrupted image failed to open (%d tries) — sweep proves nothing", opensFailed)
	}
	t.Logf("corruption sweep: %d single-byte flips, %d opened, %d refused at open", opens+opensFailed, opens, opensFailed)
}

// TestScrubCleanHammer races a scrubbing goroutine, a cleaning goroutine,
// concurrent writers, and concurrent readers on one LLD. Run with -race;
// the assertions are that nothing deadlocks, no read ever fails or returns
// wrong bytes (the disk is healthy), no scrub pass finds anything, and
// invariants hold at the end.
func TestScrubCleanHammer(t *testing.T) {
	_, l := newTestLLD(t, 4<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})

	const workers = 4
	const blocksPer = 8
	const rounds = 60
	owned := make([][]ld.BlockID, workers)
	prev := ld.NilBlock
	for w := 0; w < workers; w++ {
		for i := 0; i < blocksPer; i++ {
			b := mustNewBlock(t, l, lid, prev)
			mustWrite(t, l, b, []byte{byte(w)})
			owned[w] = append(owned[w], b)
			prev = b
		}
	}

	var wg, idleWG sync.WaitGroup
	errc := make(chan error, workers+2)
	stop := make(chan struct{})
	idle := func(name string, pass func() error) {
		idleWG.Add(1)
		go func() {
			defer idleWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := pass(); err != nil {
					errc <- fmt.Errorf("%s: %w", name, err)
					return
				}
			}
		}()
	}
	idle("scrubber", func() error {
		res, err := l.Scrub()
		if err == nil && len(res.Corrupt) != 0 {
			err = fmt.Errorf("healthy disk, corrupt blocks %v", res.Corrupt)
		}
		return err
	})
	idle("cleaner", func() error {
		_, err := l.Clean(1)
		return err
	})
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			buf := make([]byte, 4096)
			val := make([]byte, workers*blocksPer)
			for r := 0; r < rounds; r++ {
				for i, b := range owned[w] {
					val[i] = byte(rng.Intn(255) + 1)
					if err := l.Write(b, bytes.Repeat([]byte{val[i]}, 2048+rng.Intn(2048))); err != nil {
						errc <- fmt.Errorf("worker %d write: %w", w, err)
						return
					}
				}
				for i, b := range owned[w] {
					n, err := l.Read(b, buf)
					if err != nil {
						errc <- fmt.Errorf("worker %d read: %w", w, err)
						return
					}
					if n == 0 || buf[0] != val[i] {
						errc <- fmt.Errorf("worker %d block %d: read wrong bytes", w, b)
						return
					}
				}
				if r%20 == 10 && w == 0 {
					if _, err := l.Scrub(); err != nil {
						errc <- fmt.Errorf("foreground scrub: %w", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	idleWG.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariants after hammer: %v", viol)
	}
	if err := l.Shutdown(true); err != nil {
		t.Fatal(err)
	}
	s := l.Stats()
	if s.ScrubErrors != 0 {
		t.Fatalf("scrubber reported %d errors on a healthy disk", s.ScrubErrors)
	}
	if s.ScrubPasses == 0 {
		t.Fatal("no scrub pass completed during the hammer")
	}
}
