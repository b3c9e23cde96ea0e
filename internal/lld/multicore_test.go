package lld

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
)

// These tests pin what the single open segment guarantees at the shipped
// configuration on a multi-core machine: DefaultOptions with GOMAXPROCS
// raised to 4.

// TestListWrittenInOrderIsClusteredOnDisk: a list appended block by block
// lands at ascending (segment, offset) in as few segments as its bytes
// need — the clustering by list that paper §3.1 relies on and Tables 4
// and 5 measure.
func TestListWrittenInOrderIsClusteredOnDisk(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	_, l := newTestLLD(t, 16<<20, DefaultOptions())
	const nBlocks = 1000
	data := bytes.Repeat([]byte{0x5A}, l.MaxBlockSize())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	pred := ld.NilBlock
	for i := 0; i < nBlocks; i++ {
		b := mustNewBlock(t, l, lid, pred)
		mustWrite(t, l, b, data)
		pred = b
	}
	blocks, err := l.ListBlocks(lid)
	if err != nil {
		t.Fatal(err)
	}
	segs := 1
	for i := 1; i < len(blocks); i++ {
		prev, cur := l.spanOf(blocks[i-1], &l.blocks[blocks[i-1]]), l.spanOf(blocks[i], &l.blocks[blocks[i]])
		if !prev.before(cur) {
			t.Fatalf("list position %d at (seg %d, off %d) does not follow position %d at (seg %d, off %d)",
				i, cur.seg, cur.off, i-1, prev.seg, prev.off)
		}
		if cur.seg != prev.seg {
			segs++
		}
	}
	dataCap := l.lay.dataCap()
	if max := (nBlocks*len(data)+dataCap-1)/dataCap + 1; segs > max {
		t.Errorf("list spread over %d segments, want at most %d", segs, max)
	}
}

// TestARUAcrossSegmentBoundaryIsAtomicAtEverySector cuts power after every
// sector of an atomic recovery unit whose body is several blocks and
// straddles a seal: recovery must surface all of the unit or none of it,
// and all of it once the Flush after EndARU has returned.
func TestARUAcrossSegmentBoundaryIsAtomicAtEverySector(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const body = 8
	o := DefaultOptions()
	oldData := bytes.Repeat([]byte{0xA0}, o.MaxBlockSize)
	newData := bytes.Repeat([]byte{0xB0}, o.MaxBlockSize)

	// run formats a disk, makes the unit's blocks durable with their old
	// contents, pads the open segment until only half the body fits, then
	// arms the crash and rewrites the body inside one ARU. It returns the
	// body blocks and whether the unit's Flush was acknowledged.
	run := func(d *disk.Disk, crashAfter int64) (*LLD, []ld.BlockID, bool) {
		if err := Format(d, o); err != nil {
			t.Fatal(err)
		}
		l, err := Open(d, o)
		if err != nil {
			t.Fatal(err)
		}
		lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
		var blocks []ld.BlockID
		for i := 0; i < body; i++ {
			b := mustNewBlock(t, l, lid, ld.NilBlock)
			mustWrite(t, l, b, oldData)
			blocks = append(blocks, b)
		}
		if err := l.Flush(ld.FailPower); err != nil {
			t.Fatal(err)
		}
		pad := mustNewList(t, l, ld.NilList, ld.ListHints{})
		for l.cur == nil || l.lay.dataCap()-l.cur.dataOff > body/2*len(oldData) {
			mustWrite(t, l, mustNewBlock(t, l, pad, ld.NilBlock), oldData)
		}
		d.ResetStats()
		d.InjectCrashAfterSectors(crashAfter)
		if l.BeginARU() != nil {
			return l, blocks, false
		}
		for _, b := range blocks {
			if l.Write(b, newData) != nil {
				return l, blocks, false
			}
		}
		if l.EndARU() != nil {
			return l, blocks, false
		}
		return l, blocks, l.Flush(ld.FailPower) == nil
	}

	ref := disk.New(disk.DefaultConfig(8 << 20))
	l, blocks, acked := run(ref, -1)
	if !acked {
		t.Fatal("reference run did not complete")
	}
	if first, last := l.blockSeg(blocks[0]), l.blockSeg(blocks[body-1]); first == last {
		t.Fatalf("unit body sits in one segment (%d); the test must straddle a seal", first)
	}
	total := ref.Stats().SectorsWritten

	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	buf := make([]byte, o.MaxBlockSize)
	for k := int64(0); k <= total; k += stride {
		d := disk.New(disk.DefaultConfig(8 << 20))
		l, blocks, acked := run(d, k)
		_ = l.Shutdown(false)
		d.ClearCrash()
		l2, err := Open(d, o)
		if err != nil {
			t.Fatalf("k=%d: recovery: %v", k, err)
		}
		if viol := l2.CheckInvariants(); len(viol) != 0 {
			t.Fatalf("k=%d: invariants violated: %v", k, viol)
		}
		updated := 0
		for _, b := range blocks {
			n, err := l2.Read(b, buf)
			if err != nil {
				t.Fatalf("k=%d: read block %d: %v", k, b, err)
			}
			switch {
			case bytes.Equal(buf[:n], newData):
				updated++
			case !bytes.Equal(buf[:n], oldData):
				t.Fatalf("k=%d: block %d holds neither version", k, b)
			}
		}
		if updated != 0 && updated != body {
			t.Fatalf("k=%d: %d of %d blocks of the unit survived", k, updated, body)
		}
		if acked && updated != body {
			t.Fatalf("k=%d: unit was flushed but recovery dropped it", k)
		}
	}
	t.Logf("cut power at %d points over %d sectors", total/stride+1, total)
}
