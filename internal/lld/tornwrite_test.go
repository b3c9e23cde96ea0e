package lld

import (
	"bytes"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
)

// TestTornPartialRewriteKeepsAckedRecords pins down the dual-summary-slot
// guarantee: the partial-segment strategy (§3.2) writes the open segment's
// summary again on every flush, and with a single summary location a write
// torn mid-summary would destroy the previous image — records an earlier
// Flush had already acknowledged. The test arms a crash at every sector
// position of the second flush and checks the first flush's blocks always
// recover.
func TestTornPartialRewriteKeepsAckedRecords(t *testing.T) {
	o := testOptions()
	// Enough blocks per flush that the encoded summary spans several
	// sectors: a tear must be able to land inside meaningful content,
	// not in the zeroed tail of the summary region.
	const perFlush = 30
	contentA := func(i int) []byte { return bytes.Repeat([]byte{0xA0 ^ byte(i)}, 300) }
	contentB := func(i int) []byte { return bytes.Repeat([]byte{0xB0 ^ byte(i)}, 300) }

	// Reference run to learn the sector positions of the two flushes.
	run := func(d *disk.Disk, stopAfterFirst bool) (ld.ListID, []ld.BlockID, error) {
		l, err := Open(d, o)
		if err != nil {
			return 0, nil, err
		}
		lid, err := l.NewList(ld.NilList, ld.ListHints{})
		if err != nil {
			return 0, nil, err
		}
		var ids []ld.BlockID
		pred := ld.NilBlock
		for i := 0; i < perFlush; i++ {
			b, err := l.NewBlock(lid, pred)
			if err != nil {
				return 0, nil, err
			}
			if err := l.Write(b, contentA(i)); err != nil {
				return 0, nil, err
			}
			ids = append(ids, b)
			pred = b
		}
		if err := l.Flush(ld.FailPower); err != nil {
			return 0, nil, err
		}
		if stopAfterFirst {
			return lid, ids, l.Shutdown(false)
		}
		for i := 0; i < perFlush; i++ {
			b, err := l.NewBlock(lid, pred)
			if err != nil {
				return lid, ids, err
			}
			if err := l.Write(b, contentB(i)); err != nil {
				return lid, ids, err
			}
			pred = b
		}
		if err := l.Flush(ld.FailPower); err != nil {
			return lid, ids, err
		}
		return lid, ids, l.Shutdown(false)
	}

	mkdisk := func() *disk.Disk {
		d := disk.New(disk.DefaultConfig(4 << 20))
		if err := Format(d, o); err != nil {
			t.Fatal(err)
		}
		d.ResetStats()
		return d
	}

	ref := mkdisk()
	if _, _, err := run(ref, true); err != nil {
		t.Fatal(err)
	}
	firstFlush := ref.Stats().SectorsWritten
	ref2 := mkdisk()
	if _, _, err := run(ref2, false); err != nil {
		t.Fatal(err)
	}
	total := ref2.Stats().SectorsWritten
	if total <= firstFlush {
		t.Fatalf("second flush wrote nothing (%d vs %d sectors)", total, firstFlush)
	}

	// Crash at every sector of the second flush; the first flush's blocks
	// and content must always survive recovery.
	for k := firstFlush + 1; k <= total; k++ {
		d := mkdisk()
		d.InjectCrashAfterSectors(k)
		_, ids, _ := run(d, false) // expected to fail at some point
		d.ClearCrash()
		l, err := Open(d, o)
		if err != nil {
			t.Fatalf("k=%d: recovery: %v", k, err)
		}
		if viol := l.CheckInvariants(); len(viol) != 0 {
			t.Fatalf("k=%d: invariants: %v", k, viol)
		}
		buf := make([]byte, o.MaxBlockSize)
		for i, b := range ids {
			n, err := l.Read(b, buf)
			if err != nil {
				t.Fatalf("k=%d: acked block %d lost: %v", k, i, err)
			}
			if !bytes.Equal(buf[:n], contentA(i)) {
				t.Fatalf("k=%d: acked block %d corrupted", k, i)
			}
		}
		if err := l.Shutdown(false); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("swept %d crash points across the second flush", total-firstFlush)
}
