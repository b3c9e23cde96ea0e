package lld

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
)

// TestConsolidationCrashSoak combines the three crash-correctness
// mechanisms — consolidation checkpoints, abort fences, and dual summary
// slots — under one randomized storm. The workload keeps a large set of
// long-lived small blocks (fact-dense segments) and overwrites a hot
// subset, some inside ARUs, with periodic consolidation checkpoints and
// crashes landing at random points across many generations. After every
// recovery the invariants must hold and every surviving block must read
// back the content its id and version dictate, never below the version
// the last successful Flush acknowledged.
func TestConsolidationCrashSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	var consolidations, fences int64
	// 1993, 2035 and 2057 crash at the bottom of the free pool: every segment
	// comes back live, and the mount owes an abort fence and has nowhere to
	// log it until the cleaner frees a segment. The fence once needed a
	// consolidate-and-retry for the cleaner to free one (DESIGN §11 finding
	// 8); the mount must not return ErrNoSpace on them.
	for _, seed := range []int64{1, 42, 1993, 77, 2035, 2057} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c, f := consolidationCrashSoak(t, seed)
			consolidations += c
			fences += f
		})
	}
	if consolidations == 0 {
		t.Error("no seed ever consolidated")
	}
	if fences == 0 {
		t.Error("no recovery ever discarded an ARU; the storm is not exercising abort fences")
	}
}

func consolidationCrashSoak(t *testing.T, seed int64) (consolidations, fences int64) {
	o := testOptions()
	d := disk.New(disk.DefaultConfig(3 << 20))
	if err := Format(d, o); err != nil {
		t.Fatal(err)
	}
	l, err := Open(d, o)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))

	// Small blocks: a segment's summary fills with entries and immortal
	// allocation facts long before its data area does, which is the
	// fact-dense regime consolidation exists for. The version is encoded
	// in two bytes (hot blocks see thousands of rewrites per storm).
	content := func(b ld.BlockID, ver uint16) []byte {
		return bytes.Repeat([]byte{byte(uint64(b)%250) + 1, byte(ver), byte(ver >> 8), 0xEE}, 32)
	}

	// Long-lived cold set: fill half the usable space.
	lid, err := l.NewList(ld.NilList, ld.ListHints{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []ld.BlockID
	pred := ld.NilBlock
	for l.LiveBytes() < l.UsableBytes()*2/5 {
		b, err := l.NewBlock(lid, pred)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Write(b, content(b, 0)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, b)
		pred = b
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	// version[i] is the durable version floor of ids[i]: the version at
	// the last successful Flush. In-flight versions may or may not survive.
	version := make([]uint16, len(ids))
	inflight := append([]uint16(nil), version...)

	for gen := 0; gen < 6; gen++ {
		d.InjectCrashAfterSectors(int64(1500 + rng.Intn(6000)))
		for op := 0; op < 4000 && !d.Crashed(); op++ {
			if op%777 == 776 {
				// Periodic consolidation, as a fact-dense deployment would
				// need: advances the recovery floor mid-storm. It also makes
				// everything logged so far durable.
				l.mu.Lock()
				cerr := l.checkpoint()
				l.mu.Unlock()
				if cerr == nil && !l.aruOpen {
					copy(version, inflight)
					consolidations++
				}
			}
			switch rng.Intn(10) {
			case 9:
				// A successful Flush acknowledges only committed records: if
				// a unit is still open (an earlier EndARU failed under space
				// pressure), its records are durable but remain conditional
				// on a commit that has not happened yet.
				if l.Flush(ld.FailPower) == nil && !l.aruOpen {
					copy(version, inflight)
				}
			case 8:
				// A large ARU: enough rewrites that segment seals regularly
				// land inside it, making the unit's records durable before
				// its commit — the discard-and-fence case when the crash
				// hits in between.
				if l.aruOpen {
					_ = l.EndARU() // close a unit a failed EndARU left open
					continue
				}
				if l.BeginARU() != nil {
					continue
				}
				for j := 0; j < 100; j++ {
					i := rng.Intn(16)
					if l.Write(ids[i], content(ids[i], inflight[i]+1)) != nil {
						break
					}
					inflight[i]++
				}
				_ = l.EndARU()
			default:
				i := rng.Intn(16) // hot subset: dense immortal facts
				if rng.Intn(20) == 0 {
					i = rng.Intn(len(ids)) // occasional cold write
				}
				if l.Write(ids[i], content(ids[i], inflight[i]+1)) == nil {
					inflight[i]++
				}
			}
		}
		_ = l.Shutdown(false)
		d.ClearCrash()

		l, err = Open(d, o)
		if errors.Is(err, ld.ErrNoSpace) {
			t.Fatalf("gen %d: Open refused a crashed image for lack of space — data loss, however full the disk: %v", gen, err)
		}
		if err != nil {
			t.Fatalf("gen %d: recovery: %v", gen, err)
		}
		if l.Stats().RecoveryDiscards > 0 {
			fences++
		}
		if viol := l.CheckInvariants(); len(viol) != 0 {
			t.Fatalf("gen %d: invariants: %v", gen, viol)
		}
		// Every block must read back a well-formed version at or above the
		// durable floor (in-flight writes may have survived or not, but
		// never as a torn mixture, and never below what Flush acknowledged).
		buf := make([]byte, o.MaxBlockSize)
		for i, b := range ids {
			n, err := l.Read(b, buf)
			if err != nil {
				t.Fatalf("gen %d: read %d: %v", gen, b, err)
			}
			if n != 128 {
				t.Fatalf("gen %d: block %d came back %d bytes", gen, b, n)
			}
			ver := uint16(buf[1]) | uint16(buf[2])<<8
			if !bytes.Equal(buf[:n], content(b, ver)) {
				t.Fatalf("gen %d: block %d torn content", gen, b)
			}
			if ver < version[i] {
				t.Fatalf("gen %d: block %d regressed below the flushed version (%d < %d)",
					gen, b, ver, version[i])
			}
			// Recovered version becomes the new ground truth.
			version[i] = ver
		}
		copy(inflight, version)
	}
	t.Logf("soak: %d consolidations, %d recoveries with a discarded ARU", consolidations, fences)
	return consolidations, fences
}
