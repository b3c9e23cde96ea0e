package lld

import (
	"bytes"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
)

// damagedImageWB is damagedImage rebuilt over a volatile write cache so a
// test can cut power mid-operation. It returns the rail (to trip and
// restart), the cache (the backend every Open goes through), the reopened
// store with one quarantined segment, that segment's id, and the expected
// content of every block.
func damagedImageWB(t *testing.T) (rail *disk.PowerRail, wb *disk.WBCache, l2 *LLD, target int, want map[ld.BlockID][]byte) {
	t.Helper()
	d := disk.New(disk.DefaultConfig(8 << 20))
	rail = disk.NewRail()
	wb = disk.NewWBCache(d, rail)
	opts := testOptions()
	if err := Format(wb, opts); err != nil {
		t.Fatalf("format: %v", err)
	}
	l, err := Open(wb, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})

	want = make(map[ld.BlockID][]byte)
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
	lay := l.lay
	target = l.blockSeg(ids[0])
	if l.cur != nil && target == l.cur.id {
		t.Fatal("first segment still open; test needs more writes")
	}
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}
	// Drain the cache so the rot below lands on the platter image the
	// next Open will actually read, not under a cached shadow copy.
	if err := rail.SyncAll(); err != nil {
		t.Fatal(err)
	}

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

	l2, err = Open(wb, opts)
	if err != nil {
		t.Fatalf("recovery of damaged image failed: %v", err)
	}
	if viol := l2.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("recovered state violates invariants: %v", viol)
	}
	rep := l2.RecoveryReport()
	if len(rep.QuarantinedSegments) != 1 || rep.QuarantinedSegments[0].Seg != target {
		t.Fatalf("setup: quarantined %+v, want segment %d", rep.QuarantinedSegments, target)
	}
	return rail, wb, l2, target, want
}

// TestReclaimCrashMidEvidenceClear cuts power at each crash point inside
// ReclaimQuarantined's commit window — after the salvage records and a
// checkpoint are durable, before/between/after the evidence-slot clears — and
// checks the documented contract: a crash in between leaves either the
// quarantine intact or the blocks fully re-homed, never neither. In every
// outcome no acknowledged block may be lost, and the segment must not be
// double-freed (simultaneously in the free pool and still evidence-bearing).
func TestReclaimCrashMidEvidenceClear(t *testing.T) {
	for _, site := range []string{"reclaim.preclear", "reclaim.midclear", "reclaim.postclear"} {
		t.Run(site, func(t *testing.T) {
			rail, wb, l1, target, want := damagedImageWB(t)
			if err := l1.Shutdown(false); err != nil {
				t.Fatalf("shutdown before hooked reopen: %v", err)
			}

			// Reopen with a crash hook that trips the power rail at the
			// site under test. The recovery itself hits no reclaim.*
			// sites, so the hook only fires inside ReclaimQuarantined.
			opts := testOptions()
			fired := false
			opts.CrashHook = func(s string) {
				if s == site && !fired {
					fired = true
					rail.PowerLoss(0xC0FFEE)
				}
			}
			// The damaged image is already recovered once; reopen through
			// the cache with the armed hook to run the crashing reclaim.
			l2, err := Open(wb, opts)
			if err != nil {
				t.Fatalf("reopen with hook: %v", err)
			}

			// Blocks whose only record died with the rotted slot are
			// already (legitimately) gone at quarantine time; the crash
			// contract covers the survivors: every block still allocated
			// in the quarantined image must outlive a mid-reclaim crash.
			// (No content check here: pre-reclaim, blocks still homed in
			// the quarantined segment deliberately fail plain reads.)
			survivors := make(map[ld.BlockID][]byte)
			for b, data := range want {
				if l2.blocks[b].allocated() {
					survivors[b] = data
				}
			}
			if len(survivors) == 0 {
				t.Fatal("setup: no surviving blocks to protect")
			}

			_, rerr := l2.ReclaimQuarantined()
			if !fired {
				t.Fatalf("crash site %s never reached", site)
			}
			if !rail.Lost() {
				t.Fatal("power loss did not trip the rail")
			}
			// Power died mid-call: the call may have surfaced the write
			// error or completed its durable work just before the cut.
			// Either way the in-memory instance is now dead weight.
			_ = rerr
			_ = l2.Shutdown(false)

			rail.Restart()
			l3, err := Open(wb, testOptions())
			if err != nil {
				t.Fatalf("recovery after mid-reclaim crash: %v", err)
			}
			if viol := l3.CheckInvariants(); len(viol) != 0 {
				t.Fatalf("post-crash state violates invariants: %v", viol)
			}

			// Never lose facts: the salvage records were synced before
			// any evidence slot was touched, so every surviving block
			// must read back exactly.
			for b, data := range survivors {
				if got := mustRead(t, l3, b); !bytes.Equal(got, data) {
					t.Fatalf("block %d content lost across mid-reclaim crash", b)
				}
			}

			// Never neither: the segment is either still quarantined
			// (evidence intact, reclaim restartable), fully returned to
			// the free pool, or — when the crash zeroed the rotted slot
			// but left the valid older one — an ordinary live segment
			// holding only superseded records for the cleaner to collect.
			// It must never be both free and evidence-bearing.
			rep := l3.RecoveryReport()
			quarantined := false
			for _, q := range rep.QuarantinedSegments {
				if q.Seg == target {
					quarantined = true
				}
			}
			switch st := l3.segs[target].state; st {
			case segQuarantined:
				if !quarantined {
					t.Fatal("segment quarantined in state map but absent from recovery report")
				}
			case segFree, segLive:
				if quarantined {
					t.Fatalf("segment double-accounted: state %d yet still quarantined", st)
				}
				// Re-homing must be complete: no surviving block may
				// still point into the no-longer-quarantined segment.
				for b := range survivors {
					if l3.blockSeg(b) == target {
						t.Fatalf("block %d still homed in reclaimed segment %d", b, target)
					}
				}
			default:
				t.Fatalf("segment %d in unexpected state %d after crash", target, st)
			}

			// Finishing the job must converge: a repeat reclaim either
			// completes the interrupted one or is a no-op, after which
			// the segment is plain free space and no block regressed.
			res, err := l3.ReclaimQuarantined()
			if err != nil {
				t.Fatalf("restarted reclaim: %v", err)
			}
			if len(res.Stuck) != 0 {
				t.Fatalf("restarted reclaim left segments stuck: %v", res.Stuck)
			}
			// A re-quarantined segment is freed by the restarted reclaim;
			// one demoted to plain garbage is the cleaner's to collect.
			if st := l3.segs[target].state; st != segFree && st != segLive {
				t.Fatalf("segment state = %d after restarted reclaim, want free or live", st)
			}
			if g := l3.Stats().QuarantinedSegments; g != 0 {
				t.Fatalf("quarantine gauge = %d after restarted reclaim", g)
			}
			for b, data := range survivors {
				if got := mustRead(t, l3, b); !bytes.Equal(got, data) {
					t.Fatalf("block %d content wrong after restarted reclaim", b)
				}
			}
		})
	}
}
