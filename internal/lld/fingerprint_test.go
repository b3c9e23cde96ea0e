package lld

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
)

// fingerprintInternal renders the complete in-memory state of an LLD —
// block-number map, list table, segment usage table, free/cooling pools,
// timestamps, fence window, and what the last recovery reported — as a
// deterministic string, so two recoveries can be compared for byte-identical
// results rather than mere logical equivalence.
func fingerprintInternal(l *LLD) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ts=%d ckptTS=%d fence=[%d,%d] live=%d reserved=%d nextFresh=%d nextList=%d map=%d\n",
		l.ts, l.ckptTS, l.fenceLo, l.fenceHi, l.liveBytes, l.reservedBytes, l.nextFresh, l.nextList, len(l.blocks))
	for i := range l.blocks {
		bi := &l.blocks[i]
		if bi.flags == 0 && bi.existTS == 0 && bi.linkTS == 0 && bi.dataTS == 0 {
			continue
		}
		fmt.Fprintf(&b, "blk %d: seg=%d off=%d stored=%d orig=%d crc=%d next=%d lid=%d flags=%d ts=%d/%d/%d\n",
			i, bi.seg, bi.off, bi.stored, bi.orig, bi.crc, bi.next, bi.lid, bi.flags,
			bi.existTS, bi.linkTS, bi.dataTS)
	}
	lids := make([]ld.ListID, 0, len(l.lists))
	for lid := range l.lists {
		lids = append(lids, lid)
	}
	sort.Slice(lids, func(i, j int) bool { return lids[i] < lids[j] })
	for _, lid := range lids {
		li := l.lists[lid]
		fmt.Fprintf(&b, "list %d: first=%d count=%d hints=%+v ts=%d/%d/%d\n",
			lid, li.first, li.count, li.hints, li.existTS, li.headTS, li.orderTS)
	}
	fmt.Fprintf(&b, "order=%v\n", l.order)
	fmt.Fprintf(&b, "freeIDs=%v freeLists=%v\n", l.freeIDs.all(), l.freeLists.all())
	dead := make([]ld.ListID, 0, len(l.deadLists))
	for lid := range l.deadLists {
		dead = append(dead, lid)
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
	for _, lid := range dead {
		fmt.Fprintf(&b, "dead %d: ts=%d\n", lid, l.deadLists[lid])
	}
	for i := range l.segs {
		fmt.Fprintf(&b, "seg %d: live=%d ts=%d state=%d\n", i, l.segs[i].live, l.segs[i].ts, l.segs[i].state)
	}
	fmt.Fprintf(&b, "freeSegs=%v cooling=%v\n", l.freeSegs, l.cooling)
	fmt.Fprintf(&b, "report=%+v anomalies=%d discards=%d\n",
		l.recReport, l.stats.RecoveryAnomalies, l.stats.RecoveryDiscards)
	return b.String()
}

// buildCrashedImage creates a multi-segment image with a rich record mix —
// interleaved writes, rewrites, deletions, list creation, deletion and
// moves, an aborted ARU, cleaning traffic, and an unflushed tail — then
// crashes it and returns the raw disk image. With consolidate set, a
// consolidation checkpoint is written halfway, so the mount replays the
// second half over the checkpoint's state.
func buildCrashedImage(t *testing.T, capacity int64, opts Options, consolidate bool) []byte {
	t.Helper()
	d, l := newTestLLD(t, capacity, opts)
	rng := rand.New(rand.NewSource(7))

	type member struct {
		lid ld.ListID
		id  ld.BlockID
	}
	var lists []ld.ListID
	var blocks []member
	for i := 0; i < 4; i++ {
		lists = append(lists, mustNewList(t, l, ld.NilList, ld.ListHints{}))
	}
	for round := 0; round < 6; round++ {
		for i := 0; i < 40; i++ {
			lid := lists[rng.Intn(len(lists))]
			b := mustNewBlock(t, l, lid, ld.NilBlock)
			mustWrite(t, l, b, bytes.Repeat([]byte{byte(rng.Intn(256))}, 64+rng.Intn(3000)))
			blocks = append(blocks, member{lid, b})
		}
		// Rewrites and deletions create superseded and dead records for
		// the sweep's newest-record-wins merge to sort out.
		for i := 0; i < 10 && len(blocks) > 0; i++ {
			j := rng.Intn(len(blocks))
			if rng.Intn(2) == 0 {
				mustWrite(t, l, blocks[j].id, bytes.Repeat([]byte{0xEE}, 128))
			} else {
				if err := l.DeleteBlock(blocks[j].id, blocks[j].lid, ld.NilBlock); err != nil {
					t.Fatalf("DeleteBlock: %v", err)
				}
				blocks[j] = blocks[len(blocks)-1]
				blocks = blocks[:len(blocks)-1]
			}
		}
		// List surgery: a list past the first two (which the ARU below
		// uses) dies with its blocks, a new one is created after a random
		// survivor, and one is moved; freed list ids are reused.
		if len(lists) > 4 {
			i := 2 + rng.Intn(len(lists)-2)
			if err := l.DeleteList(lists[i], ld.NilList); err != nil {
				t.Fatalf("DeleteList: %v", err)
			}
			kept := blocks[:0]
			for _, m := range blocks {
				if m.lid != lists[i] {
					kept = append(kept, m)
				}
			}
			blocks = kept
			lists = append(lists[:i], lists[i+1:]...)
		}
		lists = append(lists, mustNewList(t, l, lists[rng.Intn(len(lists))], ld.ListHints{}))
		if err := l.MoveList(lists[rng.Intn(len(lists))], ld.NilList, ld.NilList); err != nil {
			t.Fatalf("MoveList: %v", err)
		}
		if round == 4 {
			if n, err := l.Clean(1); err != nil || n == 0 {
				t.Fatalf("Clean cleaned %d: %v", n, err)
			}
		}
		if err := l.Flush(ld.FailPower); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if consolidate && round == 2 {
			l.mu.Lock()
			err := l.consolidate()
			l.mu.Unlock()
			if err != nil {
				t.Fatalf("consolidate: %v", err)
			}
		}
	}
	// An aborted ARU leaves uncommitted records on disk; recovery must
	// discard them and emit an abort fence.
	if err := l.BeginARU(); err != nil {
		t.Fatal(err)
	}
	b := mustNewBlock(t, l, lists[0], ld.NilBlock)
	mustWrite(t, l, b, []byte("uncommitted"))
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	// Unflushed tail: lost at the crash.
	b2 := mustNewBlock(t, l, lists[1], ld.NilBlock)
	mustWrite(t, l, b2, []byte("volatile tail"))

	if err := l.Shutdown(false); err != nil {
		t.Fatalf("unclean shutdown: %v", err)
	}
	return d.Snapshot()
}

// TestRecoveredStateIsDeterministic mounts two copies of the same crashed
// image and requires byte-identical internal state. Replay writes through
// the list table, a Go map whose iteration order differs from one range to
// the next, so any recovery step that let that order leak into the list of
// lists, the free pools or the tombstones would show here; the benchmark's
// digit-identical virtual metrics rely on it not doing so.
func TestRecoveredStateIsDeterministic(t *testing.T) {
	const capacity = 4 << 20
	for _, consolidate := range []bool{false, true} {
		t.Run(fmt.Sprintf("consolidated=%v", consolidate), func(t *testing.T) {
			img := buildCrashedImage(t, capacity, testOptions(), consolidate)
			var fps [2]string
			for i := range fps {
				d := disk.New(disk.DefaultConfig(capacity))
				if err := d.Restore(img); err != nil {
					t.Fatal(err)
				}
				l, err := Open(d, testOptions())
				if err != nil {
					t.Fatalf("mount %d: %v", i, err)
				}
				if viol := l.CheckInvariants(); len(viol) != 0 {
					t.Fatalf("mount %d violates invariants: %v", i, viol)
				}
				if (l.ckptTS != 0) != consolidate {
					t.Fatalf("mount %d: checkpoint floor %d, consolidated=%v", i, l.ckptTS, consolidate)
				}
				if l.recReport.DiscardedRecords == 0 {
					t.Fatalf("mount %d discarded no records: the aborted ARU did not reach the platter", i)
				}
				fps[i] = fingerprintInternal(l)
			}
			if fps[0] != fps[1] {
				a, b := strings.Split(fps[0], "\n"), strings.Split(fps[1], "\n")
				for i := 0; i < len(a) && i < len(b); i++ {
					if a[i] != b[i] {
						t.Fatalf("two mounts of one image differ at line %d:\n  %s\n  %s", i, a[i], b[i])
					}
				}
				t.Fatalf("two mounts of one image differ in length: %d vs %d lines", len(a), len(b))
			}
		})
	}
}
