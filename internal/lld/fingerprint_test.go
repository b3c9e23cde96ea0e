package lld

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/ld"
)

// fingerprintInternal renders the complete in-memory state of an LLD —
// block-number map, list table, segment usage table, free/cooling pools,
// timestamps, and fence window — as a deterministic string, so two
// recoveries can be compared for byte-identical results rather than mere
// logical equivalence.
func fingerprintInternal(l *LLD) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ts=%d ckptTS=%d fence=[%d,%d] live=%d reserved=%d nextFresh=%d nextList=%d\n",
		l.ts, l.ckptTS, l.fenceLo, l.fenceHi, l.liveBytes, l.reservedBytes, l.nextFresh, l.nextList)
	for i := range l.blocks {
		bi := &l.blocks[i]
		if bi.flags == 0 && bi.existTS == 0 && bi.linkTS == 0 && bi.dataTS == 0 {
			continue
		}
		fmt.Fprintf(&b, "blk %d: seg=%d off=%d stored=%d orig=%d next=%d lid=%d flags=%d ts=%d/%d/%d\n",
			i, bi.seg, bi.off, bi.stored, bi.orig, bi.next, bi.lid, bi.flags,
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
	return b.String()
}

// buildCrashedImage creates a multi-segment image with a rich record mix —
// interleaved writes, rewrites, deletions, list surgery, an aborted ARU,
// cleaning traffic, and an unflushed tail — then crashes it and returns
// the raw disk image.
func buildCrashedImage(t *testing.T, capacity int64, opts Options) []byte {
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
		if err := l.Flush(ld.FailPower); err != nil {
			t.Fatalf("Flush: %v", err)
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
