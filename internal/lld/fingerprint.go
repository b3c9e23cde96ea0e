package lld

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/disk"
	"repro/internal/ld"
)

// fingerprint renders the in-memory state of an LLD — block-number map,
// list table, segment usage table, free/cooling pools, timestamps, the
// chain, the fence window, and what the last recovery found — as a
// deterministic string, so two mounts can be compared for byte-identical
// results rather than mere logical equivalence. It leaves out what only
// says how the mount went about it: how many summaries it probed and how
// (chain or full sweep, replica copies that differed), the torn slots it
// cleared, its data read-back counts and its timings.
func (l *LLD) fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ts=%d ckptTS=%d fence=[%d,%d] live=%d reserved=%d nextFresh=%d nextList=%d map=%d\n",
		l.ts, l.ckptTS, l.fenceLo, l.fenceHi, l.liveBytes, l.reservedBytes, l.nextFresh, l.nextList, len(l.blocks))
	fmt.Fprintf(&b, "chain: openSeq=%d succ=%d ckptSeq=%d mark=%d\n", l.openSeq, l.succ, l.ckptSeq, l.durableMark)
	for i := range l.blocks {
		bi := &l.blocks[i]
		if bi.flags == 0 {
			continue
		}
		fmt.Fprintf(&b, "blk %d: seg=%d off=%d stored=%d orig=%d crc=%d next=%d lid=%d flags=%d\n",
			i, l.segOf(bi), l.offOf(bi), bi.stored, bi.orig, bi.crc, bi.next, bi.lid, bi.flags)
	}
	lids := make([]ld.ListID, 0, len(l.lists))
	for lid := range l.lists {
		lids = append(lids, lid)
	}
	sort.Slice(lids, func(i, j int) bool { return lids[i] < lids[j] })
	for _, lid := range lids {
		li := l.lists[lid]
		fmt.Fprintf(&b, "list %d: first=%d count=%d hints=%+v\n", lid, li.first, li.count, li.hints)
	}
	fmt.Fprintf(&b, "order=%v\n", l.listOrder())
	// Sorted: a heap's layout depends on the order its ids were pushed in.
	fmt.Fprintf(&b, "freeIDs=%v freeLists=%v\n", l.freeIDs.Sorted(), l.freeLists.Sorted())
	for i := range l.segs {
		fmt.Fprintf(&b, "seg %d: live=%d ts=%d seq=%d state=%d\n", i, l.segs[i].live, l.segs[i].ts, l.segs[i].seq, l.segs[i].state)
	}
	fmt.Fprintf(&b, "freeSegs=%v cooling=%v held=%v\n", l.freeSegs, l.cooling, l.held)
	r := l.recReport
	fmt.Fprintf(&b, "recovered: floor=%d quarantined=%v degraded=%v discarded=%d anomalies=%d discards=%d\n",
		r.CheckpointTS, r.QuarantinedSegments, r.DegradedBlocks, r.DiscardedRecords, l.stats.RecoveryAnomalies, l.stats.RecoveryDiscards)
	return b.String()
}

// CompareChainMount mounts two copies of one crash image, chain by
// following the newest checkpoint's chain as Open does and full by probing
// every segment's summary as Verify does, and returns an error naming the
// first difference between the states they recover. They must not differ:
// the chain finds every segment written since the checkpoint, and the
// segments it does not visit hold nothing newer than it. Both copies are
// written to, as any mount writes.
func CompareChainMount(chain, full disk.Backend, opts Options) error {
	a, err := Open(chain, opts)
	if err != nil {
		return fmt.Errorf("chain mount: %w", err)
	}
	defer a.Shutdown(false)
	b, err := OpenFullSweep(full, opts)
	if err != nil {
		return fmt.Errorf("full-sweep mount: %w", err)
	}
	defer b.Shutdown(false)
	if a.recReport.SweptSegments == 0 {
		// Open found a shutdown checkpoint and read no summary: it runs the
		// clock on from the checkpoint's stamp and reports no floor, where a
		// sweep that finds nothing newer restarts the clock one past that
		// stamp and reports the checkpoint as its floor.
		a.ts++
		a.recReport.CheckpointTS = a.ckptTS
	}
	fa, fb := strings.Split(a.fingerprint(), "\n"), strings.Split(b.fingerprint(), "\n")
	for i := 0; i < len(fa) && i < len(fb); i++ {
		if fa[i] != fb[i] {
			return fmt.Errorf("the chain mount (%d segments from checkpoint @%d, %q) and the full sweep recover different states at line %d:\n  chain: %s\n  full:  %s",
				a.recReport.ChainSegments, a.recReport.CheckpointTS, a.recReport.FullSweep, i, fa[i], fb[i])
		}
	}
	if len(fa) != len(fb) {
		return fmt.Errorf("the chain mount and the full sweep recover states of %d and %d lines", len(fa), len(fb))
	}
	return nil
}
