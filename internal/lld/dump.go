package lld

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"repro/internal/disk"
)

// Dump writes a human-readable description of an LLD-formatted disk to w:
// the superblock geometry, both checkpoint pointer slots, and a per-segment summary
// overview. With verbose set, every block entry and tuple is listed. It is
// the engine behind cmd/lddump and reads the disk without mutating it.
func Dump(d disk.Backend, w io.Writer, verbose bool) error {
	sector := make([]byte, d.SectorSize())
	if err := d.ReadAt(sector, 0); err != nil {
		return err
	}
	lay, err := decodeSuper(sector)
	if err != nil {
		return err
	}
	if err := lay.fits(d); err != nil {
		return err
	}
	fmt.Fprintf(w, "superblock: segment=%d KB summary=%d KB maxBlock=%d segments=%d capacity=%d\n",
		lay.segmentSize/1024, lay.summarySize/1024, lay.maxBlockSize, lay.nSegments, lay.capacity)
	fmt.Fprintf(w, "layout: checkpoint pointers at %d (2 x %d B), segments at %d\n",
		lay.pointerOff(0), lay.pointerSize(), lay.segmentsOff)

	buf := make([]byte, lay.pointerSize())
	for slot := 0; slot < 2; slot++ {
		if err := d.ReadAt(buf, lay.pointerOff(slot)); err != nil {
			return err
		}
		p, ok := readPointer(buf, lay)
		if !ok {
			fmt.Fprintf(w, "checkpoint %d: empty/invalid\n", slot)
			continue
		}
		if p.table != nil {
			fmt.Fprintf(w, "checkpoint %d: gen=%d ts=%d payload named by an extent table of %d B in %d extents, from segment %d complete=%v\n",
				slot, p.gen, p.ts, extentsLen(p.table), len(p.table), p.chainSeg, p.complete)
			continue
		}
		fmt.Fprintf(w, "checkpoint %d: gen=%d ts=%d payload=%d B in %d extents from segment %d complete=%v\n",
			slot, p.gen, p.ts, extentsLen(p.exts), len(p.exts), p.chainSeg, p.complete)
	}

	liveSegs, freeSegs := 0, 0
	for i := 0; i < lay.nSegments; i++ {
		si, err := platterSummary(d, lay, i)
		if err != nil {
			return err
		}
		if si == nil {
			freeSegs++
			if verbose {
				fmt.Fprintf(w, "segment %4d: free/invalid\n", i)
			}
			continue
		}
		liveSegs++
		kind := "sealed"
		if !si.sealed {
			kind = "partial"
		}
		fmt.Fprintf(w, "segment %4d: %s ts=%d durable=%d data=%d B entries=%d tuples=%d\n",
			i, kind, si.writeTS, si.mark, si.dataBytes, len(si.entries), len(si.tuples))
		if verbose {
			for _, e := range si.entries {
				if e.bid == 0 {
					fmt.Fprintf(w, "    checkpoint ts=%d off=%d bytes=%d\n", e.ts, e.off, e.stored)
					continue
				}
				fmt.Fprintf(w, "    block %6d ts=%d off=%d stored=%d orig=%d flags=%#x\n",
					e.bid, e.ts, e.off, e.stored, e.orig, e.flags)
			}
			for _, t := range si.tuples {
				fmt.Fprintf(w, "    tuple %-11s ts=%d committed=%v args=%v\n",
					tupleNames[t.kind], t.ts, t.committed(), t.args[:tupleArgc[t.kind]])
			}
		}
	}
	fmt.Fprintf(w, "segments: %d with summaries, %d free/invalid\n", liveSegs, freeSegs)
	return nil
}

// platterSummary reads segment id's summary area from d as it is now,
// uncounted and without retry, and returns the newest summary that decodes,
// nil if none does. For Dump and checks, not for a mount or the cleaner.
func platterSummary(d disk.Backend, lay layout, id int) (*summaryInfo, error) {
	area := make([]byte, 2*lay.summarySize)
	if err := d.ReadAt(area, lay.sumOff(id, 0)); err != nil {
		return nil, err
	}
	return classifySlots(area, lay, id, [2]bool{}).si, nil
}

// SummarySlots returns the byte offset of every summary slot of d — an
// LLD-formatted disk, or one leg of a mirror of one — whose bytes decode as a
// summary of their segment, newest write first, and the size of a slot. It
// only reads d.
func SummarySlots(d disk.Backend) (offs []int64, size int, err error) {
	sector := make([]byte, d.SectorSize())
	if err := d.ReadAt(sector, 0); err != nil {
		return nil, 0, err
	}
	lay, err := decodeSuper(sector)
	if err != nil {
		return nil, 0, err
	}
	if err := lay.fits(d); err != nil {
		return nil, 0, err
	}
	type slotTS struct {
		off int64
		ts  uint64
	}
	var slots []slotTS
	buf := make([]byte, lay.summarySize)
	for i := 0; i < lay.nSegments; i++ {
		for slot := 0; slot < 2; slot++ {
			off := lay.sumOff(i, slot)
			if err := d.ReadAt(buf, off); err != nil {
				return nil, 0, err
			}
			if si, err := decodeSummary(buf, lay, i); err == nil {
				slots = append(slots, slotTS{off, si.writeTS})
			}
		}
	}
	slices.SortStableFunc(slots, func(a, b slotTS) int { return cmp.Compare(b.ts, a.ts) })
	for _, s := range slots {
		offs = append(offs, s.off)
	}
	return offs, lay.summarySize, nil
}

// Verify is the integrity check behind lddump -verify: a mount that trusts
// nothing. It mounts d as recovery does after a crash that follows a clean
// restart — a clean-shutdown checkpoint is only the sweep's floor, so every
// summary is still probed and classified by recovery's own rules — and reads
// back every mapped payload, the segments at or below the durable mark
// included. It prints what the mount found to w and returns the number of
// segments it holds quarantined: summary slots unreadable or rotted mid-log,
// payloads that fail their checksum, and quarantines an earlier recovery left
// in the checkpoint. A mount that fails is the error.
//
// Verify writes what a mount writes (torn slots zeroed, the clean-shutdown
// marker demoted, replica copies healed), so callers pass it a copy.
func Verify(d disk.Backend, w io.Writer) (faults int, err error) {
	trustNothing := func(l *LLD, rep *RecoveryReport, _ func(int) bool) {
		l.verifyRecoveredData(rep, func(int) bool { return false })
	}
	l, err := open(d, DefaultOptions(), trustNothing, true)
	if err != nil {
		return 0, err
	}
	rep := l.RecoveryReport()
	_ = l.Shutdown(false) // drops the instance
	for _, q := range rep.QuarantinedSegments {
		fmt.Fprintf(w, "segment %4d: FAULT %s\n", q.Seg, q.Reason)
	}
	if rep.TornSlotsCleared > 0 {
		fmt.Fprintf(w, "verify: %d torn summary slots cleared as the benign tail of a crashed write\n", rep.TornSlotsCleared)
	}
	faults = len(rep.QuarantinedSegments)
	if faults == 0 {
		fmt.Fprintf(w, "verify: %d segments clean, %d block payloads read back\n", rep.SweptSegments, rep.VerifiedBlocks)
	} else {
		fmt.Fprintf(w, "verify: %d of %d segments quarantined, %d blocks degraded\n",
			faults, rep.SweptSegments, len(rep.DegradedBlocks))
	}
	return faults, nil
}

// tupleNames names each tuple kind in Dump's listing.
var tupleNames = [tupleKindMax]string{
	tAlloc: "alloc", tFree: "free", tNewList: "newlist", tDelList: "dellist", tMoveList: "movelist",
	tCommit: "commit", tBlockState: "blockstate", tBlockFree: "blockfree", tListState: "liststate",
	tDataAt: "dataat", tFence: "fence",
}
