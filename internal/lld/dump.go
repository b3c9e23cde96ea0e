package lld

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/disk"
)

// Dump writes a human-readable description of an LLD-formatted disk to w:
// the superblock geometry, both checkpoint slots, and a per-segment summary
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
	fmt.Fprintf(w, "superblock: segment=%d KB summary=%d KB maxBlock=%d maxBlocks=%d segments=%d\n",
		lay.segmentSize/1024, lay.summarySize/1024, lay.maxBlockSize, lay.maxBlocks, lay.nSegments)
	fmt.Fprintf(w, "layout: checkpoints at %d (2 x %d KB), segments at %d\n",
		lay.checkpointOff, lay.checkpointSize/1024, lay.segmentsOff)

	head := make([]byte, d.SectorSize())
	for slot := 0; slot < 2; slot++ {
		off := lay.checkpointOff + int64(slot)*lay.checkpointSize
		if err := d.ReadAt(head, off); err != nil {
			return err
		}
		if binary.LittleEndian.Uint32(head[0:]) != checkpointMagic || head[20] != 1 {
			fmt.Fprintf(w, "checkpoint %d: empty/invalid\n", slot)
			continue
		}
		fmt.Fprintf(w, "checkpoint %d: ts=%d payload=%d B complete=%v\n",
			slot, binary.LittleEndian.Uint64(head[8:]),
			binary.LittleEndian.Uint32(head[16:]), head[21] == 1)
	}

	sum := make([]byte, 2*lay.summarySize)
	liveSegs, freeSegs := 0, 0
	for i := 0; i < lay.nSegments; i++ {
		if err := d.ReadAt(sum, lay.segOff(i)+int64(lay.dataCap())); err != nil {
			return err
		}
		si, err := decodeNewestSummary(sum, lay, i)
		if err != nil {
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
				fmt.Fprintf(w, "    block %6d ts=%d off=%d stored=%d orig=%d flags=%#x\n",
					e.bid, e.ts, e.off, e.stored, e.orig, e.flags)
			}
			for _, t := range si.tuples {
				fmt.Fprintf(w, "    tuple %-11s ts=%d committed=%v args=%v\n",
					tupleName(t.kind), t.ts, t.committed(), t.args[:tupleArgc[t.kind]])
			}
		}
	}
	fmt.Fprintf(w, "segments: %d with summaries, %d free/invalid\n", liveSegs, freeSegs)
	return nil
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
	buf := make([]byte, lay.summarySize)
	var ts []uint64
	for i := 0; i < lay.nSegments; i++ {
		for slot := 0; slot < 2; slot++ {
			off := lay.sumOff(i, slot)
			if err := d.ReadAt(buf, off); err != nil {
				return nil, 0, err
			}
			if si, err := decodeSummary(buf, lay, i); err == nil {
				offs = append(offs, off)
				ts = append(ts, si.writeTS)
			}
		}
	}
	byTS := make([]int, len(offs))
	for i := range byTS {
		byTS[i] = i
	}
	sort.SliceStable(byTS, func(a, b int) bool { return ts[byTS[a]] > ts[byTS[b]] })
	newest := make([]int64, len(offs))
	for i, j := range byTS {
		newest[i] = offs[j]
	}
	return newest, lay.summarySize, nil
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

func tupleName(kind uint8) string {
	switch kind {
	case tAlloc:
		return "alloc"
	case tFree:
		return "free"
	case tNewList:
		return "newlist"
	case tDelList:
		return "dellist"
	case tMoveList:
		return "movelist"
	case tCommit:
		return "commit"
	case tBlockState:
		return "blockstate"
	case tBlockFree:
		return "blockfree"
	case tListState:
		return "liststate"
	case tDataAt:
		return "dataat"
	case tFence:
		return "fence"
	default:
		return fmt.Sprintf("kind%d", kind)
	}
}
