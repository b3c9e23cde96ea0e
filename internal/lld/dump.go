package lld

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

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

// Verify is the offline integrity walk behind lddump -verify: it reads the
// image without mutating it and checks (a) that every segment's summary
// slots are intact or classifiably torn, and (b) that every block entry in
// every valid summary still matches its recorded payload checksum. It
// prints a per-segment report to w and returns the number of faults found
// (corrupt payloads, unreadable sectors, and rotted summaries).
//
// The torn-vs-rot classification is the same one recovery applies: an
// undecodable magic-bearing slot claiming a write timestamp at or below the
// newest acknowledged one (lastValid) was once whole and has rotted; one
// claiming a later timestamp is the benign torn tail of the crash.
func Verify(d disk.Backend, w io.Writer) (faults int, err error) {
	sector := make([]byte, d.SectorSize())
	if err := d.ReadAt(sector, 0); err != nil {
		return 0, err
	}
	lay, err := decodeSuper(sector)
	if err != nil {
		return 0, err
	}

	// Checkpoint floor: summaries wholly covered by a checkpoint may
	// legitimately describe segments the checkpoint has since freed, and a
	// rotted slot below the floor is inert. The decoded contents matter
	// too: payload verification below must only inspect bytes a mount
	// could still read, and the checkpoint's block map is the authority
	// for everything at or below its timestamp.
	ck, err := readCkptForVerify(d, lay)
	if err != nil {
		return 0, err
	}
	floor := ck.floor
	ckptFree := func(i int) bool {
		return ck.states != nil && ck.states[i] == segFree
	}

	type probe struct {
		si         *summaryInfo
		suspectTS  uint64
		suspects   int
		unreadable bool
	}
	probes := make([]probe, lay.nSegments)
	buf := make([]byte, lay.summarySize)
	lastValid := floor
	for i := 0; i < lay.nSegments; i++ {
		p := &probes[i]
		for slot := 0; slot < 2; slot++ {
			if err := d.ReadAt(buf, lay.sumOff(i, slot)); err != nil {
				if errors.Is(err, disk.ErrUnreadable) {
					p.unreadable = true
					continue
				}
				return faults, err
			}
			si, err := decodeSummary(buf, lay, i)
			if err == nil {
				if p.si == nil || si.writeTS > p.si.writeTS {
					p.si = si
				}
				continue
			}
			if binary.LittleEndian.Uint32(buf) == summaryMagic &&
				int(binary.LittleEndian.Uint32(buf[8:])) == i {
				p.suspects++
				if ts := binary.LittleEndian.Uint64(buf[12:]); ts > p.suspectTS {
					p.suspectTS = ts
				}
			}
		}
		if p.si != nil && p.si.writeTS > lastValid {
			lastValid = p.si.writeTS
		}
	}

	// Payload verification is mount-equivalent: an entry's bytes are
	// checked only while that entry still determines its block's data —
	// i.e. a mount could read them. A superseded entry's data region is
	// legally destructible (the segment may have been freed and reused,
	// with the stale summary overwritten only at the next seal), so
	// checksumming it against whatever sits there now would report
	// corruption the system can never serve. Supersession is decided by
	// the newest committed data-bearing record per block across every
	// summary, with the checkpoint's block map as the authority for
	// records at or below its timestamp.
	newestData := make(map[uint32]uint64)
	noteData := func(bid uint32, ts uint64) {
		if ts > newestData[bid] {
			newestData[bid] = ts
		}
	}
	for i := range probes {
		si := probes[i].si
		if si == nil {
			continue
		}
		for _, e := range si.entries {
			if e.flags&entryCommitted != 0 {
				noteData(uint32(e.bid), e.ts)
			}
		}
		for _, t := range si.tuples {
			if !t.committed() {
				continue
			}
			switch t.kind {
			case tDataAt, tAlloc, tFree, tBlockFree:
				noteData(t.args[0], t.ts)
			}
		}
	}
	entryCurrent := func(seg int, e blockEntry) bool {
		if e.flags&entryCommitted == 0 {
			return false // an aborted ARU's record: recovery discards it
		}
		if ck.blocks != nil && e.ts <= ck.ts {
			// At or below the checkpoint: current iff the checkpoint's
			// block map still points here and nothing after the
			// checkpoint retargeted the block.
			loc, ok := ck.blocks[uint32(e.bid)]
			return ok && loc.seg == int32(seg) && loc.off == e.off &&
				newestData[uint32(e.bid)] <= ck.ts
		}
		return e.ts >= newestData[uint32(e.bid)]
	}

	data := make([]byte, lay.dataCap())
	for i := 0; i < lay.nSegments; i++ {
		p := &probes[i]
		switch {
		case p.unreadable && !ckptFree(i):
			faults++
			fmt.Fprintf(w, "segment %4d: FAULT summary slot unreadable\n", i)
		case p.suspects > 0 && p.suspectTS > floor && p.suspectTS <= lastValid &&
			(p.si == nil || p.suspectTS > p.si.writeTS):
			faults++
			fmt.Fprintf(w, "segment %4d: FAULT summary rotted mid-log (claims ts=%d, last acknowledged ts=%d)\n",
				i, p.suspectTS, lastValid)
		case p.suspects > 0:
			fmt.Fprintf(w, "segment %4d: torn summary slot (benign tail of a crashed write)\n", i)
		}
		si := p.si
		if si == nil {
			continue
		}
		segCorrupt := 0
		wholeSeg := false
		if err := d.ReadAt(data, lay.segOff(i)); err == nil {
			wholeSeg = true
		} else if !errors.Is(err, disk.ErrUnreadable) {
			return faults, err
		}
		for _, e := range si.entries {
			if e.stored == 0 || !entryCurrent(i, e) {
				continue
			}
			var payload []byte
			if wholeSeg {
				payload = data[e.off : e.off+e.stored]
			} else {
				// Localize unreadable sectors with per-entry aligned reads.
				ss := int64(lay.sectorSize)
				first := int64(e.off) / ss * ss
				end := (int64(e.off) + int64(e.stored) + ss - 1) / ss * ss
				if err := d.ReadAt(data[:end-first], lay.segOff(i)+first); err != nil {
					if !errors.Is(err, disk.ErrUnreadable) {
						return faults, err
					}
					segCorrupt++
					continue
				}
				payload = data[int64(e.off)-first : int64(e.off)-first+int64(e.stored)]
			}
			if payloadCRC(payload) != e.crc {
				segCorrupt++
				fmt.Fprintf(w, "segment %4d:   block %d entry ts=%d off=%d stored=%d fails its checksum\n",
					i, e.bid, e.ts, e.off, e.stored)
			}
		}
		if segCorrupt > 0 {
			faults += segCorrupt
			fmt.Fprintf(w, "segment %4d: FAULT %d of %d block payloads corrupt or unreadable\n",
				i, segCorrupt, len(si.entries))
		}
	}
	if faults == 0 {
		fmt.Fprintf(w, "verify: %d segments clean\n", lay.nSegments)
	} else {
		fmt.Fprintf(w, "verify: %d faults across %d segments\n", faults, lay.nSegments)
	}
	return faults, nil
}

// ckptBlockLoc is a block's data location per the checkpoint map.
type ckptBlockLoc struct {
	seg int32
	off uint32
}

// verifyCkpt is the checkpoint knowledge Verify works from: the
// torn-vs-rot floor (newest valid header timestamp, as recovery
// computes it) and, when a payload decodes, the per-segment states and
// per-block data locations of the newest decodable checkpoint — the
// same newest-first, fall-back-to-the-older-slot order loadCheckpoint
// uses. states/blocks are nil when no payload decodes; the floor is
// still meaningful then.
type verifyCkpt struct {
	floor  uint64
	ts     uint64 // timestamp of the decoded checkpoint (0 if none)
	states []uint8
	blocks map[uint32]ckptBlockLoc
}

// readCkptForVerify reads the checkpoint slots without mutating them.
func readCkptForVerify(d disk.Backend, lay layout) (verifyCkpt, error) {
	var ck verifyCkpt
	head := make([]byte, d.SectorSize())
	type cand struct {
		off  int64
		ts   uint64
		plen int
	}
	var cands []cand
	for slot := 0; slot < 2; slot++ {
		off := lay.checkpointOff + int64(slot)*lay.checkpointSize
		if err := d.ReadAt(head, off); err != nil {
			if errors.Is(err, disk.ErrUnreadable) {
				continue
			}
			return ck, err
		}
		if binary.LittleEndian.Uint32(head[0:]) != checkpointMagic || head[20] != 1 {
			continue
		}
		plen := int(binary.LittleEndian.Uint32(head[16:]))
		if int64(checkpointHeaderSize+plen) > lay.checkpointSize {
			continue
		}
		ts := binary.LittleEndian.Uint64(head[8:])
		if ts > ck.floor {
			ck.floor = ts
		}
		cands = append(cands, cand{off: off, ts: ts, plen: plen})
	}
	if len(cands) == 2 && cands[1].ts > cands[0].ts {
		cands[0], cands[1] = cands[1], cands[0]
	}
	for _, c := range cands {
		total := (checkpointHeaderSize + c.plen + lay.sectorSize - 1) / lay.sectorSize * lay.sectorSize
		buf := make([]byte, total)
		if err := d.ReadAt(buf, c.off); err != nil {
			if errors.Is(err, disk.ErrUnreadable) {
				continue
			}
			return ck, err
		}
		payload := buf[checkpointHeaderSize : checkpointHeaderSize+c.plen]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(buf[4:]) {
			continue // torn payload: the older slot may still decode
		}
		if decodeCkptForVerify(payload, lay.nSegments, &ck) {
			ck.ts = c.ts
			return ck, nil
		}
	}
	return ck, nil
}

// decodeCkptForVerify extracts the block locations and segment states
// from a checkpoint payload (see writeCheckpoint for the layout). It
// reports whether the payload parsed; on false, ck is left untouched.
func decodeCkptForVerify(payload []byte, nSegments int, ck *verifyCkpt) bool {
	r := &reader{buf: payload}
	r.u64() // ts
	r.u32() // nextFresh
	r.u32() // nextList
	nAlloc := int(r.u32())
	if r.err != nil {
		return false
	}
	blocks := make(map[uint32]ckptBlockLoc, nAlloc)
	for i := 0; i < nAlloc; i++ {
		bid := r.u32()
		seg := int32(r.u32())
		off := r.u32()
		r.skip(3 * 4) // stored, orig, crc
		r.skip(2 * 4) // next, lid
		r.u8()        // flags
		if r.err != nil {
			return false
		}
		blocks[bid] = ckptBlockLoc{seg: seg, off: off}
	}
	nLists := int(r.u32())
	if r.err != nil {
		return false
	}
	r.skip(nLists * (4*4 + 1))
	nSegs := int(r.u32())
	if r.err != nil || nSegs != nSegments {
		return false
	}
	states := make([]uint8, nSegs)
	for i := 0; i < nSegs; i++ {
		r.u64() // live
		r.u64() // ts
		states[i] = r.u8()
	}
	if r.err != nil {
		return false
	}
	ck.blocks = blocks
	ck.states = states
	return true
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
