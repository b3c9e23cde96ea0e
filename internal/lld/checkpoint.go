package lld

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/disk"
	"repro/internal/ld"
)

// Checkpoints play two roles.
//
// Clean shutdown and fast restart (paper §3.6): on an explicit shutdown LLD
// writes its data structures, a timestamp, and a validity marker into a
// special region on disk; the next start loads them and starts immediately,
// demoting the marker so a later crash falls back to recovery.
//
// Consolidation (a deviation from the paper, documented in DESIGN.md): the
// paper claims LLD needs no checkpoints during normal operation, but the
// linkage facts of long-lived blocks are immortal — their newest records
// must be re-logged every time their segment is cleaned, and once enough
// segments are dense with such facts the cleaner can no longer make
// progress (re-logging a victim's facts consumes as much summary space as
// it frees). When the cleaner detects this, it writes a *consolidation
// checkpoint*: a state snapshot at timestamp T that becomes a recovery
// floor. Facts with timestamps at or below T are covered by the checkpoint
// and may simply be dropped during cleaning; recovery loads the checkpoint
// and replays only records newer than T. Consolidations are rare (they are
// triggered by cleaning futility, not by normal operation), so the paper's
// "no checkpoints during normal operation" holds for all but pathological
// fact-dense workloads.
//
// Two slots alternate so a torn checkpoint write leaves the previous one
// intact; a checkpoint is never invalidated, only superseded. The header's
// "complete" flag marks shutdown checkpoints, which additionally allow
// skipping the sweep entirely on the next start.

// writeCheckpoint serializes the full state into the slot not holding the
// newest checkpoint. Callers hold l.mu. When complete is true the open
// segment must already be sealed (shutdown path).
func (l *LLD) writeCheckpoint(complete bool) error {
	var payload []byte
	u32 := func(v uint32) { payload = binary.LittleEndian.AppendUint32(payload, v) }
	u64 := func(v uint64) { payload = binary.LittleEndian.AppendUint64(payload, v) }
	u8 := func(v uint8) { payload = append(payload, v) }

	u64(l.ts)
	u32(uint32(l.nextFresh))
	u32(uint32(l.nextList))

	nAlloc := 0
	for i := 1; i < len(l.blocks); i++ {
		if l.blocks[i].allocated() {
			nAlloc++
		}
	}
	u32(uint32(nAlloc))
	for i := 1; i < len(l.blocks); i++ {
		bi := &l.blocks[i]
		if !bi.allocated() {
			continue
		}
		u32(uint32(i))
		u32(uint32(bi.seg))
		u32(bi.off)
		u32(bi.stored)
		u32(bi.orig)
		u32(bi.crc)
		u32(uint32(bi.next))
		u32(uint32(bi.lid))
		u8(bi.flags)
	}

	u32(uint32(len(l.order)))
	for _, lid := range l.order {
		li := l.lists[lid]
		u32(uint32(lid))
		u32(uint32(li.first))
		u32(uint32(li.count))
		u32(encodeHints(li.hints))
		u8(0)
	}

	u32(uint32(len(l.segs)))
	for i := range l.segs {
		u64(uint64(l.segs[i].live))
		u64(l.segs[i].ts)
		st := l.segs[i].state
		if st == segOpen {
			// The open segment was partial-written before a consolidation
			// checkpoint; on disk it is a live segment.
			st = segLive
		}
		u8(st)
	}

	ss := l.lay.sectorSize
	total := checkpointHeaderSize + len(payload)
	total = (total + ss - 1) / ss * ss
	if int64(total) > l.lay.checkpointSize {
		return fmt.Errorf("%w: checkpoint needs %d bytes, slot holds %d", ErrFormat, total, l.lay.checkpointSize)
	}
	buf := make([]byte, total)
	binary.LittleEndian.PutUint32(buf[0:], checkpointMagic)
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint64(buf[8:], l.ts)
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(payload)))
	buf[20] = 1 // valid marker
	if complete {
		buf[21] = 1
	}
	copy(buf[checkpointHeaderSize:], payload)
	slot := 1 - l.ckptSlot
	if err := l.dskWrite(buf, l.lay.checkpointOff+int64(slot)*l.lay.checkpointSize); err != nil {
		return err
	}
	l.ckptSlot = slot
	l.ckptTS = l.ts
	return nil
}

// loadCheckpoint finds the newest valid checkpoint, decodes it into the
// in-memory state, and sets the recovery floor. It returns whether one was
// found and whether it is complete (shutdown checkpoint: no sweep needed).
func (l *LLD) loadCheckpoint() (found, complete bool, err error) {
	ss := l.lay.sectorSize
	head := make([]byte, ss)
	type slotInfo struct {
		slot     int
		ts       uint64
		plen     int
		complete bool
	}
	parseHead := func(b []byte) (uint64, bool) {
		if binary.LittleEndian.Uint32(b[0:]) != checkpointMagic || b[20] != 1 {
			return 0, false
		}
		return binary.LittleEndian.Uint64(b[8:]), true
	}
	mr, multi := l.dsk.(disk.MultiReader)
	var candidates []slotInfo
	for slot := 0; slot < 2; slot++ {
		off := l.lay.checkpointOff + int64(slot)*l.lay.checkpointSize
		// On a redundant backend, adopt the newest valid header across
		// replicas and heal the rest (metaNewestAcross): a checkpoint that
		// persisted on a subset of replicas must be seen — and replicated —
		// not won or lost by replica rotation. A slot no copy validates is
		// just an unused slot.
		if multi {
			found, err := l.metaNewestAcross(mr, head, off, parseHead)
			if err != nil {
				if errors.Is(err, disk.ErrNoValidReplica) {
					continue
				}
				return false, false, err
			}
			if !found {
				continue
			}
		} else if err := l.dskRead(head, off); err != nil {
			return false, false, err
		}
		if _, ok := parseHead(head); !ok {
			continue
		}
		ts := binary.LittleEndian.Uint64(head[8:])
		plen := int(binary.LittleEndian.Uint32(head[16:]))
		if int64(checkpointHeaderSize+plen) > l.lay.checkpointSize {
			continue
		}
		candidates = append(candidates, slotInfo{slot, ts, plen, head[21] == 1})
	}
	if len(candidates) == 2 && candidates[1].ts > candidates[0].ts {
		candidates[0], candidates[1] = candidates[1], candidates[0]
	}
	// Try the newest slot first; a torn payload falls back to the older
	// slot (the alternating-slot guarantee: the previous checkpoint is
	// intact whenever a checkpoint write tears). Cleaner fact-dropping is
	// gated on successfully written checkpoints, so the older floor still
	// covers every dropped fact.
	for _, c := range candidates {
		off := l.lay.checkpointOff + int64(c.slot)*l.lay.checkpointSize
		total := (checkpointHeaderSize + c.plen + ss - 1) / ss * ss
		buf := make([]byte, total)
		plen, cts := c.plen, c.ts
		// Pin the payload read to the candidate's generation: with diverged
		// replicas the CRC alone would let rotation hand back a different
		// (older, self-consistent) checkpoint than the header chosen above.
		verified, err := l.dskReadVerified(buf, off, func(b []byte) bool {
			if binary.LittleEndian.Uint64(b[8:]) != cts {
				return false
			}
			p := b[checkpointHeaderSize : checkpointHeaderSize+plen]
			return crc32.Checksum(p, crcTable) == binary.LittleEndian.Uint32(b[4:])
		})
		if err != nil {
			if errors.Is(err, disk.ErrNoValidReplica) {
				continue // torn on every replica: try the other slot
			}
			return false, false, err
		}
		payload := buf[checkpointHeaderSize : checkpointHeaderSize+c.plen]
		if !verified && crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(buf[4:]) {
			continue // torn checkpoint: try the other slot
		}
		if err := l.decodeCheckpoint(payload); err != nil {
			return false, false, err
		}
		l.ckptSlot = c.slot
		l.ckptTS = c.ts
		if c.complete {
			// Demote the "complete" flag (the paper's marker invalidation):
			// a crash after this restart must trigger the sweep. The
			// checkpoint itself stays valid as the recovery floor.
			copy(head, buf[:ss])
			head[21] = 0
			if err := l.dskWrite(head, off); err != nil {
				return false, false, err
			}
		}
		return true, c.complete, nil
	}
	return false, false, nil
}

// decodeCheckpoint rebuilds the in-memory state from a checkpoint payload.
func (l *LLD) decodeCheckpoint(payload []byte) error {
	r := &reader{buf: payload}
	l.ts = r.u64()
	l.nextFresh = ld.BlockID(r.u32())
	l.nextList = ld.ListID(r.u32())
	if r.err != nil {
		return r.err
	}
	if l.nextFresh == 0 || int(l.nextFresh) > l.lay.maxBlocks+1 {
		return fmt.Errorf("%w: checkpoint's next fresh block %d outside 1..%d", ErrFormat, l.nextFresh, l.lay.maxBlocks+1)
	}
	l.growBlocks(int(l.nextFresh))

	nAlloc := int(r.u32())
	for i := 0; i < nAlloc; i++ {
		bid := r.u32()
		if r.err != nil {
			return r.err
		}
		if bid == 0 || bid >= uint32(l.nextFresh) {
			return fmt.Errorf("%w: checkpoint names block %d, next fresh is %d", ErrFormat, bid, l.nextFresh)
		}
		bi := &l.blocks[bid]
		bi.seg = int32(r.u32())
		bi.off = r.u32()
		bi.stored = r.u32()
		bi.orig = r.u32()
		bi.crc = r.u32()
		bi.next = ld.BlockID(r.u32())
		bi.lid = ld.ListID(r.u32())
		bi.flags = r.u8()
		// Conservative: the cleaner re-logs on first contact with any
		// record of these (unless it is below the checkpoint floor).
		bi.existTS, bi.linkTS, bi.dataTS = 0, 0, 0
		if bi.hasData() && bi.seg >= 0 {
			if int(bi.seg) >= len(l.segs) {
				return fmt.Errorf("%w: checkpoint block %d in segment %d", ErrFormat, bid, bi.seg)
			}
			l.liveBytes += int64(bi.stored)
		}
	}

	nLists := int(r.u32())
	for i := 0; i < nLists; i++ {
		lid := ld.ListID(r.u32())
		li := &listInfo{
			first: ld.BlockID(r.u32()),
			count: int(r.u32()),
			hints: decodeHints(r.u32()),
		}
		r.u8() // pad
		if r.err != nil {
			return r.err
		}
		if lid == ld.NilList {
			return fmt.Errorf("%w: checkpoint names list 0", ErrFormat)
		}
		l.lists[lid] = li
		l.order = append(l.order, lid)
	}

	nSegs := int(r.u32())
	if r.err == nil && nSegs != len(l.segs) {
		return fmt.Errorf("%w: checkpoint has %d segments, disk has %d", ErrFormat, nSegs, len(l.segs))
	}
	for i := 0; i < nSegs; i++ {
		l.segs[i].live = int64(r.u64())
		l.segs[i].ts = r.u64()
		l.segs[i].state = r.u8()
		if l.segs[i].state == segOpen || l.segs[i].state == segCooling {
			l.segs[i].state = segFree // cannot survive a shutdown or crash
		}
	}
	if r.err != nil {
		return r.err
	}
	// Rebuild the derived pools.
	l.rebuildFreePools()
	return nil
}
