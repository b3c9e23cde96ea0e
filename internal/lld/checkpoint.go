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
// A bound on recovery (a deviation from the paper, documented in DESIGN.md
// §5): the paper takes no checkpoints during normal operation, so its
// recovery reads every segment summary on the disk. Here a running LLD
// writes a checkpoint — a state snapshot at timestamp T — every
// checkpointPeriod seals (cleaner.go checkpoint has the other triggers), and
// Format writes the first, the shutdown checkpoint of an empty LD. It
// names where the log's chain of segments opened since then starts, and a
// crash mount loads it and replays only the records newer than T, read from
// the segments that chain leads through (recovery.go). The same snapshot is
// what lets the cleaner reuse a segment without restating its summary: a
// segment opened since the chain start is held until a newer checkpoint is
// durable (segment.go cool), and any other holds only facts stamped at or
// below T. The newest durable checkpoint is therefore the only copy of the
// facts in segments reused since it.
//
// Two slots alternate so a torn checkpoint write leaves the previous one
// intact; a checkpoint is never invalidated, only superseded. The header's
// "complete" flag marks shutdown checkpoints, which additionally allow
// skipping the sweep entirely on the next start.

// checkpointEvery is how many seals a running LLD writes between
// checkpoints. Each bounds the next crash mount to the checkpoint and at
// most this many segment summaries (≈ 20 ms each on the modeled disk), and
// costs one write of ≈ 15 B per block id issued (ckptBlockMax at most), 17
// per list and 17 per segment: ≈ 0.2 MB on fs-small's ≈ 12 k ids, against
// ≈ 77 seals a round. Priced at seed 1 against write_amp with no periodic
// checkpoint (EXPERIMENTS "Recovery reads what was written since the last
// checkpoint"), fs-small / fs-large / ld-churn / net-mixed:
//
//	every  64: +1.05 / +0.87 / +0.12 / +0.36 %, recovery 1.03 / 0.89 / 1.17 / 1.11 s
//	every 128: +0.17 / +0.51 / +0.35 / +0.23 %, recovery 1.98 / 1.11 / 0.94 / 1.62 s
//	every 192: +0.07 / +0.33 / +0.15 / −0.16 %, recovery 2.90 / 2.32 / 0.95 / 1.92 s
//
// (the full sweep's mount: 14.67 / 14.64 / 2.57 / 10.38 s; ld-churn and
// net-mixed move ±0.2 % and ±0.4 s from run to run with their clients'
// interleaving). ld-churn barely depends on the period: its 119 segments
// lap in ≈ 120 seals, so held chain segments empty its pool and bring a
// checkpoint every ≈ 44 seals; the cleaner moves 32.0 blocks a seal before
// and after, so the reuse rule does not push it onto costlier victims. 128
// keeps fs-small's mount under 3 s with room and every write_amp within
// 1 %. A disk with fewer than 4 × 128 segments uses checkpointPeriod
// instead.
const checkpointEvery = 128

// checkpointPeriod is how many seals lie between periodic checkpoints on
// this disk: checkpointEvery, or a quarter of the disk's segments when that
// is fewer, so a chain mount probes at most about a quarter of the
// summaries the full sweep does. Never under 16: on a disk of a few dozen
// segments a checkpoint rewritten every few seals would be a large share
// of everything the log writes. A small disk laps its segments in
// fewer than checkpointEvery seals, and then only refillFromHeld takes
// checkpoints: at whatever seal the cleaner happens to empty the pool, so
// the chain a crash finds ran from 9 to 91 segments on ld-churn's 119
// (recovery_virt_s 0.96 to 1.34 s from one run to the next with the same
// seed). With the quarter its checkpoints come every 29 seals.
func (l *LLD) checkpointPeriod() int {
	return min(checkpointEvery, max(l.lay.nSegments/4, 16))
}

// ckptBlockMax bounds one block's checkpoint record: flags, successor,
// list, segment, offset, stored and logical size, checksum.
const ckptBlockMax = 1 + 6*binary.MaxVarintLen32 + 4

// writeCheckpoint serializes the full state into the slot not holding the
// newest checkpoint. Callers hold l.mu. When complete is true the open
// segment must already be sealed (shutdown path).
func (l *LLD) writeCheckpoint(complete bool) error {
	// The chain starts at the open segment, or at the successor the log
	// opens next.
	chainSeg, chainSeq := uint32(noSegment), uint32(0)
	switch {
	case l.cur != nil:
		chainSeg, chainSeq = uint32(l.cur.id), l.cur.seq
	case l.succ >= 0:
		chainSeg, chainSeq = uint32(l.succ), nextSeq(l.openSeq)
	}

	// One buffer, sized once from the counts; what the records take of it
	// is written. Every id below nextFresh has a record: a free one is its
	// flags byte alone.
	ss := l.lay.sectorSize
	bound := checkpointFixedSize + (int(l.nextFresh)-1)*ckptBlockMax + 4 + len(l.order)*listStateEncSize + 4 + len(l.segs)*segStateEncSize
	buf := make([]byte, checkpointHeaderSize+bound+ss)
	w := &writer{buf: buf[checkpointHeaderSize:]}
	w.u64(l.ts)
	w.u32(uint32(l.nextFresh))
	w.u32(uint32(l.nextList))
	w.u64(l.durableMark)
	w.u32(l.openSeq)
	w.u32(chainSeg)
	w.u32(chainSeq)

	for i := 1; i < int(l.nextFresh); i++ {
		bi := &l.blocks[i]
		if !bi.allocated() {
			w.u8(0)
			continue
		}
		w.u8(bi.flags)
		w.uvarint(zigzag(uint64(bi.next) - uint64(i)))
		w.uvarint(uint64(bi.lid))
		if bi.hasData() {
			w.uvarint(uint64(bi.seg))
			w.uvarint(uint64(bi.off))
			w.uvarint(uint64(bi.stored))
			if bi.flags&bComp != 0 {
				w.uvarint(uint64(bi.orig))
			}
			w.u32(bi.crc)
		}
	}

	w.u32(uint32(len(l.order)))
	for _, lid := range l.order {
		li := l.lists[lid]
		w.u32(uint32(lid))
		w.u32(uint32(li.first))
		w.u32(uint32(li.count))
		w.u32(encodeHints(li.hints))
		w.u8(0)
	}

	w.u32(uint32(len(l.segs)))
	for i := range l.segs {
		w.u64(uint64(l.segs[i].live))
		w.u64(l.segs[i].ts)
		st := l.segs[i].state
		if st == segOpen {
			// The open segment was partial-written before the checkpoint;
			// on disk it is a live segment.
			st = segLive
		}
		w.u8(st)
	}

	plen := w.off
	total := (checkpointHeaderSize + plen + ss - 1) / ss * ss
	if int64(total) > l.lay.checkpointSize {
		return fmt.Errorf("%w: checkpoint needs %d bytes, slot holds %d", ErrFormat, total, l.lay.checkpointSize)
	}
	buf = buf[:total]
	payload := buf[checkpointHeaderSize : checkpointHeaderSize+plen]
	binary.LittleEndian.PutUint32(buf[0:], checkpointMagic)
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint64(buf[8:], l.ts)
	binary.LittleEndian.PutUint32(buf[16:], uint32(plen))
	buf[20] = 1 // valid marker
	if complete {
		buf[21] = 1
	}
	slot := 1 - l.ckptSlot
	if err := l.dskWrite(buf, l.lay.checkpointOff+int64(slot)*l.lay.checkpointSize); err != nil {
		return err
	}
	l.ckptSlot = slot
	l.ckptTS = l.ts
	l.ckptSeq = chainSeq
	if chainSeq == 0 {
		// The checkpoint names no start (the log opens next from a pool
		// that was empty when the newest summary was written), so a mount
		// sweeps every summary above it. The segments opened from here on
		// hold those records all the same: they are what the reuse rule
		// holds (inChain).
		l.ckptSeq = nextSeq(l.openSeq)
	}
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
	// intact whenever a checkpoint write tears). Held segments are released
	// only once a checkpoint is durable, so the older slot's chain still
	// leads through every segment written since it.
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

// decodeCheckpoint rebuilds the in-memory state from a checkpoint payload:
// the maps, the durable mark the checkpoint was written under, and the
// chain's start, which it leaves in l.succ (-1 for none) and l.ckptSeq.
func (l *LLD) decodeCheckpoint(payload []byte) error {
	r := &reader{buf: payload}
	l.ts = r.u64()
	l.nextFresh = ld.BlockID(r.u32())
	l.nextList = ld.ListID(r.u32())
	l.durableMark = r.u64()
	l.openSeq = r.u32()
	chainSeg := r.u32()
	l.ckptSeq = r.u32()
	if r.err != nil {
		return r.err
	}
	l.succ = -1
	if chainSeg != noSegment {
		if int(chainSeg) >= len(l.segs) || l.ckptSeq == 0 {
			return fmt.Errorf("%w: checkpoint's chain starts at segment %d, sequence %d", ErrFormat, chainSeg, l.ckptSeq)
		}
		l.succ = int(chainSeg)
	}
	if l.nextFresh == 0 || int(l.nextFresh) > l.lay.maxBlocks+1 {
		return fmt.Errorf("%w: checkpoint's next fresh block %d outside 1..%d", ErrFormat, l.nextFresh, l.lay.maxBlocks+1)
	}
	l.growBlocks(int(l.nextFresh))

	for bid := 1; bid < int(l.nextFresh); bid++ {
		flags := r.u8()
		if flags == 0 {
			continue
		}
		bi := &l.blocks[bid]
		bi.flags = flags
		bi.next = ld.BlockID(uint64(bid) + unzigzag(r.uvarint()))
		bi.lid = ld.ListID(r.uvarint32())
		if bi.hasData() {
			bi.seg = int32(r.uvarint32())
			bi.off = r.uvarint32()
			bi.stored = r.uvarint32()
			bi.orig = bi.stored
			if flags&bComp != 0 {
				bi.orig = r.uvarint32()
			}
			bi.crc = r.u32()
		}
		if r.err != nil {
			return r.err
		}
		if flags&^(bAllocated|bHasData|bComp) != 0 || flags&bAllocated == 0 || int(bi.seg) >= len(l.segs) {
			return fmt.Errorf("%w: checkpoint block %d has flags %#x, segment %d", ErrFormat, bid, flags, bi.seg)
		}
		if bi.hasData() {
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
