package lld

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/disk"
	"repro/internal/ld"
)

// NoSpaceError is the typed ErrNoSpace the append path returns when
// sealing a full lap of segments never produced room. It unwraps to
// ld.ErrNoSpace, so errors.Is checks keep working.
type NoSpaceError struct {
	Reason string
}

func (e *NoSpaceError) Error() string {
	return fmt.Sprintf("%v: %s", ld.ErrNoSpace, e.Reason)
}

func (e *NoSpaceError) Unwrap() error { return ld.ErrNoSpace }

// openNewSegment takes a free segment and makes it the fill target.
// Callers hold l.mu and must have ensured a free segment exists.
func (l *LLD) openNewSegment() error {
	if l.cur != nil {
		return fmt.Errorf("lld: internal: segment already open")
	}
	if len(l.freeSegs) == 0 {
		return fmt.Errorf("%w: no free segments", ld.ErrNoSpace)
	}
	id := l.freeSegs[len(l.freeSegs)-1]
	l.freeSegs = l.freeSegs[:len(l.freeSegs)-1]
	l.segs[id].state = segOpen
	l.segs[id].live = 0
	// The only place a sealed segment's bytes start to change: a read-ahead
	// window over them would go on serving the retired generation's.
	l.ra.drop(id)
	// Seals are inline, so the previous segment's image is on disk before
	// the next one opens and one fill buffer serves them all. Stale bytes
	// between blocks are never read back (entries bound every read) so it
	// needs no zeroing.
	if l.fillBuf == nil {
		l.fillBuf = make([]byte, l.lay.segmentSize)
	}
	l.cur = &openSegment{
		id:      id,
		firstTS: l.ts,
		buf:     l.fillBuf,
		sumSize: summaryHeaderSize,
		slotSeq: [2]int64{-1, -1},
	}
	return nil
}

// ensureRoom guarantees the open segment can absorb dataLen more data bytes
// and sumLen more summary bytes, sealing and reopening as needed. sumLen is
// a worst case (maxEntrySize, tupleSpace); the records are charged their
// packed size as they are added. Callers hold l.mu.
func (l *LLD) ensureRoom(dataLen, sumLen int) error {
	if dataLen > l.lay.dataCap() || summaryHeaderSize+sumLen > l.lay.summarySize {
		return fmt.Errorf("%w: request larger than a segment", ld.ErrTooLarge)
	}
	seals := 0
	for {
		if l.cur != nil {
			dataFull := l.cur.dataOff+dataLen > l.lay.dataCap()
			if !dataFull && l.cur.sumSize+sumLen <= l.lay.summarySize {
				return nil
			}
			// A healthy write seals at most a couple of times. Sealing a
			// full lap of segments without ever fitting means cleaning is
			// treadmilling: each pass relocates as many bytes as it frees
			// and hands back an already-full segment, so the disk has no
			// net reclaimable space. Surface that as ErrNoSpace instead of
			// looping forever.
			if seals > l.lay.nSegments+2 {
				return &NoSpaceError{Reason: "cleaning reclaims no net space"}
			}
			if err := l.sealSegment(); err != nil {
				return err
			}
			if dataFull {
				l.stats.SealsDataFull++
			} else {
				l.stats.SealsSummaryFull++
			}
			seals++
		}
		// The cleaner may itself open (and partially fill) a segment; the
		// loop re-checks fit instead of assuming a fresh one.
		if err := l.maybeClean(); err != nil {
			return err
		}
		if l.cur == nil {
			if err := l.openNewSegment(); err != nil {
				return err
			}
		}
	}
}

// appendData copies data into the open segment and returns its offset.
// Callers hold l.mu and must have called ensureRoom.
func (l *LLD) appendData(data []byte) int {
	off := l.cur.dataOff
	copy(l.cur.buf[off:], data)
	l.cur.dataOff += len(data)
	l.cur.dirty = true
	return off
}

// logData makes stored, the stored form of block b (orig logical bytes), b's
// data: room in the open segment, the bytes appended, the entry that logs
// them — committed unless an ARU is open — and the new location in the map.
// It is the one way a payload enters the log: Write, the cleaner, the
// reorganizer and the scrubber's salvage. Callers hold l.mu.
func (l *LLD) logData(b ld.BlockID, stored []byte, orig int, compressed bool, crc uint32) error {
	if err := l.ensureRoom(len(stored), maxEntrySize); err != nil {
		return err
	}
	off := l.appendData(stored)
	flags := uint8(0)
	if compressed {
		flags |= entryCompressed
	}
	if !l.aruOpen {
		flags |= entryCommitted
	}
	l.addEntry(blockEntry{bid: b, ts: l.nextTS(), off: uint32(off), stored: uint32(len(stored)), orig: uint32(orig), crc: crc, flags: flags})
	l.applySetData(b, l.cur.id, off, len(stored), orig, compressed, crc)
	return nil
}

// addEntry records a block entry in the open segment's summary and charges
// its packed size.
func (l *LLD) addEntry(e blockEntry) {
	var prev uint64
	if n := len(l.cur.entries); n > 0 {
		prev = l.cur.entries[n-1].ts
	}
	l.cur.entries = append(l.cur.entries, e)
	l.cur.sumSize += e.packedSize(prev)
	l.cur.dirty = true
	if int(e.bid) < len(l.blocks) {
		l.blocks[e.bid].dataTS = e.ts
	}
}

// emitTuple stamps, tags, and records a tuple in the open segment's summary
// and updates the recTS bookkeeping for every id the tuple mentions.
// Callers hold l.mu and must have reserved summary space via ensureRoom;
// the tuple is charged its packed size.
func (l *LLD) emitTuple(kind uint8, args ...uint32) uint64 {
	t := tupleRec{kind: kind, ts: l.nextTS()}
	if !l.aruOpen {
		t.flags |= tupleCommitted
	}
	copy(t.args[:], args)
	var prev uint64
	if n := len(l.cur.tuples); n > 0 {
		prev = l.cur.tuples[n-1].ts
	}
	l.cur.tuples = append(l.cur.tuples, t)
	l.cur.sumSize += t.packedSize(prev)
	l.cur.dirty = true
	l.noteTuple(t)
	return t.ts
}

// noteTuple records, per field a tuple assigns, that its newest determining
// record now has this timestamp. The cleaner relies on these to know which
// facts a victim summary is the last holder of.
func (l *LLD) noteTuple(t tupleRec) {
	exist := func(b uint32) {
		if b != 0 && int(b) < len(l.blocks) {
			l.blocks[b].existTS = t.ts
		}
	}
	link := func(b uint32) {
		if b != 0 && int(b) < len(l.blocks) {
			l.blocks[b].linkTS = t.ts
		}
	}
	data := func(b uint32) {
		if b != 0 && int(b) < len(l.blocks) {
			l.blocks[b].dataTS = t.ts
		}
	}
	list := func(lid uint32) *listInfo {
		if lid == 0 {
			return nil
		}
		return l.lists[ld.ListID(lid)]
	}
	switch t.kind {
	case tAlloc:
		// Assigns: bid's existence, lid, next, and (pred.next | list head).
		exist(t.args[0])
		link(t.args[0])
		data(t.args[0]) // a fresh allocation has no data
		if t.args[4]&1 != 0 {
			if li := list(t.args[1]); li != nil {
				li.headTS = t.ts
			}
		} else {
			link(t.args[3])
		}
	case tFree:
		// Assigns: bid freed, and (pred.next | list head) = succ.
		exist(t.args[0])
		link(t.args[0])
		data(t.args[0])
		if t.args[4]&1 != 0 {
			if li := list(t.args[1]); li != nil {
				li.headTS = t.ts
			}
		} else {
			link(t.args[2])
		}
	case tNewList:
		if li := list(t.args[0]); li != nil {
			li.existTS = t.ts
			li.headTS = t.ts
			li.orderTS = t.ts
		}
		delete(l.deadLists, ld.ListID(t.args[0]))
	case tDelList:
		// The list is gone from the table; remember the tombstone's
		// timestamp so older mentions need no re-logging when cleaned.
		l.deadLists[ld.ListID(t.args[0])] = t.ts
	case tMoveList:
		if li := list(t.args[0]); li != nil {
			li.orderTS = t.ts
		}
	case tBlockState:
		exist(t.args[0])
		link(t.args[0])
	case tBlockFree:
		exist(t.args[0])
		link(t.args[0])
		data(t.args[0])
	case tListState:
		if li := list(t.args[0]); li != nil {
			li.existTS = t.ts
			li.headTS = t.ts
			li.orderTS = t.ts
		}
		delete(l.deadLists, ld.ListID(t.args[0]))
	case tDataAt:
		data(t.args[0])
	case tFence:
		// Assigns no entity field; the window lives in the args.
	}
}

// emitBlockSnap re-logs the current existence/linkage state of a block.
// Callers hold l.mu.
func (l *LLD) emitBlockSnap(bid ld.BlockID) error {
	bi := &l.blocks[bid]
	if bi.allocated() {
		if err := l.ensureRoom(0, tupleSpace(tBlockState)); err != nil {
			return err
		}
		l.emitTuple(tBlockState, uint32(bid), uint32(bi.next), uint32(bi.lid))
	} else {
		if err := l.ensureRoom(0, tupleSpace(tBlockFree)); err != nil {
			return err
		}
		l.emitTuple(tBlockFree, uint32(bid))
	}
	l.stats.SnapshotTuples++
	return nil
}

// emitListSnap re-logs the current state of a list (or its tombstone).
// Callers hold l.mu.
func (l *LLD) emitListSnap(lid ld.ListID) error {
	li, ok := l.lists[lid]
	if !ok {
		if err := l.ensureRoom(0, tupleSpace(tDelList)); err != nil {
			return err
		}
		l.emitTuple(tDelList, uint32(lid))
		l.stats.SnapshotTuples++
		return nil
	}
	pred := ld.NilList
	if idx := slices.Index(l.order, lid); idx > 0 {
		pred = l.order[idx-1]
	}
	if err := l.ensureRoom(0, tupleSpace(tListState)); err != nil {
		return err
	}
	l.emitTuple(tListState, uint32(lid), uint32(li.first), uint32(pred), encodeHints(li.hints))
	l.stats.SnapshotTuples++
	return nil
}

// emitDataSnap re-logs the current data location of a block.
// Callers hold l.mu.
func (l *LLD) emitDataSnap(bid ld.BlockID) error {
	bi := &l.blocks[bid]
	if err := l.ensureRoom(0, tupleSpace(tDataAt)); err != nil {
		return err
	}
	seg := uint32(0)
	var flags uint32
	var crc uint32
	if bi.hasData() {
		seg = uint32(bi.seg) + 1
		flags |= 1
		if bi.flags&bComp != 0 {
			flags |= 2
		}
		crc = bi.crc
	}
	l.emitTuple(tDataAt, uint32(bid), seg, bi.off, bi.stored, bi.orig, flags, crc)
	l.stats.SnapshotTuples++
	return nil
}

// guardSlotOverwrite makes rewriting a summary slot crash-safe under a
// volatile write cache. The ping-pong discipline keeps the newest image
// out of the slot being rewritten, but "written earlier" is not
// "durable": if the other slot's newer image may still sit in the cache,
// the slot about to be rewritten may hold the only durable summary of
// acknowledged records, and a power loss tearing the rewrite while
// dropping the cached image would destroy them without a trace (the torn
// slot classifies as a benign unacknowledged tail). Drain the cache so
// the newer image reaches the platter before the older is sacrificed.
// Callers hold l.mu.
func (l *LLD) guardSlotOverwrite(cur *openSegment, slot int) error {
	if cur.slotSeq[slot] < 0 {
		return nil // slot holds no image from this segment generation
	}
	if other := cur.slotSeq[1-slot]; other >= 0 && other <= l.syncedSeq.Load() {
		return nil // the newer image is already on the platter
	}
	return l.dskSync()
}

// sealSegment retires the open segment as a full segment (paper §3): the
// summary is encoded and the image written inline, under l.mu. On a write
// error the segment stays open — its buffer keeps serving reads — and a
// later seal retries the same slot. Callers hold l.mu.
func (l *LLD) sealSegment() error {
	cur := l.cur
	if cur == nil {
		return nil
	}
	writeTS := l.nextTS()
	used, err := encodeSummary(cur.buf, l.lay, cur.id, writeTS, l.durableMark, true, cur.dataOff, cur.entries, cur.tuples)
	if err != nil {
		return err
	}
	start := l.dsk.Now()
	// Only the bytes not yet on the platter are written: the data from
	// onPlatter on, and the summary's used sectors. A full segment that no
	// flush touched is therefore still one long contiguous operation (the
	// paper's normal case). The request runs on through the dead middle
	// into slot 0 only when that is the target slot and the middle is at
	// most deadGapMax; a longer middle (tuple-heavy phases: deletes, list
	// maintenance), or a ping-pong target of slot 1, makes the data suffix
	// and the summary two requests. Either way the slot holding the newest
	// acknowledged partial image is never overwritten, so a torn seal
	// falls back to it.
	ss := l.lay.sectorSize
	dataCap := l.lay.dataCap()
	dataBytes := (cur.dataOff + ss - 1) / ss * ss
	from, end := cur.onPlatter, dataBytes
	through := cur.slot == 0 && dataBytes > from && dataCap-dataBytes <= deadGapMax
	if through {
		end = dataCap + used
	}
	if err := l.guardSlotOverwrite(cur, cur.slot); err != nil {
		return err
	}
	if end > from {
		if err := l.dskWrite(cur.buf[from:end], l.lay.segOff(cur.id)+int64(from)); err != nil {
			return err
		}
	}
	if !through {
		if end > from {
			l.crashPoint("seal.data") // data handed over, its summary not yet
		}
		if err := l.dskWrite(cur.buf[dataCap:dataCap+used], l.lay.sumOff(cur.id, cur.slot)); err != nil {
			return err
		}
	}
	l.logWriteDone(writeTS)
	l.lastSealDur = l.dsk.Now() - start
	l.chargeCompression()
	l.segs[cur.id].state = segLive
	l.segs[cur.id].ts = writeTS
	l.segs[cur.id].names = newSumNames(cur.entries, cur.tuples)
	l.cur = nil
	l.stats.SegmentsSealed++
	l.releaseCooling()
	return nil
}

// writePartial implements the paper's partial-segment strategy (§3.2): the
// segment's new contents are written to its own place on the disk, but the
// segment stays in memory and keeps filling. Unlike §3.2 the image is not
// rewritten in place: each partial write, and the seal that ends the
// segment, appends to what earlier partial writes put on the platter (from
// onPlatter), so a data sector crosses the arm once plus once per flush
// that left it half-filled. The segment still ends up contiguous and the
// earlier images are superseded at no cleaning cost.
func (l *LLD) writePartial() error {
	return l.writePartialVia(l.dskWrite, &l.stats.PartialWrites, false)
}

// writePartialNVRAM is the §5.3 variant: the partial image lands in
// battery-backed NVRAM, so no disk operation is charged.
func (l *LLD) writePartialNVRAM() error {
	return l.writePartialVia(l.dsk.WriteAtNVRAM, &l.stats.NVRAMFlushes, true)
}

func (l *LLD) writePartialVia(write func([]byte, int64) error, counter *int64, nvram bool) error {
	cur := l.cur
	if cur == nil || !cur.dirty {
		return nil
	}
	writeTS := l.nextTS()
	used, err := encodeSummary(cur.buf, l.lay, cur.id, writeTS, l.durableMark, false, cur.dataOff, cur.entries, cur.tuples)
	if err != nil {
		return err
	}
	ss := l.lay.sectorSize
	dataBytes := (cur.dataOff + ss - 1) / ss * ss
	from := cur.onPlatter
	// New data first — from the sector the last disk partial write ended
	// in, which is written again with its old bytes plus the new ones —
	// then the summary into the ping-pong slot not holding the newest
	// acknowledged image: a tear anywhere leaves that previous image and
	// every byte it describes intact, so acknowledged records are never
	// destroyed by a later write to the same segment (DESIGN §5 has the
	// argument). An NVRAM write needs no overwrite guard: it replaces the
	// slot durably and atomically.
	if !nvram {
		if err := l.guardSlotOverwrite(cur, cur.slot); err != nil {
			return err
		}
	}
	if dataBytes > from {
		if err := write(cur.buf[from:dataBytes], l.lay.segOff(cur.id)+int64(from)); err != nil {
			return err
		}
	}
	sum := cur.buf[l.lay.dataCap() : l.lay.dataCap()+used]
	if err := write(sum, l.lay.sumOff(cur.id, cur.slot)); err != nil {
		return err
	}
	if nvram {
		cur.slotSeq[cur.slot] = 0
	} else {
		cur.slotSeq[cur.slot] = l.writeSeq.Load()
		// Both writes succeeded (a failed attempt retries the same range).
		l.stats.PartialBytes += int64(dataBytes - from + len(sum))
		cur.onPlatter = cur.dataOff / ss * ss
		l.logWriteDone(writeTS)
	}
	cur.slot ^= 1
	l.chargeCompression()
	l.segs[cur.id].ts = writeTS
	cur.dirty = false
	cur.durableTS = writeTS
	*counter++
	l.releaseCooling()
	return nil
}

// releaseCooling moves cooled segments to the free pool. A segment freed by
// the cleaner becomes reusable only after the next durable write, which is
// what makes the facts the cleaner re-logged (and the block copies it
// moved) reachable by recovery before the old copies can be destroyed.
// On a backend with a volatile write cache "the next write returned" is
// not "durable", so the cache is drained first; if the drain fails the
// segments simply stay cooling — unreusable but safe.
func (l *LLD) releaseCooling() {
	if len(l.cooling) == 0 {
		return
	}
	// A victim is releasable only once every record the cleaner re-logged
	// on its behalf has reached the platter. Those records all carry a ts
	// at or below the barrier recorded when the victim was retired, so the
	// check is a watermark comparison: undurableFloor is a lower bound on
	// the ts of any record NOT yet durable (in the open segment's buffer
	// above its last partial write). The barriers are monotone, so a
	// prefix of the cooling queue releases.
	floor := l.undurableFloor()
	n := 0
	for n < len(l.cooling) && l.coolingTS[n] <= floor {
		n++
	}
	if n == 0 {
		return
	}
	if err := l.dskSync(); err != nil {
		return
	}
	for _, id := range l.cooling[:n] {
		l.segs[id].state = segFree
		l.freeSegs = append(l.freeSegs, id)
	}
	l.cooling = append(l.cooling[:0], l.cooling[n:]...)
	l.coolingTS = append(l.coolingTS[:0], l.coolingTS[n:]...)
}

// undurableFloor returns a ts such that every record with an equal or
// smaller ts is durably on the platter: a dirty open segment holds
// undurable records above max(firstTS, durableTS), and sealed segments
// hold none. Returns MaxUint64 when nothing undurable exists. Callers
// hold l.mu.
func (l *LLD) undurableFloor() uint64 {
	s := l.cur
	if s == nil || !s.dirty {
		return math.MaxUint64
	}
	if s.durableTS > s.firstTS {
		return s.durableTS
	}
	return s.firstTS
}

// retireSegment marks a cleaned segment as freed, honoring ARU and cooling
// rules. Callers hold l.mu.
func (l *LLD) retireSegment(id int) {
	l.segs[id].state = segCooling
	l.segs[id].live = 0
	l.segs[id].names = nil
	if l.aruOpen {
		l.pendingARU = append(l.pendingARU, id)
	} else {
		l.cooling = append(l.cooling, id)
		l.coolingTS = append(l.coolingTS, l.ts)
	}
}

// chargeCompression applies the modeled CPU cost accumulated for the
// segment that was just written. Compressing this segment overlapped the
// previous segment's write (paper §4.2: "one segment can be compressed
// while the previous segment is being written"), so only the excess over
// that write time is charged.
func (l *LLD) chargeCompression() {
	if l.compressCPU <= 0 {
		return
	}
	if delay := l.compressCPU - l.lastSealDur; delay > 0 {
		l.dsk.AdvanceIdle(delay)
	}
	l.compressCPU = 0
}

// readStored returns the stored bytes of a block, either from the open
// segment in memory or from disk (reading whole sectors around the block).
// The caller supplies the scratch buffer (grown in place as needed) so
// shared-lock readers can each bring their own; the returned slice aliases
// either *scratch or the open segment buffer. Callers hold l.mu — shared
// suffices, since the open segment only changes under the exclusive lock.
func (l *LLD) readStored(bi *blockInfo, scratch *[]byte) ([]byte, error) {
	if bi.stored == 0 {
		return nil, nil
	}
	if s := l.cur; s != nil && s.id == int(bi.seg) {
		return s.buf[bi.off : bi.off+bi.stored], nil
	}
	ss := l.lay.sectorSize
	segBase := l.lay.segOff(int(bi.seg))
	first := int64(bi.off) / int64(ss) * int64(ss)
	end := (int64(bi.off) + int64(bi.stored) + int64(ss) - 1) / int64(ss) * int64(ss)
	span := int(end - first)
	if span > len(*scratch) {
		*scratch = make([]byte, span)
	}
	buf := *scratch
	if err := l.dskRead(buf[:span], segBase+first); err != nil {
		return nil, err
	}
	rel := int64(bi.off) - first
	return buf[rel : rel+int64(bi.stored)], nil
}

// storedSpan computes the sector-aligned disk span holding bi's stored
// bytes: the absolute byte offset of the span, its length, and the
// payload's offset within it.
func (l *LLD) storedSpan(bi *blockInfo) (off int64, span int, rel int64) {
	ss := int64(l.lay.sectorSize)
	segBase := l.lay.segOff(int(bi.seg))
	first := int64(bi.off) / ss * ss
	end := (int64(bi.off) + int64(bi.stored) + ss - 1) / ss * ss
	return segBase + first, int(end - first), int64(bi.off) - first
}

// readStoredVerified is readStored plus end-to-end verification against
// the block's recorded checksum. The verified result reports that the
// returned bytes are already known to match bi.crc: true for bytes
// served from the in-memory open segment (which cannot rot in this
// model) and for bytes a redundant backend proved by replica selection —
// a copy failing the checksum is read around and healed rather than
// surfaced. A false result means the caller must run its own check (the
// single-platter path). Replica selection stops at the first copy that
// passes; everyLeg, for a caller that has seen a copy of this block fail,
// checks them all as a scrub does, so the bad one is healed whichever leg
// the rotation offers first. Callers hold l.mu; shared suffices.
func (l *LLD) readStoredVerified(bi *blockInfo, scratch *[]byte, everyLeg bool) (data []byte, verified bool, err error) {
	if bi.stored == 0 {
		return nil, true, nil
	}
	if s := l.cur; s != nil && s.id == int(bi.seg) {
		return s.buf[bi.off : bi.off+bi.stored], true, nil
	}
	mr, multi := l.dsk.(disk.MultiReader)
	if !multi {
		data, err = l.readStored(bi, scratch)
		return data, false, err
	}
	off, span, rel := l.storedSpan(bi)
	if span > len(*scratch) {
		*scratch = make([]byte, span)
	}
	buf := *scratch
	crc := bi.crc
	stored := int64(bi.stored)
	read := mr.ReadAtVerified
	if everyLeg {
		read = mr.VerifyReplicas
	}
	healed, err := read(buf[:span], off, func(b []byte) bool {
		return payloadCRC(b[rel:rel+stored]) == crc
	})
	if healed > 0 {
		atomic.AddInt64(&l.stats.DegradedReads, 1)
		atomic.AddInt64(&l.stats.SelfHeals, int64(healed))
	}
	if err != nil {
		return nil, false, err
	}
	return buf[rel : rel+stored], true, nil
}
