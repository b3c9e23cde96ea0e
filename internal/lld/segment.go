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

// openNewSegment takes a free segment and makes it the fill target: the
// successor the segment opened before it named, and it names the next one
// (linkSuccessor). That link is what recovery follows from the checkpoint
// (recovery.go "The chain"). Only a segment that wrote all its images while
// the free pool was empty names no successor; the segment opened after it,
// the lowest free one, is linked from nothing, so the next seal takes a
// checkpoint that starts the chain again. Callers hold l.mu and must have
// ensured a free segment exists.
func (l *LLD) openNewSegment() error {
	if l.cur != nil {
		return fmt.Errorf("lld: internal: segment already open")
	}
	if len(l.freeSegs) == 0 {
		return fmt.Errorf("%w: no free segments", ld.ErrNoSpace)
	}
	id := l.succ
	if id < 0 || l.segs[id].state != segFree {
		id = l.nextFree(-1)
		l.sealsSinceCkpt = checkpointEvery
	}
	i, ok := slices.BinarySearch(l.freeSegs, id)
	if !ok {
		return fmt.Errorf("lld: internal: free segment %d not in the free pool", id)
	}
	l.freeSegs = slices.Delete(l.freeSegs, i, i+1)
	l.openSeq = nextSeq(l.openSeq)
	l.succ = -1
	l.segs[id].state = segOpen
	l.segs[id].live = 0
	l.segs[id].seq = l.openSeq
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
		seq:     l.openSeq,
		next:    noSegment,
		firstTS: l.ts,
		buf:     l.fillBuf,
		sumSize: summaryHeaderSize,
		slotSeq: [2]int64{-1, -1},
	}
	l.linkSuccessor(l.cur)
	return nil
}

// linkSuccessor names, when cur names none yet, the segment the log opens
// after it: the lowest free one above cur, or the lowest of all past the
// end of the disk, which stays in the pool until it opens. The log so
// sweeps the disk in address order: a seal lands beside the one before it,
// and a stream read crosses from one segment of the log into the next
// (readahead.go). It runs at the open and again before each summary
// write, so a segment opened on an empty pool is linked once cleaning
// refills it; an older image that names none only sends a mount that reads
// it to the full sweep. Callers hold l.mu.
func (l *LLD) linkSuccessor(cur *openSegment) {
	if cur.next == noSegment && l.succ < 0 && len(l.freeSegs) > 0 {
		l.succ = l.nextFree(cur.id)
		cur.next = uint32(l.succ)
	}
}

// nextFree returns the lowest free segment above after, wrapping to the
// lowest of all past the end of the disk, or -1 when the pool is empty.
// Callers hold l.mu.
func (l *LLD) nextFree(after int) int {
	if len(l.freeSegs) == 0 {
		return -1
	}
	i, _ := slices.BinarySearch(l.freeSegs, after+1)
	if i == len(l.freeSegs) {
		i = 0
	}
	return l.freeSegs[i]
}

// freeSegment puts segment id in the free pool, which is kept in address
// order. Callers hold l.mu.
func (l *LLD) freeSegment(id int) {
	l.segs[id].state = segFree
	i, _ := slices.BinarySearch(l.freeSegs, id)
	l.freeSegs = slices.Insert(l.freeSegs, i, id)
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
			if err := l.refillFromHeld(); err != nil {
				return err
			}
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
}

// emitTuple stamps, tags, and records a tuple in the open segment's
// summary. Callers hold l.mu and must have reserved summary space via
// ensureRoom; the tuple is charged its packed size.
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
	return t.ts
}

// emitBlockSnap logs the current existence/linkage state of an allocated
// block. Callers hold l.mu.
func (l *LLD) emitBlockSnap(bid ld.BlockID) error {
	if err := l.ensureRoom(0, tupleSpace(tBlockState)); err != nil {
		return err
	}
	bi := &l.blocks[bid]
	l.emitTuple(tBlockState, uint32(bid), uint32(bi.next), uint32(bi.lid))
	return nil
}

// emitListSnap logs the current state of a list. Callers hold l.mu.
func (l *LLD) emitListSnap(lid ld.ListID) error {
	li := l.lists[lid]
	pred := ld.NilList
	if li.prev != nil {
		pred = li.prev.id
	}
	if err := l.ensureRoom(0, tupleSpace(tListState)); err != nil {
		return err
	}
	l.emitTuple(tListState, uint32(lid), uint32(li.first), uint32(pred), encodeHints(li.hints))
	return nil
}

// emitDataSnap logs the current data location of a block.
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
		seg = uint32(l.segOf(bi)) + 1
		flags |= 1
		if bi.flags&bComp != 0 {
			flags |= 2
		}
		crc = bi.crc
	}
	l.emitTuple(tDataAt, uint32(bid), seg, l.offOf(bi), uint32(bi.stored), uint32(bi.orig), flags, crc)
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

// guardFirstImage drains a volatile write cache before the first summary
// write of a segment generation. The summary that names it as successor must
// reach the platter first: a power loss that kept this one and dropped that
// one would leave the segment written but linked from nothing, and recovery
// follows the links (recovery.go "The chain"). Callers hold l.mu.
func (l *LLD) guardFirstImage(cur *openSegment) error {
	if cur.slotSeq[0] >= 0 || cur.slotSeq[1] >= 0 {
		return nil // an earlier image of this generation was written
	}
	// The scan only finds where the crash site fires: without a hook it is
	// skipped.
	for i := 0; l.opts.CrashHook != nil && i < len(l.segs); i++ {
		if l.segs[i].state == segQuarantined && l.inChain(i) {
			// The chain this write extends leads through a segment recovery
			// set aside.
			l.crashPoint("chain.quarantined")
			break
		}
	}
	return l.dskSync()
}

// sealSegment retires the open segment as a full segment (paper §3): its
// last image is written inline, under l.mu (writeImage). On a write error
// the segment stays open — its buffer keeps serving reads — and a later
// seal retries the same slot. Callers hold l.mu.
func (l *LLD) sealSegment() error {
	cur := l.cur
	if cur == nil {
		return nil
	}
	if _, err := l.writeImage(true, false); err != nil {
		return err
	}
	l.segs[cur.id].state = segLive
	if l.segs[cur.id].mapped > 0 {
		l.segs[cur.id].names = sumNames(cur.entries)
	}
	l.cur = nil
	l.stats.SegmentsSealed++
	l.releaseCooling()
	if l.sealsSinceCkpt++; l.sealsSinceCkpt >= l.checkpointPeriod() {
		return l.checkpoint()
	}
	return nil
}

// writePartial implements the paper's partial-segment strategy (§3.2): the
// segment's new contents are written to its own place on the disk, but the
// segment stays in memory and keeps filling. Unlike §3.2 the image is not
// rewritten in place: each partial write, and the seal that ends the
// segment, appends to what earlier ones put on the platter, so the segment
// still ends up contiguous and earlier images are superseded at no cleaning
// cost. With nvram set it is the §5.3 variant: the image lands in
// battery-backed NVRAM, and no disk operation is charged.
func (l *LLD) writePartial(nvram bool) error {
	cur := l.cur
	if cur == nil || !cur.dirty {
		return nil
	}
	n, err := l.writeImage(false, nvram)
	if err != nil {
		return err
	}
	if nvram {
		l.stats.NVRAMFlushes++
	} else {
		l.stats.PartialWrites++
		l.stats.PartialBytes += int64(n)
	}
	l.releaseCooling()
	return nil
}

// writeImage is the one writer of a segment image: the seal's, a disk
// partial write's, and an NVRAM one's. It encodes the summary, stamped now,
// and writes what is not yet on the platter: the data from onPlatter on
// (the sector the last disk write ended in again, its old bytes plus the
// new), then the summary's used sectors into the ping-pong slot not holding
// the newest acknowledged image. A tear anywhere leaves that image and
// every byte it describes intact (DESIGN §5 has the argument). A full
// segment no flush touched is still one contiguous request (the paper's
// normal case): a seal into slot 0 runs on through a dead middle of at most
// deadGapMax; a longer middle, or slot 1, makes data and summary two
// requests, with the seal.data site between them. An NVRAM write replaces
// the slot durably and atomically, so it needs no overwrite guard, and it
// moves neither onPlatter nor the durable watermark. It returns the bytes
// handed to the backend. Callers hold l.mu.
func (l *LLD) writeImage(sealed, nvram bool) (int, error) {
	cur := l.cur
	writeTS := l.nextTS()
	l.linkSuccessor(cur)
	used, err := encodeSummary(cur.buf, l.lay, cur.id, writeTS, l.durableMark, cur.seq, cur.next, sealed, cur.dataOff, cur.entries, cur.tuples)
	if err != nil {
		return 0, err
	}
	start := l.dsk.Now()
	write := l.dskWrite
	if nvram {
		write = l.dsk.WriteAtNVRAM
	}
	ss := l.lay.sectorSize
	dataCap := l.lay.dataCap()
	dataBytes := (cur.dataOff + ss - 1) / ss * ss
	from, end := cur.onPlatter, dataBytes
	through := sealed && cur.slot == 0 && dataBytes > from && dataCap-dataBytes <= deadGapMax
	if through {
		end = dataCap + used
	}
	if err := l.guardFirstImage(cur); err != nil {
		return 0, err
	}
	if !nvram {
		if err := l.guardSlotOverwrite(cur, cur.slot); err != nil {
			return 0, err
		}
	}
	n := 0
	if end > from {
		if err := write(cur.buf[from:end], l.lay.segOff(cur.id)+int64(from)); err != nil {
			return 0, err
		}
		n += end - from
		if sealed && !through {
			l.crashPoint("seal.data") // data handed over, its summary not yet
		}
	}
	if !through {
		if err := write(cur.buf[dataCap:dataCap+used], l.lay.sumOff(cur.id, cur.slot)); err != nil {
			return 0, err
		}
		n += used
	}
	// Every write succeeded; a failed attempt retries the same range.
	if nvram {
		cur.slotSeq[cur.slot] = 0
	} else {
		cur.slotSeq[cur.slot] = l.writeSeq.Load()
		cur.onPlatter = cur.dataOff / ss * ss
		l.logWriteDone(writeTS)
	}
	cur.slot ^= 1
	cur.dirty = false
	cur.durableTS = writeTS
	l.segs[cur.id].ts = writeTS
	if sealed {
		l.lastSealDur = l.dsk.Now() - start
	}
	l.chargeCompression()
	return n, nil
}

// releaseCooling moves cooled segments to the free pool. A segment freed by
// the cleaner becomes reusable only after the next durable write, which is
// what makes the block copies it moved, and the records that superseded the
// rest of its contents, reachable by recovery before the old copies can be
// destroyed. The facts its summary states need no such write: the segment
// is cooling, not held, only when the newest durable checkpoint holds them
// all (cool).
// On a backend with a volatile write cache "the next write returned" is
// not "durable", so the cache is drained first; if the drain fails the
// segments simply stay cooling — unreusable but safe.
func (l *LLD) releaseCooling() {
	if len(l.cooling) == 0 {
		return
	}
	// A victim is releasable only once every record logged before it was
	// retired has reached the platter. Those records all carry a ts at or
	// below the barrier recorded when the victim was retired, so the check
	// is a watermark comparison: undurableFloor is a lower bound on
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
		l.freeSegment(id)
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
		l.cool(id)
	}
}

// cool queues freed segment id for reuse. A segment of the newest
// checkpoint's chain is held until a newer checkpoint is durable: reused
// earlier, it would overwrite a link recovery follows (Sprite LFS's rule).
// Any other becomes reusable once everything logged so far is durable
// (releaseCooling). Callers hold l.mu.
func (l *LLD) cool(id int) {
	if l.inChain(id) {
		l.held = append(l.held, id)
		return
	}
	l.cooling = append(l.cooling, id)
	l.coolingTS = append(l.coolingTS, l.ts)
}

// inChain reports whether segment id was opened since the newest
// checkpoint's chain start.
func (l *LLD) inChain(id int) bool {
	s := l.segs[id].seq
	return l.ckptSeq != 0 && s != 0 && seqAtOrAfter(s, l.ckptSeq)
}

// Open sequence numbers are 32 bits wide and wrap, skipping 0, which
// stands for none; two of them compare by their distance.
func nextSeq(s uint32) uint32 {
	if s++; s == 0 {
		s = 1
	}
	return s
}

func seqAtOrAfter(a, b uint32) bool { return int32(a-b) >= 0 }

// refillFromHeld takes the checkpoint early when the free pool is empty
// and only held segments would refill it, which releases them. Inside an
// atomic recovery unit no checkpoint may be taken (it would capture half
// the unit), so there the refill fails with errHeldInARU; beginARU takes
// the checkpoint before a unit opens with the pool below cleanLow, so only
// a unit that writes more than the pool held meets it. Callers hold l.mu.
func (l *LLD) refillFromHeld() error {
	if len(l.freeSegs) > 0 || len(l.held) == 0 {
		return nil
	}
	if l.aruOpen {
		return errHeldInARU
	}
	return l.checkpoint()
}

// errHeldInARU is refillFromHeld's refusal inside an atomic recovery unit.
var errHeldInARU = &NoSpaceError{Reason: "only segments held for the next checkpoint would refill the free pool, and no checkpoint is taken inside an atomic recovery unit"}

// beginARU opens an atomic recovery unit: BeginARU's, and the one
// MoveBlocks logs its snapshots in. No checkpoint may be taken inside it,
// so held segments stay held until it ends; when some are held and the
// free pool, cooling segments included, is below cleanLow, the checkpoint
// that releases them is taken first. The bound is cleanLow, not cleanHigh:
// the cleaner counts held segments toward its watermarks, so on a full
// disk the pool less them sits at or below cleanHigh most of the time, and
// that bound checkpoints more often for no refusal it avoids; with no
// pre-checkpoint at all, units are refused (EXPERIMENTS.md, "Checkpoints
// under atomic recovery units"). Callers hold l.mu.
func (l *LLD) beginARU() error {
	if len(l.held) > 0 && len(l.freeSegs)+len(l.cooling) < cleanLow {
		if err := l.checkpoint(); err != nil {
			return err
		}
	}
	l.aruOpen = true
	return nil
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
	if data := l.inOpenSegment(bi); data != nil {
		return data, nil
	}
	off, span, rel := l.storedSpan(bi)
	if span > len(*scratch) {
		*scratch = make([]byte, span)
	}
	buf := *scratch
	if err := l.dskRead(buf[:span], off); err != nil {
		return nil, err
	}
	return buf[rel : rel+int64(bi.stored)], nil
}

// inOpenSegment returns bi's stored bytes if they are in the open segment's
// buffer, nil otherwise. Callers have checked that bi stores some.
func (l *LLD) inOpenSegment(bi *blockInfo) []byte {
	if s := l.cur; s != nil && s.id == l.segOf(bi) {
		off := l.offOf(bi)
		return s.buf[off : off+uint32(bi.stored)]
	}
	return nil
}

// storedSpan computes the sector-aligned disk span holding bi's stored
// bytes: the absolute byte offset of the span, its length, and the
// payload's offset within it.
func (l *LLD) storedSpan(bi *blockInfo) (off int64, span int, rel int64) {
	ss := int64(l.lay.sectorSize)
	at := int64(l.offOf(bi))
	first := at / ss * ss
	end := (at + int64(bi.stored) + ss - 1) / ss * ss
	return l.lay.segOff(l.segOf(bi)) + first, int(end - first), at - first
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
	if data := l.inOpenSegment(bi); data != nil {
		return data, true, nil
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
