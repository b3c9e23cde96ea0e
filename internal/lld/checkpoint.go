package lld

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/disk"
	"repro/internal/ld"
)

// Checkpoints play two roles.
//
// Clean shutdown and fast restart (paper §3.6): on an explicit shutdown LLD
// writes its data structures, a timestamp, and a validity marker to disk;
// the next start loads them and starts immediately, demoting the marker so
// a later crash falls back to recovery.
//
// A bound on recovery (a deviation from the paper, documented in DESIGN.md
// §5): the paper takes no checkpoints during normal operation, so its
// recovery reads every segment summary on the disk. Here a running LLD
// writes a checkpoint — a state snapshot at timestamp T — every
// checkpointPeriod seals (cleaner.go checkpoint has the other triggers), and
// Format writes the first, the shutdown checkpoint of an empty LD. A crash
// mount loads the newest and replays only the records newer than T, read
// from the segments of the log's chain that starts where the checkpoint
// says (recovery.go). The same snapshot is what lets the cleaner reuse a
// segment without restating its summary: a segment opened since the chain
// start is held until a newer checkpoint is durable (segment.go cool), and
// any other holds only facts stamped at or below T. The newest durable
// checkpoint is therefore the only copy of the facts in segments reused
// since it.
//
// Where it lives (format v6, as Sprite LFS keeps its checkpoint). The
// snapshot, the payload, is log data: it is appended to the open segment,
// spilling into the segments the log opens next when it does not fit, each
// piece logged by a summary entry for block 0 that replay passes over. The
// chain starts at the segment holding its first byte, so the reuse rule
// keeps every piece until a newer checkpoint is durable; the payload holds
// no live byte, so a superseded one is dead space the cleaner takes for
// free. A pointer record in one of two fixed slots at the front of the disk
// names it: the generation, the timestamp, the durable mark, the chain
// start, where the log goes on after the payload, and the payload's extents
// with their CRCs. The payload is durable before its pointer is written,
// and the slots alternate, so a crash inside either write leaves the older
// generation whole; a checkpoint is never invalidated, only superseded. The
// pointer's "complete" flag marks shutdown checkpoints, which additionally
// allow skipping the sweep entirely on the next start.

// checkpointEvery is how many seals a running LLD writes between
// checkpoints. Each bounds the next crash mount to the checkpoint and at
// most this many segment summaries (≈ 12.7 ms each on the modeled disk,
// read ahead in batches), and costs one log write of its payload: on
// fs-small's 10,338 ids and 10,002 lists about 100 KB (format v5's slot
// image took 333 KB for the same state). Swept at seed 1 in EXPERIMENTS.md
// "The checkpoint in the log": at 64 fs-small's mount falls from 1.67 s to
// 0.64 and fs-small's and fs-large's write_amp stay within 0.1 % of v5's
// at 128; at 32 the mounts are shorter again, at 0.4 % more write_amp on
// fs-small. A disk with fewer than 4 × 64 segments uses checkpointPeriod
// instead.
const checkpointEvery = 64

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

// checkpoint writes a checkpoint. It is taken every checkpointPeriod seals,
// early when only held segments would refill the free pool
// (refillFromHeld) or when an atomic recovery unit begins with the pool low
// and segments held (beginARU), by ReclaimQuarantined, once after a mount
// whose log cannot continue the newest checkpoint's chain, and, complete,
// by Format and a clean Shutdown, which leave the segment that took the
// payload's end sealed. It never captures half an atomic recovery unit, and
// a checkpoint asked for while one is being written (a seal of the
// segments its payload fills) is that one. The payload and everything
// logged before it are durable before the pointer record is written, and
// the pointer is durable before the held segments are released. Callers
// hold l.mu.
func (l *LLD) checkpoint() error { return l.writeCheckpoint(false, false) }

// writeCheckpoint is checkpoint, or with complete set the shutdown
// checkpoint, or with seal set the periodic one (ckptDue), whose payload
// ends the open segment: it is sealed after it. Callers hold l.mu.
//
// Where the payload goes. It is appended to the log where it stands: into
// the open segment, and while it does not fit into the ones the log opens
// next, sealing each it fills; the log's records follow it in the last,
// unless it is sealed. The periodic checkpoint is taken when the open
// segment's room comes down to the payload (ensureRoom, sealSegment), so
// its payload fills the segment's tail, and a stream read that crosses
// from that segment into the next finds the log's data where it would
// have. Ordinary writes leave the last free segments to it (reserve), so a
// checkpoint finds room on a full disk; one that finds none anyway is
// refused before it writes a byte, and the older one stays the floor.
func (l *LLD) writeCheckpoint(complete, seal bool) error {
	if l.aruOpen || l.checkpointing {
		return nil
	}
	l.checkpointing = true
	defer func() { l.checkpointing = false }()
	p := ckptPointer{gen: l.ckptGen + 1, mark: l.durableMark, complete: complete}
	payload := encodeCheckpoint(liveState{l})
	pieces := l.pieces(len(payload))
	table := 0 // the bytes of an extent table, when the pointer cannot name every piece
	if pieces > l.lay.maxExtents() {
		table = pieces * ckptExtentSize
	}
	need := len(payload) + table
	if need > l.logRoom() && len(l.cooling) > 0 && l.cur != nil {
		// The segments the cleaner emptied come back to the pool once
		// what superseded them is durable: the payload may take them.
		if err := l.writePartial(false); err != nil {
			return err
		}
	}
	if need > l.logRoom() || table > 0 && l.pieces(need)-pieces+1 > l.lay.maxExtents() {
		return &NoSpaceError{Reason: fmt.Sprintf("a checkpoint of %d bytes, %d free segments", need, len(l.freeSegs))}
	}
	l.crashPoint("checkpoint")
	exts, err := l.logPayload(payload, (complete || seal) && table == 0)
	if err != nil {
		return err
	}
	p.exts = exts
	if table > 0 {
		b := make([]byte, 0, table)
		for _, e := range exts {
			b = e.append(b)
		}
		if p.table, err = l.logPayload(b, complete || seal); err != nil {
			return err
		}
	}
	if l.cur != nil {
		if err := l.writePartial(false); err != nil {
			return err
		}
	}
	// A pointer the next boot trusts must not name bytes still sitting in a
	// volatile write cache.
	if err := l.dskSync(); err != nil {
		return err
	}
	l.crashPoint("checkpoint.payload") // the payload durable, no pointer to it yet
	// The floor is the stamp after the payload's writes: what was stamped
	// since the snapshot is the payload's own entries and images, which no
	// mount replays.
	p.ts, p.chainSeg, p.chainSeq = l.ts, exts[0].seg, exts[0].seq
	p.next, p.openSeq = noSegment, l.openSeq
	if l.succ >= 0 {
		p.next = uint32(l.succ)
	}
	buf := make([]byte, l.lay.pointerSize())
	p.put(buf)
	slot := 1 - l.ckptSlot
	if err := l.dskWrite(buf, l.lay.pointerOff(slot)); err != nil {
		return err
	}
	if err := l.dskSync(); err != nil {
		return err
	}
	l.ckptSlot, l.ckptGen, l.ckptTS, l.ckptSeq, l.ckptBytes = slot, p.gen, p.ts, p.chainSeq, len(payload)
	// Release what the newest checkpoint now holds: the held segments
	// opened before its chain start.
	kept := l.held[:0]
	for _, id := range l.held {
		if l.inChain(id) {
			kept = append(kept, id)
		} else {
			l.freeSegment(id)
		}
	}
	l.held = kept
	l.sealsSinceCkpt = 0
	if !complete {
		l.stats.Consolidations++
	}
	return nil
}

// reserve is how many free segments writes leave alone (openNewSegment):
// room for twice the newest checkpoint's payload, at least one segment,
// which only a checkpoint takes, and one more the cleaner may take, since
// each victim it empties comes back to the pool or, held, is released by
// the checkpoint the reserve has room for. A payload grows from one
// checkpoint to the next only by what the log recorded in between. On a
// full disk the pool comes down to the reserve, the checkpoint that
// releases the held segments takes it (refillFromHeld), and a clean
// Shutdown's finds it.
func (l *LLD) reserve() int {
	return max(1, (2*l.ckptBytes+l.lay.dataCap()-1)/l.lay.dataCap()) + 1
}

// spare returns the free segments writes may take and the cleaner's
// watermarks count: the pool less the reserve. Callers hold l.mu.
func (l *LLD) spare() int { return len(l.freeSegs) - l.reserve() }

// logRoom returns the payload bytes the log can take now: the open
// segment's tail, when its summary has room for a piece's entry, and every
// free segment, the reserve included. Callers hold l.mu.
func (l *LLD) logRoom() int {
	return len(l.freeSegs)*l.lay.dataCap() + l.openRoom()
}

// openRoom returns the data bytes left in the open segment that a payload's
// piece may take: none when there is no open segment or its summary has
// no room for the piece's entry. Callers hold l.mu.
func (l *LLD) openRoom() int {
	if c := l.cur; c != nil && c.sumSize+maxEntrySize <= l.lay.summarySize {
		return l.lay.dataCap() - c.dataOff
	}
	return 0
}

// pieces returns how many extents n bytes appended to the log now take:
// one in the open segment's tail, and one in each segment it then fills.
// Callers hold l.mu.
func (l *LLD) pieces(n int) int {
	k := 0
	if t := l.openRoom(); t > 0 {
		k, n = 1, n-min(n, t)
	}
	return k + (n+l.lay.dataCap()-1)/l.lay.dataCap()
}

// logPayload appends a checkpoint payload, or its extent table, to the
// log: into the open segment, and while it does not fit into the ones the
// log opens next, sealing each it fills, each piece logged by a summary
// entry for block 0, which replay passes over, and named by an extent. The
// last segment stays open, and the log's records follow the payload in it,
// unless seal is set. The segments are links of the chain, one after
// another. Callers hold l.mu with l.checkpointing set, and have checked
// that the log has room (logRoom).
func (l *LLD) logPayload(p []byte, seal bool) ([]ckptExtent, error) {
	var exts []ckptExtent
	for len(p) > 0 {
		if l.cur != nil && l.openRoom() == 0 {
			if err := l.sealSegment(); err != nil {
				return nil, err
			}
		}
		if l.cur == nil {
			if err := l.openNewSegment(); err != nil {
				return nil, err
			}
		}
		n := min(len(p), l.openRoom())
		crc := payloadCRC(p[:n])
		off := l.appendData(p[:n])
		l.addEntry(blockEntry{ts: l.nextTS(), off: uint32(off), stored: uint32(n), orig: uint32(n), crc: crc, flags: entryCommitted})
		exts = append(exts, ckptExtent{seg: uint32(l.cur.id), seq: l.cur.seq, off: uint32(off), len: uint32(n), crc: crc})
		p = p[n:]
	}
	if seal {
		return exts, l.sealSegment()
	}
	return exts, nil
}

// ckptDue reports whether the periodic checkpoint is due and an append of
// n more bytes to the open segment would leave less room than its payload
// takes: it is taken now, its payload filling the segment's tail. With the
// pool writes may take below cleanLow and no held segment for it to
// release, it waits: its payload would take room the log's data needs. The estimate is the
// newest payload's length with an eighth more for what the state grew by
// since: without the eighth, at seed 1, fs-large's recovery_virt_s reads
// 0.700 s instead of 0.488 and fs-small's 0.656 instead of 0.645, at the
// same write_amp to 0.01 %.
func (l *LLD) ckptDue(n int) bool {
	cur := l.cur
	if cur == nil || l.aruOpen || l.checkpointing || l.sealsSinceCkpt+1 < l.checkpointPeriod() ||
		l.spare() < cleanLow && len(l.held) == 0 {
		return false
	}
	est := min(l.ckptBytes, l.lay.dataCap()) // a larger one fills segments of its own from a fresh one's start
	left := l.lay.dataCap() - cur.dataOff
	return left >= est && left-n < est+est/8 && cur.sumSize+maxEntrySize <= l.lay.summarySize
}

// ckptPointer is a checkpoint pointer record: which checkpoint it is, where
// its payload lies, and where the log's chain starts and goes on. put is
// the one encoder of its bytes and readPointer the one decoder.
type ckptPointer struct {
	gen      uint64 // one more than the checkpoint before it
	ts       uint64 // the floor: the state holds every record stamped at or below it
	mark     uint64 // the durable watermark the state was taken under
	chainSeg uint32 // the segment holding the payload's first byte, where a crash mount's walk starts
	chainSeq uint32 // its open sequence number
	next     uint32 // the segment the log opens next, noSegment for none: where a clean mount goes on
	openSeq  uint32 // the sequence number of the segment the log opened last
	complete bool   // a shutdown checkpoint: the next mount needs no sweep
	exts     []ckptExtent
	// table, when the payload lies in more extents than a slot names, is
	// where the list of them lies (the extent table, logged after the
	// payload); the slot names these instead, and decodeTable fills exts.
	table []ckptExtent
}

// ckptExtent is one piece of a payload: the bytes at off of segment seg's
// data area, and their CRC32C. seq is the segment's open sequence number:
// the pieces lie in links of the chain, the first in chainSeg.
type ckptExtent struct{ seg, seq, off, len, crc uint32 }

const (
	pointerFixedSize = 46 // magic, generation, timestamp, durable mark, chain start, its sequence number, next segment, last sequence number, flags, extent count
	ckptExtentSize   = 20 // segment, sequence number, offset, length, CRC

	// The pointer's flags byte.
	ptrComplete = 1 << 0
	ptrTable    = 1 << 1 // the extents are the extent table's
)

// maxExtents is how many extents a pointer slot names.
func (l layout) maxExtents() int {
	return (l.pointerSize() - pointerFixedSize - 4) / ckptExtentSize
}

// append appends e's encoding, in a pointer slot or an extent table.
func (e ckptExtent) append(b []byte) []byte {
	for _, v := range [...]uint32{e.seg, e.seq, e.off, e.len, e.crc} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// readExtent decodes one extent, and reports false for one outside the
// segments' data areas of layout lay.
func readExtent(r *reader, lay layout) (ckptExtent, bool) {
	e := ckptExtent{r.u32(), r.u32(), r.u32(), r.u32(), r.u32()}
	return e, int(e.seg) < lay.nSegments && e.seq != 0 && e.len != 0 && uint64(e.off)+uint64(e.len) <= uint64(lay.dataCap())
}

// put encodes p into b, a whole pointer slot: the record, zeros, and the
// CRC32C of everything before it in the slot's last four bytes.
func (p ckptPointer) put(b []byte) {
	clear(b)
	w := &writer{buf: b}
	w.u32(checkpointMagic)
	w.u64(p.gen)
	w.u64(p.ts)
	w.u64(p.mark)
	w.u32(p.chainSeg)
	w.u32(p.chainSeq)
	w.u32(p.next)
	w.u32(p.openSeq)
	flags, exts := uint8(0), p.exts
	if p.complete {
		flags |= ptrComplete
	}
	if p.table != nil {
		flags, exts = flags|ptrTable, p.table
	}
	w.u8(flags)
	w.u8(uint8(len(exts)))
	rec := b[pointerFixedSize:pointerFixedSize]
	for _, e := range exts {
		rec = e.append(rec)
	}
	end := len(b) - 4
	binary.LittleEndian.PutUint32(b[end:], crc32.Checksum(b[:end], crcTable))
}

// readPointer decodes a pointer slot of layout lay. It reports false for a
// slot of the wrong length, without the magic, whose CRC does not match, or
// whose record names extents outside the segments' data areas: an empty or
// torn slot.
func readPointer(b []byte, lay layout) (p ckptPointer, ok bool) {
	if len(b) != lay.pointerSize() {
		return p, false
	}
	end := len(b) - 4
	r := &reader{buf: b[:end]}
	if r.u32() != checkpointMagic || crc32.Checksum(b[:end], crcTable) != binary.LittleEndian.Uint32(b[end:]) {
		return p, false
	}
	p.gen, p.ts, p.mark = r.u64(), r.u64(), r.u64()
	p.chainSeg, p.chainSeq, p.next, p.openSeq = r.u32(), r.u32(), r.u32(), r.u32()
	flags := r.u8()
	n := int(r.u8())
	if flags&^(ptrComplete|ptrTable) != 0 || n == 0 || n > lay.maxExtents() || int(p.chainSeg) >= lay.nSegments || p.chainSeq == 0 ||
		p.next != noSegment && int(p.next) >= lay.nSegments {
		return p, false
	}
	p.complete = flags&ptrComplete != 0
	exts := make([]ckptExtent, n)
	for i := range exts {
		if exts[i], ok = readExtent(r, lay); !ok {
			return p, false
		}
	}
	if flags&ptrTable != 0 {
		p.table = exts
		return p, r.err == nil
	}
	p.exts = exts
	return p, r.err == nil && p.startsChain()
}

// startsChain reports whether p's payload begins in its chain's first
// segment.
func (p ckptPointer) startsChain() bool {
	return p.exts[0].seg == p.chainSeg && p.exts[0].seq == p.chainSeq
}

// decodeTable parses an extent table into p.exts, and reports false for
// one cut short, naming an extent outside the segments' data areas, or
// whose payload does not begin in p's chain's first segment.
func (p *ckptPointer) decodeTable(b []byte, lay layout) bool {
	if len(b) == 0 || len(b)%ckptExtentSize != 0 {
		return false
	}
	r := &reader{buf: b}
	p.exts = make([]ckptExtent, len(b)/ckptExtentSize)
	for i := range p.exts {
		var ok bool
		if p.exts[i], ok = readExtent(r, lay); !ok {
			return false
		}
	}
	return p.startsChain()
}

// allExtents returns every extent the checkpoint takes: its payload's, and
// its extent table's.
func (p ckptPointer) allExtents() []ckptExtent { return slices.Concat(p.exts, p.table) }

// extentsLen returns the bytes exts hold.
func extentsLen(exts []ckptExtent) int {
	n := 0
	for _, e := range exts {
		n += int(e.len)
	}
	return n
}

// ckptState is what a checkpoint payload decodes to (decodeCheckpoint), and
// what installCheckpoint installs.
type ckptState struct {
	nextFresh ld.BlockID
	nextList  ld.ListID
	blocks    []ckptBlock // ids 1 to nextFresh-1
	lists     []ckptList  // in the list of lists' order
	segs      []ckptSeg
}

type ckptBlock struct {
	flags                  uint8 // bAllocated, bHasData, bComp
	next                   ld.BlockID
	lid                    ld.ListID
	seg                    int
	off, stored, orig, crc uint32
}

type ckptList struct {
	id    ld.ListID
	first ld.BlockID
	count int
	hints ld.ListHints
}

type ckptSeg struct {
	state uint8 // segFree, segLive or segQuarantined
	ts    uint64
}

// A payload's block record begins with the block's flags (bAllocated,
// bHasData, bComp) and these, each of which stands for a field the record
// then leaves out or for its one value that needs no field.
const (
	cNext     = 1 << 3 // a successor, as a delta from the id
	cNextAdj  = 1 << 4 // the successor is the next id
	cSameList = 1 << 5 // the list of the allocated id before
	cAdjacent = 1 << 6 // the bytes begin where those of the block with data before end, in its segment
	cSameSize = 1 << 7 // as many bytes stored as the block with data before
)

// ckptSource is the state encodeCheckpoint writes: a decoded ckptState, or
// a running LLD's maps read in place (liveState), so taking a checkpoint
// copies nothing but the payload.
type ckptSource interface {
	counts() (nextFresh ld.BlockID, nextList ld.ListID, lists, segs int)
	block(id ld.BlockID) ckptBlock // ids 1 to nextFresh-1
	eachList(f func(ckptList))
	seg(i int) ckptSeg
}

func (st *ckptState) counts() (ld.BlockID, ld.ListID, int, int) {
	return st.nextFresh, st.nextList, len(st.lists), len(st.segs)
}
func (st *ckptState) block(id ld.BlockID) ckptBlock { return st.blocks[id-1] }
func (st *ckptState) seg(i int) ckptSeg             { return st.segs[i] }
func (st *ckptState) eachList(f func(ckptList)) {
	for _, li := range st.lists {
		f(li)
	}
}

// liveState is the state a checkpoint taken now records. The open segment
// is recorded live, and a cooling one free: neither survives a shutdown or
// a crash. Callers hold l.mu.
type liveState struct{ l *LLD }

func (s liveState) counts() (ld.BlockID, ld.ListID, int, int) {
	return s.l.nextFresh, s.l.nextList, len(s.l.lists), len(s.l.segs)
}

func (s liveState) block(id ld.BlockID) ckptBlock {
	bi := &s.l.blocks[id]
	if !bi.allocated() {
		return ckptBlock{}
	}
	b := ckptBlock{flags: bi.flags, next: bi.next, lid: bi.lid}
	if bi.hasData() {
		b.seg, b.off, b.stored, b.orig, b.crc = s.l.segOf(bi), s.l.offOf(bi), uint32(bi.stored), uint32(bi.orig), bi.crc
	}
	return b
}

func (s liveState) eachList(f func(ckptList)) {
	for li := s.l.head; li != nil; li = li.next {
		f(ckptList{li.id, li.first, li.count, li.hints})
	}
}

func (s liveState) seg(i int) ckptSeg {
	c := ckptSeg{state: s.l.segs[i].state, ts: s.l.segs[i].ts}
	switch c.state {
	case segOpen:
		c.state = segLive
	case segCooling:
		c.state = segFree
	}
	if c.state == segFree {
		c.ts = 0
	}
	return c
}

// encodeCheckpoint serializes st into a payload (format v6), the one
// encoder of its bytes. Every field is a varint, most of them deltas from
// the record before, and a delta that is zero, or a successor that is the
// next id, is a flag bit and no field:
//
//	next fresh block id, next list id
//	per block id from 1: its flags; if allocated: the successor (cNext,
//	  or cNextAdj, or none), the list (unless cSameList); with data, the
//	  segment and the offset (unless cAdjacent), the size stored (unless
//	  cSameSize), the logical size if compressed, and the CRC32C (4 bytes)
//	  if it stores any
//	the lists' count; per list, in the list of lists' order: the id, first
//	  block and hints as deltas from the list before, and the member count
//	the segments' count; per segment: the state (free, live, quarantined),
//	  and but for a free one the stamp as a delta from the one before
func encodeCheckpoint(st ckptSource) []byte {
	nextFresh, nextList, nLists, nSegs := st.counts()
	b := make([]byte, 0, 16+8*int(nextFresh)+2*nLists+3*nSegs)
	delta := func(b []byte, v, prev uint64) []byte { return binary.AppendUvarint(b, zigzag(v-prev)) }
	b = binary.AppendUvarint(b, uint64(nextFresh))
	b = binary.AppendUvarint(b, uint64(nextList))
	var lid, seg, end, stored uint64
	for id := uint64(1); id < uint64(nextFresh); id++ {
		bl := st.block(ld.BlockID(id))
		if bl.flags == 0 {
			b = append(b, 0)
			continue
		}
		data := bl.flags&bHasData != 0
		flags := bl.flags
		switch {
		case bl.next == ld.NilBlock:
		case uint64(bl.next) == id+1:
			flags |= cNextAdj
		default:
			flags |= cNext
		}
		if uint64(bl.lid) == lid {
			flags |= cSameList
		}
		if data && uint64(bl.seg) == seg && uint64(bl.off) == end {
			flags |= cAdjacent
		}
		if data && uint64(bl.stored) == stored {
			flags |= cSameSize
		}
		b = append(b, flags)
		if flags&cNext != 0 {
			b = delta(b, uint64(bl.next), id)
		}
		if flags&cSameList == 0 {
			b = delta(b, uint64(bl.lid), lid)
		}
		lid = uint64(bl.lid)
		if !data {
			continue
		}
		if flags&cAdjacent == 0 {
			b = delta(b, uint64(bl.seg), seg)
			b = delta(b, uint64(bl.off), end)
		}
		if flags&cSameSize == 0 {
			b = delta(b, uint64(bl.stored), stored)
		}
		if bl.flags&bComp != 0 {
			b = binary.AppendUvarint(b, uint64(bl.orig))
		}
		if bl.stored > 0 {
			b = binary.LittleEndian.AppendUint32(b, bl.crc)
		}
		seg, end, stored = uint64(bl.seg), uint64(bl.off)+uint64(bl.stored), uint64(bl.stored)
	}
	b = binary.AppendUvarint(b, uint64(nLists))
	var id, first, hints uint64
	st.eachList(func(li ckptList) {
		h := uint64(encodeHints(li.hints))
		b = delta(b, uint64(li.id), id)
		b = delta(b, uint64(li.first), first)
		b = delta(b, h, hints)
		b = binary.AppendUvarint(b, uint64(li.count))
		id, first, hints = uint64(li.id), uint64(li.first), h
	})
	b = binary.AppendUvarint(b, uint64(nSegs))
	var ts uint64
	for i := 0; i < nSegs; i++ {
		s := st.seg(i)
		b = append(b, s.state)
		if s.state != segFree {
			b = delta(b, s.ts, ts)
			ts = s.ts
		}
	}
	return b
}

// decodeCheckpoint parses a payload of a disk of layout lay into the state
// it holds. It refuses, with ErrFormat, a payload cut short or run on, a
// field not in its one encoding (a varint written long, a zero delta or an
// adjacent successor written out), and any state the encoder cannot be
// handed: unknown flags or states, a block's bytes outside a segment's
// data area or larger than the largest block, a list id outside those
// handed out or named twice, a segment count not the disk's.
func decodeCheckpoint(p []byte, lay layout) (*ckptState, error) {
	r := &reader{buf: p}
	delta := func(prev uint64) (uint64, bool) {
		d := unzigzag(r.uvarint())
		return prev + d, d != 0
	}
	bad := func(format string, args ...any) (*ckptState, error) {
		return nil, fmt.Errorf("%w: checkpoint "+format, append([]any{ErrFormat}, args...)...)
	}
	st := &ckptState{nextFresh: ld.BlockID(r.uvarint32()), nextList: ld.ListID(r.uvarint32())}
	if r.err != nil {
		return nil, r.err
	}
	// Every id below nextFresh takes at least a byte.
	if st.nextFresh == 0 || int(st.nextFresh)-1 > len(p)-r.off || st.nextList == 0 {
		return bad("has next fresh block %d and next list %d in a payload of %d bytes", st.nextFresh, st.nextList, len(p))
	}
	st.blocks = make([]ckptBlock, st.nextFresh-1)
	const max32 = uint64(^uint32(0))
	var lid, seg, end, stored uint64
	for i := range st.blocks {
		b := &st.blocks[i]
		flags := r.u8()
		if flags == 0 {
			continue
		}
		id, data := uint64(i+1), flags&bHasData != 0
		next, ok := uint64(ld.NilBlock), true
		switch {
		case flags&cNext != 0 && flags&cNextAdj != 0:
			ok = false
		case flags&cNext != 0:
			next, _ = delta(id)
			ok = next != id+1 && next != uint64(ld.NilBlock)
		case flags&cNextAdj != 0:
			next = id + 1
		}
		if flags&cSameList == 0 {
			var moved bool
			if lid, moved = delta(lid); !moved {
				ok = false
			}
		}
		off := uint64(0)
		if data {
			if flags&cAdjacent == 0 {
				var moved, slid bool
				seg, moved = delta(seg)
				off, slid = delta(end)
				ok = ok && (moved || slid)
			} else {
				off = end
			}
			if flags&cSameSize == 0 {
				var grown bool
				if stored, grown = delta(stored); !grown {
					ok = false
				}
			}
			b.orig = uint32(stored)
			if flags&bComp != 0 {
				b.orig = r.uvarint32()
			}
			if stored > 0 {
				b.crc = r.u32()
			}
			end = off + stored
		}
		if r.err != nil {
			return nil, r.err
		}
		if !ok || flags&bAllocated == 0 || !data && flags&(bComp|cAdjacent|cSameSize) != 0 || next > max32 || lid > max32 {
			return bad("block %d has flags %#x, successor %d, list %d", id, flags, next, lid)
		}
		if data && (seg >= uint64(lay.nSegments) || stored > uint64(lay.maxBlockSize) || b.orig > uint32(lay.maxBlockSize) ||
			off > uint64(lay.dataCap()) || off+stored > uint64(lay.dataCap())) {
			return bad("block %d has %d of %d bytes at %d of segment %d", id, stored, b.orig, off, seg)
		}
		b.flags, b.next, b.lid = flags&(bAllocated|bHasData|bComp), ld.BlockID(next), ld.ListID(lid)
		if data {
			b.seg, b.off, b.stored = int(seg), uint32(off), uint32(stored)
		}
	}

	n := int(r.uvarint32())
	if r.err == nil && n > (len(p)-r.off)/4 {
		return bad("claims %d lists in %d bytes", n, len(p)-r.off)
	}
	seen := make(map[ld.ListID]bool, max(n, 0))
	var id, first, hints uint64
	for i := 0; i < n && r.err == nil; i++ {
		id, _ = delta(id)
		first, _ = delta(first)
		hints, _ = delta(hints)
		count := r.uvarint32()
		// A list id outside the ones handed out, or named twice, would
		// make the list of lists a chain that loops or outlives its table.
		lid := ld.ListID(id)
		if r.err == nil && (id == uint64(ld.NilList) || id >= uint64(st.nextList) || seen[lid] || first >= uint64(st.nextFresh) || hints > 7 || int(count) > len(st.blocks)) {
			return bad("names list %d (next list %d) out of range or twice, first block %d, %d members", id, st.nextList, first, count)
		}
		seen[lid] = true
		st.lists = append(st.lists, ckptList{id: lid, first: ld.BlockID(first), count: int(count), hints: decodeHints(uint32(hints))})
	}
	if r.err == nil && st.lists == nil {
		st.lists = []ckptList{}
	}

	nSegs := int(r.uvarint32())
	if r.err == nil && nSegs != lay.nSegments {
		return bad("has %d segments, disk has %d", nSegs, lay.nSegments)
	}
	if r.err == nil {
		st.segs = make([]ckptSeg, nSegs)
	}
	var ts uint64
	for i := range st.segs {
		s := &st.segs[i]
		s.state = r.u8()
		switch s.state {
		case segFree:
		case segLive, segQuarantined:
			ts, _ = delta(ts)
			s.ts = ts
		default:
			if r.err == nil {
				return bad("segment %d in state %d", i, s.state)
			}
		}
	}
	if r.err == nil && r.off != len(p) {
		return bad("has %d bytes after its records", len(p)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	return st, nil
}

// installCheckpoint makes st, the payload of the checkpoint p points to,
// the in-memory state of an instance that holds none: the maps, the usage
// table recounted from them, the durable mark, and where the log goes on.
// A crash mount walks the chain from its start (l.succ, the sequence number
// after l.openSeq); a clean one opens p.next next. The payload's segments
// are the newest checkpoint's, and are kept as links of its chain (inChain).
func (l *LLD) installCheckpoint(st *ckptState, p ckptPointer) {
	l.ts, l.durableMark = p.ts, p.mark
	l.nextFresh, l.nextList = st.nextFresh, st.nextList
	l.growBlocks(int(st.nextFresh))
	for i := range st.blocks {
		b := &st.blocks[i]
		bi := &l.blocks[i+1]
		bi.flags, bi.next, bi.lid = b.flags, b.next, b.lid
		if b.flags&bHasData != 0 {
			bi.setData(l.lay.pack(b.seg, b.off), b.stored, b.orig, b.flags&bComp != 0, b.crc)
			l.liveBytes += int64(b.stored)
			l.segs[b.seg].live += int64(b.stored)
			l.segs[b.seg].mapped++
		}
	}
	for _, c := range st.lists {
		li := &listInfo{id: c.id, first: c.first, count: c.count, hints: c.hints}
		l.linkListAfter(li, l.tail)
		l.lists[c.id] = li
	}
	for i, s := range st.segs {
		l.segs[i].state, l.segs[i].ts = s.state, s.ts
	}
	for _, e := range p.allExtents() {
		s := &l.segs[e.seg]
		if s.state == segFree { // a segment the payload spilled into
			s.state = segLive
		}
		s.seq = e.seq
	}

	l.ckptGen, l.ckptTS, l.ckptSeq, l.ckptBytes = p.gen, p.ts, p.chainSeq, extentsLen(p.exts)
	if p.complete {
		l.succ, l.openSeq = -1, p.openSeq
		if p.next != noSegment {
			l.succ = int(p.next)
		}
	} else {
		l.succ, l.openSeq = int(p.chainSeg), p.chainSeq-1
	}
	// Name each live segment's blocks, ascending, as its summary's names
	// would be kept (segInfo.names): the cleaner and a read-ahead window
	// then find them without a scan of the map for every segment the mount
	// does not decode (liveIn, liveEnd).
	l.namedTS = l.ts
	for i := range l.segs {
		if s := &l.segs[i]; s.state == segLive && s.mapped > 0 {
			s.names = make([]uint32, 0, s.mapped)
		}
	}
	for bid := 1; bid < int(l.nextFresh); bid++ {
		if bi := &l.blocks[bid]; bi.hasData() {
			if s := &l.segs[l.segOf(bi)]; s.names != nil {
				s.names = append(s.names, uint32(bid))
			}
		}
	}
	l.rebuildFreePools()
}

// loadCheckpoint finds the newest checkpoint whose pointer and payload are
// whole, installs it, and demotes a shutdown checkpoint's "complete" flag.
// It returns whether one was found and whether it is complete (shutdown
// checkpoint: no sweep needed).
func (l *LLD) loadCheckpoint() (found, complete bool, err error) {
	buf := make([]byte, l.lay.pointerSize())
	parse := func(b []byte) (uint64, bool) {
		p, ok := readPointer(b, l.lay)
		return p.gen, ok
	}
	mr, multi := l.dsk.(disk.MultiReader)
	type slotPointer struct {
		slot int
		p    ckptPointer
	}
	var candidates []slotPointer
	for slot := 0; slot < 2; slot++ {
		off := l.lay.pointerOff(slot)
		// On a redundant backend, adopt the newest valid record across
		// replicas and heal the rest (metaNewestAcross): a pointer that
		// persisted on a subset of replicas must be seen — and replicated —
		// not won or lost by replica rotation. A slot no copy validates is
		// just an unused slot.
		if multi {
			found, err := l.metaNewestAcross(mr, buf, off, parse)
			if err != nil {
				if errors.Is(err, disk.ErrNoValidReplica) {
					continue
				}
				return false, false, err
			}
			if !found {
				continue
			}
		} else if err := l.dskRead(buf, off); err != nil {
			return false, false, err
		}
		if p, ok := readPointer(buf, l.lay); ok {
			candidates = append(candidates, slotPointer{slot, p})
		}
	}
	if len(candidates) == 2 && candidates[1].p.gen > candidates[0].p.gen {
		candidates[0], candidates[1] = candidates[1], candidates[0]
	}
	// Try the newest first; a payload, or its extent table, that does not
	// read back whole falls back to the older pointer. Held segments are
	// released only once a pointer is durable, so the older one's chain
	// still leads through every segment written since it, the newer
	// payload's included.
	for _, c := range candidates {
		if c.p.table != nil {
			table, whole, err := l.readExtents(c.p.table)
			if err != nil {
				return false, false, err
			}
			if !whole || !c.p.decodeTable(table, l.lay) {
				continue
			}
		}
		payload, whole, err := l.readExtents(c.p.exts)
		if err != nil {
			return false, false, err
		}
		if !whole {
			continue
		}
		st, err := decodeCheckpoint(payload, l.lay)
		if err != nil {
			return false, false, err
		}
		l.installCheckpoint(st, c.p)
		l.ckptSlot = c.slot
		if c.p.complete {
			// Demote the "complete" flag (the paper's marker invalidation):
			// a crash after this restart must trigger the sweep. The
			// checkpoint itself stays valid as the recovery floor.
			demoted := c.p
			demoted.complete = false
			demoted.put(buf)
			if err := l.dskWrite(buf, l.lay.pointerOff(c.slot)); err != nil {
				return false, false, err
			}
		}
		return true, c.p.complete, nil
	}
	return false, false, nil
}

// readExtents reads a payload, or an extent table, extent by extent, and
// reports whether every extent read back with its CRC: on a redundant
// backend from whichever replica holds it whole.
func (l *LLD) readExtents(exts []ckptExtent) (payload []byte, whole bool, err error) {
	ss := int64(l.lay.sectorSize)
	payload = make([]byte, 0, extentsLen(exts))
	var span []byte
	for _, e := range exts {
		at := l.lay.segOff(int(e.seg)) + int64(e.off)
		from := at / ss * ss
		rel := at - from
		n := (at+int64(e.len)+ss-1)/ss*ss - from
		if int64(cap(span)) < n {
			span = make([]byte, n)
		}
		span = span[:n]
		piece := func(b []byte) []byte { return b[rel : rel+int64(e.len)] }
		_, err := l.dskReadVerified(span, from, func(b []byte) bool { return payloadCRC(piece(b)) == e.crc })
		if errors.Is(err, disk.ErrNoValidReplica) {
			return nil, false, nil // torn on every replica
		}
		if err != nil {
			return nil, false, err
		}
		if payloadCRC(piece(span)) != e.crc {
			return nil, false, nil
		}
		payload = append(payload, piece(span)...)
	}
	return payload, true, nil
}
