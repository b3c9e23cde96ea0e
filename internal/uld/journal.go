package uld

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/ld"
)

// The metadata journal: operations append fixed-format records to an
// in-memory tail, which Flush writes to the journal region in checksummed,
// sequence-numbered chunks. When the region fills, ULD writes a full
// checkpoint instead and resets the journal (bumping the epoch so stale
// chunks are ignored). Because the journal is strictly ordered and bounded
// by the checkpoint, records can be relational (like the paper's link
// tuples) and replayed by simple re-execution — none of the re-logging
// subtleties of LLD's cleaner arise here.

// Journal record kinds.
const (
	jAlloc      = iota + 1 // bid, lid, pred
	jFree                  // bid, lid, pred (resolved)
	jNewList               // lid, pred, hints
	jDelList               // lid
	jMoveList              // lid, pred
	jMoveBlocks            // first, last, src, dst, pred, srcPred
	jSwap                  // a, b
	jSetData               // bid, slot+1 (0 = none), length
	jCommit                // (none)
	jKindMax
)

var jArgc = [jKindMax]int{
	jAlloc:      3,
	jFree:       3,
	jNewList:    3,
	jDelList:    1,
	jMoveList:   2,
	jMoveBlocks: 6,
	jSwap:       2,
	jSetData:    3,
	jCommit:     0,
}

const jCommitted = 1 << 0

const chunkHeaderSize = 32

// record appends one journal record to the in-memory tail. Callers hold
// u.mu.
func (u *ULD) record(kind uint8, args ...uint32) {
	u.seq++
	flags := uint8(0)
	if !u.aruOpen {
		flags |= jCommitted
	}
	u.journal = append(u.journal, kind, flags)
	for _, a := range args {
		u.journal = binary.LittleEndian.AppendUint32(u.journal, a)
	}
}

// journalRoom reports whether the region can still absorb n more bytes of
// chunk (header included).
func (u *ULD) journalRoom(n int) bool {
	return u.journalNext+int64(n) <= u.lay.journalOff+u.lay.journalLen
}

// flushJournal makes all buffered records durable: normally by writing one
// chunk; when the region is full, by checkpointing instead (which makes
// the buffered records redundant). Callers hold u.mu.
func (u *ULD) flushJournal() error {
	if len(u.journal) == 0 {
		return nil
	}
	ss := u.lay.sectorSize
	payload := u.journal
	total := (chunkHeaderSize + len(payload) + ss - 1) / ss * ss
	if !u.journalRoom(total) {
		return u.writeCheckpoint()
	}
	buf := make([]byte, total)
	binary.LittleEndian.PutUint32(buf[0:], journalMagic)
	binary.LittleEndian.PutUint64(buf[8:], u.epoch)
	binary.LittleEndian.PutUint64(buf[16:], u.seq)
	binary.LittleEndian.PutUint32(buf[24:], uint32(len(payload)))
	copy(buf[chunkHeaderSize:], payload)
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(buf[8:chunkHeaderSize+len(payload)], crcTable))
	if err := u.dsk.WriteAt(buf, u.journalNext); err != nil {
		return err
	}
	u.journalNext += int64(total)
	u.journal = u.journal[:0]
	u.drainPendingFree()
	u.stats.JournalFlushes++
	return nil
}

// writeCheckpoint serializes the full state into the alternate checkpoint
// slot, resets the journal, and bumps the epoch. Callers hold u.mu.
func (u *ULD) writeCheckpoint() error {
	var payload []byte
	u32 := func(v uint32) { payload = binary.LittleEndian.AppendUint32(payload, v) }
	u8 := func(v uint8) { payload = append(payload, v) }

	u32(uint32(u.nextFresh))
	u32(uint32(u.nextList))
	nAlloc := 0
	for i := 1; i < len(u.blocks); i++ {
		if u.blocks[i].allocated() {
			nAlloc++
		}
	}
	u32(uint32(nAlloc))
	for i := 1; i < len(u.blocks); i++ {
		bi := &u.blocks[i]
		if !bi.allocated() {
			continue
		}
		u32(uint32(i))
		u32(uint32(bi.slot))
		u32(bi.length)
		u32(uint32(bi.next))
		u32(uint32(bi.lid))
		u8(bi.flags)
	}
	u32(uint32(len(u.order)))
	for _, lid := range u.order {
		li := u.lists[lid]
		u32(uint32(lid))
		u32(uint32(li.first))
		u32(uint32(li.count))
		u32(encodeHints(li.hints))
		u8(0)
	}

	ss := u.lay.sectorSize
	total := (ckptHeaderSize + len(payload) + ss - 1) / ss * ss
	if int64(total) > u.lay.ckptSize {
		return fmt.Errorf("%w: checkpoint needs %d bytes, slot holds %d", ErrFormat, total, u.lay.ckptSize)
	}
	buf := make([]byte, total)
	binary.LittleEndian.PutUint32(buf[0:], ckptMagic)
	binary.LittleEndian.PutUint64(buf[8:], u.seq)
	binary.LittleEndian.PutUint64(buf[16:], u.epoch+1)
	binary.LittleEndian.PutUint32(buf[24:], uint32(len(payload)))
	copy(buf[ckptHeaderSize:], payload)
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(buf[8:ckptHeaderSize+len(payload)], crcTable))
	slot := 1 - u.ckptSlot
	if err := u.dsk.WriteAt(buf, u.lay.ckptOff+int64(slot)*u.lay.ckptSize); err != nil {
		return err
	}
	u.ckptSlot = slot
	u.epoch++
	u.journal = u.journal[:0]
	u.journalNext = u.lay.journalOff
	u.drainPendingFree()
	u.stats.Checkpoints++
	return nil
}

func encodeHints(h ld.ListHints) uint32 {
	var v uint32
	if h.Cluster {
		v |= 1
	}
	if h.Compress {
		v |= 2
	}
	if h.ClusterWithPred {
		v |= 4
	}
	return v
}

func decodeHints(v uint32) ld.ListHints {
	return ld.ListHints{Cluster: v&1 != 0, Compress: v&2 != 0, ClusterWithPred: v&4 != 0}
}

// recover loads the newest checkpoint and replays the journal.
func (u *ULD) recover() error {
	u.stats.Recoveries++
	// Checkpoints. Try the newest slot first; a torn payload falls back to
	// the older slot (the alternating-slot guarantee: the previous
	// checkpoint stays intact whenever a checkpoint write tears).
	head := make([]byte, u.lay.sectorSize)
	type slotInfo struct {
		slot  int
		seq   uint64
		epoch uint64
		plen  int
	}
	var candidates []slotInfo
	for slot := 0; slot < 2; slot++ {
		off := u.lay.ckptOff + int64(slot)*u.lay.ckptSize
		if err := u.dsk.ReadAt(head, off); err != nil {
			return err
		}
		if binary.LittleEndian.Uint32(head[0:]) != ckptMagic {
			continue
		}
		seq := binary.LittleEndian.Uint64(head[8:])
		plen := int(binary.LittleEndian.Uint32(head[24:]))
		if int64(ckptHeaderSize+plen) > u.lay.ckptSize {
			continue
		}
		candidates = append(candidates, slotInfo{
			slot: slot, seq: seq, plen: plen,
			epoch: binary.LittleEndian.Uint64(head[16:]),
		})
	}
	if len(candidates) == 2 && candidates[1].seq > candidates[0].seq {
		candidates[0], candidates[1] = candidates[1], candidates[0]
	}
	for _, c := range candidates {
		off := u.lay.ckptOff + int64(c.slot)*u.lay.ckptSize
		ss := u.lay.sectorSize
		total := (ckptHeaderSize + c.plen + ss - 1) / ss * ss
		buf := make([]byte, total)
		if err := u.dsk.ReadAt(buf, off); err != nil {
			return err
		}
		payload := buf[ckptHeaderSize : ckptHeaderSize+c.plen]
		if crc32.Checksum(buf[8:ckptHeaderSize+c.plen], crcTable) != binary.LittleEndian.Uint32(buf[4:]) {
			continue // torn checkpoint: try the other slot
		}
		if err := u.decodeCheckpoint(payload); err != nil {
			return err
		}
		u.seq = c.seq
		u.epoch = c.epoch
		u.ckptSlot = c.slot
		break
	}

	// Journal replay.
	u.journalNext = u.lay.journalOff
	ss := u.lay.sectorSize
	hdr := make([]byte, ss)
	type recd struct {
		kind      uint8
		committed bool
		args      []uint32
	}
	var pending []recd
	lastCommitted := u.seq
	seq := u.seq
	for {
		if !u.journalRoom(ss) {
			break
		}
		if err := u.dsk.ReadAt(hdr, u.journalNext); err != nil {
			return err
		}
		if binary.LittleEndian.Uint32(hdr[0:]) != journalMagic {
			break
		}
		if binary.LittleEndian.Uint64(hdr[8:]) != u.epoch {
			break
		}
		plen := int(binary.LittleEndian.Uint32(hdr[24:]))
		total := (chunkHeaderSize + plen + ss - 1) / ss * ss
		if !u.journalRoom(total) {
			break
		}
		buf := make([]byte, total)
		if err := u.dsk.ReadAt(buf, u.journalNext); err != nil {
			return err
		}
		if crc32.Checksum(buf[8:chunkHeaderSize+plen], crcTable) != binary.LittleEndian.Uint32(buf[4:]) {
			break // torn chunk: end of the valid journal
		}
		endSeq := binary.LittleEndian.Uint64(buf[16:])
		// Parse records.
		p := buf[chunkHeaderSize : chunkHeaderSize+plen]
		ok := true
		var chunkRecs []recd
		for len(p) >= 2 {
			kind, flags := p[0], p[1]
			if kind == 0 || kind >= jKindMax || len(p) < 2+4*jArgc[kind] {
				ok = false
				break
			}
			args := make([]uint32, jArgc[kind])
			for a := range args {
				args[a] = binary.LittleEndian.Uint32(p[2+4*a:])
			}
			chunkRecs = append(chunkRecs, recd{kind: kind, committed: flags&jCommitted != 0, args: args})
			p = p[2+4*jArgc[kind]:]
		}
		if !ok || len(p) != 0 {
			break
		}
		if endSeq != seq+uint64(len(chunkRecs)) {
			break // sequence discontinuity: stale or replayed-over chunk
		}
		for _, r := range chunkRecs {
			seq++
			if r.committed && seq > lastCommitted {
				lastCommitted = seq
			}
		}
		pending = append(pending, chunkRecs...)
		u.journalNext += int64(total)
	}

	// Re-execute the committed prefix (an incomplete atomic recovery unit
	// is always a suffix of the journal, so this enforces all-or-nothing).
	replaySeq := u.seq
	applied := 0
	for _, r := range pending {
		replaySeq++
		if replaySeq > lastCommitted {
			break
		}
		u.replay(r.kind, r.args)
		u.stats.ReplayedRecords++
		applied++
	}
	u.seq = lastCommitted

	// Derived pools.
	u.deriveFree()

	if applied < len(pending) {
		// An uncommitted suffix was discarded. Its chunk still sits in the
		// journal with sequence numbers we are about to reuse; checkpoint
		// now so the journal restarts cleanly (and the discarded records
		// can never resurface).
		return u.writeCheckpoint()
	}
	return nil
}

func (u *ULD) decodeCheckpoint(p []byte) error {
	get32 := func() uint32 {
		v := binary.LittleEndian.Uint32(p)
		p = p[4:]
		return v
	}
	get8 := func() uint8 {
		v := p[0]
		p = p[1:]
		return v
	}
	u.nextFresh = ld.BlockID(get32())
	u.nextList = ld.ListID(get32())
	nAlloc := int(get32())
	for i := 0; i < nAlloc; i++ {
		if len(p) < blockEncSize {
			return fmt.Errorf("%w: truncated checkpoint", ErrFormat)
		}
		bid := get32()
		if bid == 0 || int(bid) >= len(u.blocks) {
			return fmt.Errorf("%w: checkpoint block %d", ErrFormat, bid)
		}
		bi := &u.blocks[bid]
		bi.slot = int32(get32())
		bi.length = get32()
		bi.next = ld.BlockID(get32())
		bi.lid = ld.ListID(get32())
		bi.flags = get8()
	}
	nLists := int(get32())
	for i := 0; i < nLists; i++ {
		if len(p) < listEncSize {
			return fmt.Errorf("%w: truncated checkpoint lists", ErrFormat)
		}
		lid := ld.ListID(get32())
		li := &ulist{first: ld.BlockID(get32()), count: int(get32()), hints: decodeHints(get32())}
		get8()
		u.lists[lid] = li
		u.order = append(u.order, lid)
	}
	return nil
}

// replay re-executes one journal record. The journal's ordering guarantees
// the context each relational record needs; anything inconsistent is
// ignored defensively.
func (u *ULD) replay(kind uint8, args []uint32) {
	switch kind {
	case jAlloc:
		bid, lid, pred := ld.BlockID(args[0]), ld.ListID(args[1]), ld.BlockID(args[2])
		if int(bid) >= len(u.blocks) || u.lists[lid] == nil {
			return
		}
		u.applyAlloc(bid, lid, pred)
	case jFree:
		bid, lid, pred := ld.BlockID(args[0]), ld.ListID(args[1]), ld.BlockID(args[2])
		if int(bid) >= len(u.blocks) || u.lists[lid] == nil || !u.blocks[bid].allocated() {
			return
		}
		u.applyFree(bid, lid, pred)
	case jNewList:
		u.applyNewList(ld.ListID(args[0]), ld.ListID(args[1]), decodeHints(args[2]))
	case jDelList:
		if u.lists[ld.ListID(args[0])] != nil {
			u.applyDelList(ld.ListID(args[0]))
		}
	case jMoveList:
		if u.lists[ld.ListID(args[0])] != nil {
			u.applyMoveList(ld.ListID(args[0]), ld.ListID(args[1]))
		}
	case jMoveBlocks:
		first, last := ld.BlockID(args[0]), ld.BlockID(args[1])
		src, dst := ld.ListID(args[2]), ld.ListID(args[3])
		if u.lists[src] == nil || u.lists[dst] == nil {
			return
		}
		u.applyMoveBlocks(first, last, src, dst, ld.BlockID(args[4]), ld.BlockID(args[5]))
	case jSwap:
		a, b := ld.BlockID(args[0]), ld.BlockID(args[1])
		if int(a) >= len(u.blocks) || int(b) >= len(u.blocks) {
			return
		}
		u.applySwap(a, b)
	case jSetData:
		bid := ld.BlockID(args[0])
		if int(bid) >= len(u.blocks) {
			return
		}
		u.applySetData(bid, int(args[1])-1, int(args[2]))
	case jCommit:
	}
}

// deriveFree rebuilds slot usage and the free-id pools from the block map.
func (u *ULD) deriveFree() {
	for i := range u.slotUsed {
		u.slotUsed[i] = false
	}
	u.freeSlots = u.lay.nSlots
	maxUsed := ld.BlockID(0)
	for i := 1; i < len(u.blocks); i++ {
		bi := &u.blocks[i]
		if !bi.allocated() {
			continue
		}
		maxUsed = ld.BlockID(i)
		if bi.hasData() && bi.slot >= 0 && int(bi.slot) < u.lay.nSlots {
			if !u.slotUsed[bi.slot] {
				u.slotUsed[bi.slot] = true
				u.freeSlots--
			}
		}
	}
	if maxUsed >= u.nextFresh {
		u.nextFresh = maxUsed + 1
	}
	u.freeIDs.Fill(u.nextFresh, func(b ld.BlockID) bool { return !u.blocks[b].allocated() })
	maxList := ld.ListID(0)
	for lid := range u.lists {
		if lid > maxList {
			maxList = lid
		}
	}
	if maxList >= u.nextList {
		u.nextList = maxList + 1
	}
	u.freeLists.Fill(u.nextList, func(lid ld.ListID) bool { return u.lists[lid] == nil })
	u.pendingFree = u.pendingFree[:0]
}
