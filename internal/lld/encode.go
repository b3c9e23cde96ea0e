package lld

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/ld"
)

// On-disk format constants. All multi-byte integers are little endian.
const (
	superMagic      = 0x4C4C4431 // "LLD1"
	summaryMagic    = 0x4C445347 // "LDSG"
	checkpointMagic = 0x4C444350 // "LDCP"
	formatVersion   = 5          // v2: payload CRC32C in block entries and checkpoint records; v3: durable mark in the summary header; v4: packed summary records; v5: the summary header links the segment into the log's chain, the checkpoint names where the chain starts

	superEncSize      = 60
	summaryHeaderSize = 44

	// noSegment is the successor a summary names, and the chain start a
	// checkpoint names, when there is none. A summary header holds a
	// successor in 24 bits (computeLayout bounds the segment count).
	noSegment = 1<<24 - 1

	// markFar stands, in a summary header, for a durable mark too far below
	// the image's own stamp for the 32-bit distance the header keeps: the
	// image then vouches for nothing, as one with mark 0 does.
	markFar = math.MaxUint32

	// Packed summary records (format v4, DESIGN §9). A record's size is
	// known once it is appended — its ts is a delta from the previous
	// record's — so ensureRoom reserves the worst case: maxEntrySize for a
	// block entry (flags, bid, ts delta, stored, orig, crc) and
	// tupleSpace(kind) for a tuple. The minimums bound the counts a header
	// may claim before anything is allocated.
	maxEntrySize = 1 + binary.MaxVarintLen32 + binary.MaxVarintLen64 + 2*binary.MaxVarintLen32 + 4
	minEntrySize = 4 // flags, bid, ts delta, stored 0
	minTupleSize = 2 // kind|flags, ts delta

	// A checkpoint slot is sized for a record of blockStateEncSize bytes per
	// block id (computeLayout); the records are packed since format v5
	// (writeCheckpoint) and take ≈ 15.
	checkpointHeaderSize = 24
	checkpointFixedSize  = 36 // ts, next fresh block and list, durable mark, open sequence number, chain start segment and sequence number
	blockStateEncSize    = 33
	listStateEncSize     = 17
	segStateEncSize      = 17
)

// Tuple kinds logged in segment summaries. Replayed in timestamp order
// during recovery (paper §3.6: "using the link tuples, LLD can reconstruct
// the lists during recovery").
const (
	// Every tuple is a self-contained set of absolute field assignments:
	// recovery replays them in timestamp order and each field converges to
	// the value of its newest surviving record. Relational information
	// (the "insert after pred" of the LD interface) is resolved at logging
	// time, which is what lets a snapshot (MoveBlocks, SwapContents) state
	// a field afresh without perturbing the replay of older records.
	tAlloc      = iota + 1 // bid, lid, next, pred, flags(1=head of list): NewBlock
	tFree                  // bid, lid, pred, succ, flags(1=was head): DeleteBlock
	tNewList               // lid, predLid, hints: NewList
	tDelList               // lid: DeleteList / deleted-list tombstone
	tMoveList              // lid, newPred: MoveList
	tCommit                // (none): EndARU / implicit commit marker
	tBlockState            // bid, next, lid: linkage/existence snapshot
	tBlockFree             // bid: freed-block tombstone (replayed; no longer logged)
	tListState             // lid, first, predLid, hints: list snapshot
	tDataAt                // bid, seg+1 (0=none), off, stored, orig, flags(1=has,2=compressed), crc32c(stored bytes)
	tFence                 // lo32(L), hi32(L), lo32(B), hi32(B): abort fence, see recovery.go
	tupleKindMax
)

// tupleArgc gives the argument count for each tuple kind.
var tupleArgc = [tupleKindMax]int{
	tAlloc:      5,
	tFree:       5,
	tNewList:    3,
	tDelList:    1,
	tMoveList:   2,
	tCommit:     0,
	tBlockState: 3,
	tBlockFree:  1,
	tListState:  4,
	tDataAt:     7,
	tFence:      4,
}

// tuple flag bits. They share a byte with the kind, four bits each.
const tupleCommitted = 1 << 0

// block entry flag bits.
const (
	entryCompressed = 1 << 0
	entryCommitted  = 1 << 1
	entryFlags      = entryCompressed | entryCommitted
)

// ErrFormat indicates on-disk metadata that fails validation.
var ErrFormat = errors.New("lld: bad on-disk format")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// payloadCRC is the checksum recorded for a block's stored (post-
// compression) bytes. Zero-length payloads checksum to 0.
func payloadCRC(b []byte) uint32 {
	if len(b) == 0 {
		return 0
	}
	return crc32.Checksum(b, crcTable)
}

// tupleRec is the in-memory form of a logged tuple.
type tupleRec struct {
	kind  uint8
	flags uint8
	ts    uint64
	args  [7]uint32
}

func (t tupleRec) committed() bool { return t.flags&tupleCommitted != 0 }

// packedSize returns t's encoded size when the tuple before it in the
// summary is stamped prevTS (0 for the first).
func (t tupleRec) packedSize(prevTS uint64) int {
	n := 1 + uvarintLen(zigzag(t.ts-prevTS))
	for _, a := range t.args[:tupleArgc[t.kind]] {
		n += uvarintLen(uint64(a))
	}
	return n
}

// tupleSpace returns the most summary bytes a tuple of the given kind can
// take: what ensureRoom reserves for it.
func tupleSpace(kind uint8) int {
	return 1 + binary.MaxVarintLen64 + binary.MaxVarintLen32*tupleArgc[kind]
}

// blockEntry is the in-memory form of a summary block entry.
type blockEntry struct {
	bid    ld.BlockID
	ts     uint64
	off    uint32 // not encoded: the sum of the stored sizes of the entries before it
	stored uint32 // bytes stored in the segment (post-compression)
	orig   uint32 // logical size (pre-compression); encoded only when compressed
	crc    uint32 // CRC32C of the stored bytes; 0 (and not encoded) when stored == 0
	flags  uint8
}

func (e blockEntry) committed() bool { return e.flags&entryCommitted != 0 }

// packedSize returns e's encoded size when the entry before it in the
// summary is stamped prevTS (0 for the first).
func (e blockEntry) packedSize(prevTS uint64) int {
	n := 1 + uvarintLen(uint64(e.bid)) + uvarintLen(zigzag(e.ts-prevTS)) + uvarintLen(uint64(e.stored))
	if e.flags&entryCompressed != 0 {
		n += uvarintLen(uint64(e.orig))
	}
	if e.stored > 0 {
		n += 4
	}
	return n
}

// summaryBytes returns the encoded length of a summary holding entries and
// tuples: the header and every record, without the sector padding.
func summaryBytes(entries []blockEntry, tuples []tupleRec) int {
	n := summaryHeaderSize
	var prev uint64
	for _, e := range entries {
		n += e.packedSize(prev)
		prev = e.ts
	}
	prev = 0
	for _, t := range tuples {
		n += t.packedSize(prev)
		prev = t.ts
	}
	return n
}

// zigzag maps a ts delta, read as signed, to an unsigned varint operand
// that is small when the delta is small either way; unzigzag inverts it.
func zigzag(d uint64) uint64   { return d<<1 ^ uint64(int64(d)>>63) }
func unzigzag(u uint64) uint64 { return u>>1 ^ -(u & 1) }

// uvarintLen returns the bytes binary.PutUvarint writes for v.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// ---- low-level cursor helpers ----

type writer struct {
	buf []byte
	off int
}

func (w *writer) u8(v uint8)       { w.buf[w.off] = v; w.off++ }
func (w *writer) u32(v uint32)     { binary.LittleEndian.PutUint32(w.buf[w.off:], v); w.off += 4 }
func (w *writer) u64(v uint64)     { binary.LittleEndian.PutUint64(w.buf[w.off:], v); w.off += 8 }
func (w *writer) uvarint(v uint64) { w.off += binary.PutUvarint(w.buf[w.off:], v) }
func (w *writer) skip(n int)       { w.off += n }

type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated record at %d", ErrFormat, r.off)
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail()
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// uvarint reads a varint and refuses one written longer than it need be,
// so every image the decoder accepts has one encoding.
func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n == 0:
		r.fail()
		return 0
	case n < 0 || n != uvarintLen(v):
		r.err = fmt.Errorf("%w: malformed varint at %d", ErrFormat, r.off)
		return 0
	}
	r.off += n
	return v
}

// uvarint32 is uvarint for a field that is 32 bits wide in memory.
func (r *reader) uvarint32() uint32 {
	at := r.off
	v := r.uvarint()
	if v > math.MaxUint32 && r.err == nil {
		r.err = fmt.Errorf("%w: varint at %d exceeds 32 bits", ErrFormat, at)
	}
	return uint32(v)
}

// ---- superblock ----

func encodeSuper(l layout) []byte {
	buf := make([]byte, superEncSize)
	w := &writer{buf: buf}
	w.u32(superMagic)
	w.u32(0) // crc placeholder
	w.u32(formatVersion)
	w.u32(uint32(l.sectorSize))
	w.u32(uint32(l.segmentSize))
	w.u32(uint32(l.summarySize))
	w.u32(uint32(l.maxBlockSize))
	w.u32(uint32(l.maxBlocks))
	w.u32(uint32(l.nSegments))
	w.u64(uint64(l.checkpointOff))
	w.u64(uint64(l.checkpointSize))
	w.u64(uint64(l.segmentsOff))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(buf[8:], crcTable))
	return buf
}

func decodeSuper(buf []byte) (layout, error) {
	if len(buf) < superEncSize {
		return layout{}, fmt.Errorf("%w: short superblock", ErrFormat)
	}
	r := &reader{buf: buf[:superEncSize]}
	if r.u32() != superMagic {
		return layout{}, fmt.Errorf("%w: bad superblock magic", ErrFormat)
	}
	crc := r.u32()
	if crc32.Checksum(buf[8:superEncSize], crcTable) != crc {
		return layout{}, fmt.Errorf("%w: superblock checksum mismatch", ErrFormat)
	}
	if v := r.u32(); v != formatVersion {
		return layout{}, fmt.Errorf("%w: unsupported version %d", ErrFormat, v)
	}
	var l layout
	l.sectorSize = int(r.u32())
	l.segmentSize = int(r.u32())
	l.summarySize = int(r.u32())
	l.maxBlockSize = int(r.u32())
	l.maxBlocks = int(r.u32())
	l.nSegments = int(r.u32())
	l.checkpointOff = int64(r.u64())
	l.checkpointSize = int64(r.u64())
	l.segmentsOff = int64(r.u64())
	if r.err != nil {
		return layout{}, r.err
	}
	return l, nil
}

// ---- segment summary ----

// encodeSummary serializes the summary for a segment image into the
// summary area that follows seg's data area, and returns how many bytes of
// it to write: the header and the records, zero-padded to a sector. What
// lies past that in the slot is never read (the header's counts and CRC end
// at the last record), so it need not be written. dataBytes is the extent
// of valid data. mark is the durable watermark as it stood before this
// image's own writes: every record stamped at or below it was already on
// the platter, so a summary never vouches for itself or for anything
// written with it.
//
// It refuses records the log cannot produce, so that decoding its output
// gives back exactly what it was handed: an entry whose off is not the end
// of the entries before it (logData is the one path that appends), an
// uncompressed entry whose orig is not its stored size, a checksum on an
// empty payload, flag bits the format does not define, and a mark at or
// above the image's own stamp. The header keeps the mark as its distance
// below the stamp in 32 bits; a mark farther below is written as none
// (markFar), which claims less and so stays true.
//
// seq is the segment's open sequence number and next the segment the log
// opens after it (noSegment for none): the link recovery follows from the
// checkpoint to the log's head (recovery.go).
func encodeSummary(seg []byte, l layout, segID int, writeTS, mark uint64, seq, next uint32, sealed bool, dataBytes int, entries []blockEntry, tuples []tupleRec) (int, error) {
	off := 0
	for i, e := range entries {
		switch {
		case int(e.off) != off:
			return 0, fmt.Errorf("%w: entry %d at offset %d, the log appended it at %d", ErrFormat, i, e.off, off)
		case e.flags&^entryFlags != 0:
			return 0, fmt.Errorf("%w: entry %d has flags %#x", ErrFormat, i, e.flags)
		case e.flags&entryCompressed == 0 && e.orig != e.stored:
			return 0, fmt.Errorf("%w: uncompressed entry %d stores %d of %d bytes", ErrFormat, i, e.stored, e.orig)
		case e.stored == 0 && e.crc != 0:
			return 0, fmt.Errorf("%w: entry %d checksums an empty payload", ErrFormat, i)
		}
		off += int(e.stored)
	}
	if off > dataBytes {
		return 0, fmt.Errorf("%w: entries end at %d, past the data extent %d", ErrFormat, off, dataBytes)
	}
	for i, t := range tuples {
		if t.kind == 0 || t.kind >= tupleKindMax || t.flags&^tupleCommitted != 0 {
			return 0, fmt.Errorf("%w: tuple %d has kind %d, flags %#x", ErrFormat, i, t.kind, t.flags)
		}
	}
	if mark >= writeTS {
		return 0, fmt.Errorf("%w: durable mark %d not below the image's own stamp %d", ErrFormat, mark, writeTS)
	}
	if next > noSegment {
		return 0, fmt.Errorf("%w: successor %d does not fit the header", ErrFormat, next)
	}
	need := summaryBytes(entries, tuples)
	if need > l.summarySize {
		return 0, fmt.Errorf("%w: summary overflow: need %d, have %d", ErrFormat, need, l.summarySize)
	}
	used := (need + l.sectorSize - 1) / l.sectorSize * l.sectorSize
	sum := seg[l.dataCap() : l.dataCap()+used]
	clear(sum)
	w := &writer{buf: sum}
	w.u32(summaryMagic)
	w.u32(0) // crc placeholder
	w.u32(uint32(segID))
	w.u64(writeTS)
	w.u32(uint32(dataBytes))
	w.u32(uint32(len(entries)))
	w.u32(uint32(len(tuples)))
	if sealed {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u8(uint8(next))
	w.u8(uint8(next >> 8))
	w.u8(uint8(next >> 16))
	dist := uint64(markFar)
	if mark > 0 && writeTS-mark < markFar {
		dist = writeTS - mark
	}
	w.u32(uint32(dist))
	w.u32(seq)
	var prev uint64
	for _, e := range entries {
		w.u8(e.flags)
		w.uvarint(uint64(e.bid))
		w.uvarint(zigzag(e.ts - prev))
		w.uvarint(uint64(e.stored))
		if e.flags&entryCompressed != 0 {
			w.uvarint(uint64(e.orig))
		}
		if e.stored > 0 {
			w.u32(e.crc)
		}
		prev = e.ts
	}
	prev = 0
	for _, t := range tuples {
		w.u8(t.kind | t.flags<<4)
		w.uvarint(zigzag(t.ts - prev))
		for _, a := range t.args[:tupleArgc[t.kind]] {
			w.uvarint(uint64(a))
		}
		prev = t.ts
	}
	binary.LittleEndian.PutUint32(sum[4:], crc32.Checksum(sum[8:w.off], crcTable))
	return used, nil
}

// summaryInfo is a decoded segment summary.
type summaryInfo struct {
	segID     int
	writeTS   uint64
	mark      uint64 // durable watermark when the image was encoded (< writeTS)
	seq       uint32 // the segment generation's open sequence number
	next      uint32 // the segment the log opens after this one, noSegment for none
	dataBytes int
	sealed    bool
	entries   []blockEntry
	tuples    []tupleRec
}

// decodeNewestSummary parses a segment's two summary slots (given as one
// contiguous 2*summarySize region) and returns the valid one with the
// larger write timestamp. A torn write can only have destroyed the slot
// that held no acknowledged records, so the surviving newest slot always
// covers everything a Flush has acknowledged.
func decodeNewestSummary(region []byte, l layout, wantSegID int) (*summaryInfo, error) {
	var best *summaryInfo
	var firstErr error
	for slot := 0; slot < 2; slot++ {
		si, err := decodeSummary(region[slot*l.summarySize:(slot+1)*l.summarySize], l, wantSegID)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if best == nil || si.writeTS > best.writeTS {
			best = si
		}
	}
	if best == nil {
		return nil, firstErr
	}
	return best, nil
}

// decodeSummary parses a raw summary region. It returns ErrFormat for an
// empty, foreign, or torn summary; recovery treats those segments as free.
// It reads the header's counts of records and nothing after the last one:
// what follows in the slot may be left over from an older, longer image. An
// image it accepts has one encoding, the one encodeSummary gives it.
func decodeSummary(sum []byte, l layout, wantSegID int) (*summaryInfo, error) {
	if len(sum) < summaryHeaderSize {
		return nil, fmt.Errorf("%w: short summary", ErrFormat)
	}
	r := &reader{buf: sum}
	if r.u32() != summaryMagic {
		return nil, fmt.Errorf("%w: bad summary magic", ErrFormat)
	}
	crc := r.u32()
	si := &summaryInfo{}
	si.segID = int(r.u32())
	si.writeTS = r.u64()
	si.dataBytes = int(r.u32())
	nBlocks := int(r.u32())
	nTuples := int(r.u32())
	sealed := r.u8()
	si.next = uint32(r.u8()) | uint32(r.u8())<<8 | uint32(r.u8())<<16
	si.sealed = sealed == 1
	dist := r.u32()
	si.seq = r.u32()
	if r.err != nil {
		return nil, r.err
	}
	if sealed > 1 {
		return nil, fmt.Errorf("%w: bad summary header flags", ErrFormat)
	}
	switch {
	case dist == markFar:
	case dist == 0 || uint64(dist) >= si.writeTS:
		return nil, fmt.Errorf("%w: durable mark %d below the summary's own stamp %d is none the encoder writes", ErrFormat, dist, si.writeTS)
	default:
		si.mark = si.writeTS - uint64(dist)
	}
	if si.segID != wantSegID {
		return nil, fmt.Errorf("%w: summary names segment %d, expected %d", ErrFormat, si.segID, wantSegID)
	}
	if si.dataBytes < 0 || si.dataBytes > l.dataCap() {
		return nil, fmt.Errorf("%w: bad data extent %d", ErrFormat, si.dataBytes)
	}
	if si.next != noSegment && int(si.next) >= l.nSegments {
		return nil, fmt.Errorf("%w: summary names successor %d of %d segments", ErrFormat, si.next, l.nSegments)
	}
	if summaryHeaderSize+nBlocks*minEntrySize+nTuples*minTupleSize > len(sum) {
		return nil, fmt.Errorf("%w: bad summary counts", ErrFormat)
	}
	si.entries = make([]blockEntry, 0, nBlocks)
	var off, prev uint64
	for i := 0; i < nBlocks; i++ {
		var e blockEntry
		e.flags = r.u8()
		e.bid = ld.BlockID(r.uvarint32())
		prev += unzigzag(r.uvarint())
		e.ts = prev
		e.stored = r.uvarint32()
		e.orig = e.stored
		if e.flags&entryCompressed != 0 {
			e.orig = r.uvarint32()
		}
		if e.stored > 0 {
			e.crc = r.u32()
		}
		e.off = uint32(off)
		off += uint64(e.stored)
		switch {
		case r.err != nil:
			return nil, r.err
		case e.flags&^entryFlags != 0:
			return nil, fmt.Errorf("%w: entry %d has flags %#x", ErrFormat, i, e.flags)
		case off > uint64(si.dataBytes):
			return nil, fmt.Errorf("%w: entries run past the data extent %d", ErrFormat, si.dataBytes)
		}
		si.entries = append(si.entries, e)
	}
	si.tuples = make([]tupleRec, 0, nTuples)
	prev = 0
	for i := 0; i < nTuples; i++ {
		var t tupleRec
		b := r.u8()
		t.kind, t.flags = b&0xF, b>>4
		if r.err == nil && (t.kind == 0 || t.kind >= tupleKindMax || t.flags&^tupleCommitted != 0) {
			return nil, fmt.Errorf("%w: bad tuple kind %d, flags %#x", ErrFormat, t.kind, t.flags)
		}
		prev += unzigzag(r.uvarint())
		t.ts = prev
		if r.err != nil {
			return nil, r.err
		}
		for a := 0; a < tupleArgc[t.kind]; a++ {
			t.args[a] = r.uvarint32()
		}
		si.tuples = append(si.tuples, t)
	}
	if r.err != nil {
		return nil, r.err
	}
	if crc32.Checksum(sum[8:r.off], crcTable) != crc {
		return nil, fmt.Errorf("%w: summary checksum mismatch (torn write)", ErrFormat)
	}
	return si, nil
}

// ---- hint encoding (shared by tuples and checkpoints) ----

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
	return ld.ListHints{
		Cluster:         v&1 != 0,
		Compress:        v&2 != 0,
		ClusterWithPred: v&4 != 0,
	}
}
