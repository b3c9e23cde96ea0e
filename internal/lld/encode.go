package lld

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/ld"
)

// On-disk format constants. All multi-byte integers are little endian.
const (
	superMagic      = 0x4C4C4431 // "LLD1"
	summaryMagic    = 0x4C445347 // "LDSG"
	checkpointMagic = 0x4C444350 // "LDCP"
	formatVersion   = 3          // v2: payload CRC32C in block entries and checkpoint records; v3: durable mark in the summary header

	superEncSize      = 60
	summaryHeaderSize = 44
	blockEntryEncSize = 29
	tupleFixedSize    = 10 // kind + flags + ts; args follow

	checkpointHeaderSize = 24
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
	// time, which is what lets the cleaner re-log a fact with a fresh
	// timestamp without perturbing the replay of older records.
	tAlloc      = iota + 1 // bid, lid, next, pred, flags(1=head of list): NewBlock
	tFree                  // bid, lid, pred, succ, flags(1=was head): DeleteBlock
	tNewList               // lid, predLid, hints: NewList
	tDelList               // lid: DeleteList / deleted-list tombstone
	tMoveList              // lid, newPred: MoveList
	tCommit                // (none): EndARU / implicit commit marker
	tBlockState            // bid, next, lid: linkage/existence snapshot
	tBlockFree             // bid: freed-block tombstone
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

// tuple flag bits.
const tupleCommitted = 1 << 0

// block entry flag bits.
const (
	entryCompressed = 1 << 0
	entryCommitted  = 1 << 1
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

func (t tupleRec) encSize() int { return tupleFixedSize + 4*tupleArgc[t.kind] }

// blockEntry is the in-memory form of a summary block entry.
type blockEntry struct {
	bid    ld.BlockID
	ts     uint64
	off    uint32
	stored uint32 // bytes stored in the segment (post-compression)
	orig   uint32 // logical size (pre-compression)
	crc    uint32 // CRC32C of the stored bytes; 0 when stored == 0
	flags  uint8
}

func (e blockEntry) committed() bool { return e.flags&entryCommitted != 0 }

// ---- low-level cursor helpers ----

type writer struct {
	buf []byte
	off int
}

func (w *writer) u8(v uint8)   { w.buf[w.off] = v; w.off++ }
func (w *writer) u32(v uint32) { binary.LittleEndian.PutUint32(w.buf[w.off:], v); w.off += 4 }
func (w *writer) u64(v uint64) { binary.LittleEndian.PutUint64(w.buf[w.off:], v); w.off += 8 }
func (w *writer) skip(n int)   { w.off += n }

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

func (r *reader) skip(n int) {
	if r.err != nil || r.off+n > len(r.buf) {
		r.fail()
		return
	}
	r.off += n
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

// encodeSummary serializes the summary for a segment image into the last
// summarySize bytes of seg. dataBytes is the extent of valid data. mark is
// the durable watermark as it stood before this image's own writes: every
// record stamped at or below it was already on the platter, so a summary
// never vouches for itself or for anything written with it.
func encodeSummary(seg []byte, l layout, segID int, writeTS, mark uint64, sealed bool, dataBytes int, entries []blockEntry, tuples []tupleRec) error {
	need := summaryHeaderSize + len(entries)*blockEntryEncSize
	for _, t := range tuples {
		need += t.encSize()
	}
	if need > l.summarySize {
		return fmt.Errorf("%w: summary overflow: need %d, have %d", ErrFormat, need, l.summarySize)
	}
	sum := seg[l.dataCap() : l.dataCap()+l.summarySize]
	for i := range sum {
		sum[i] = 0
	}
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
	w.skip(3)
	w.u64(mark)
	for _, e := range entries {
		w.u32(uint32(e.bid))
		w.u64(e.ts)
		w.u32(e.off)
		w.u32(e.stored)
		w.u32(e.orig)
		w.u32(e.crc)
		w.u8(e.flags)
	}
	for _, t := range tuples {
		w.u8(t.kind)
		w.u8(t.flags)
		w.u64(t.ts)
		for i := 0; i < tupleArgc[t.kind]; i++ {
			w.u32(t.args[i])
		}
	}
	binary.LittleEndian.PutUint32(sum[4:], crc32.Checksum(sum[8:w.off], crcTable))
	return nil
}

// summaryInfo is a decoded segment summary.
type summaryInfo struct {
	segID     int
	writeTS   uint64
	mark      uint64 // durable watermark when the image was encoded (< writeTS)
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
	si.sealed = r.u8() == 1
	r.skip(3)
	si.mark = r.u64()
	if r.err != nil {
		return nil, r.err
	}
	if si.segID != wantSegID {
		return nil, fmt.Errorf("%w: summary names segment %d, expected %d", ErrFormat, si.segID, wantSegID)
	}
	if si.dataBytes < 0 || si.dataBytes > l.dataCap() {
		return nil, fmt.Errorf("%w: bad data extent %d", ErrFormat, si.dataBytes)
	}
	if si.mark >= si.writeTS {
		return nil, fmt.Errorf("%w: durable mark %d not below the summary's own stamp %d", ErrFormat, si.mark, si.writeTS)
	}
	if nBlocks < 0 || nTuples < 0 || summaryHeaderSize+nBlocks*blockEntryEncSize > len(sum) {
		return nil, fmt.Errorf("%w: bad summary counts", ErrFormat)
	}
	si.entries = make([]blockEntry, 0, nBlocks)
	for i := 0; i < nBlocks; i++ {
		var e blockEntry
		e.bid = ld.BlockID(r.u32())
		e.ts = r.u64()
		e.off = r.u32()
		e.stored = r.u32()
		e.orig = r.u32()
		e.crc = r.u32()
		e.flags = r.u8()
		si.entries = append(si.entries, e)
	}
	si.tuples = make([]tupleRec, 0, nTuples)
	for i := 0; i < nTuples; i++ {
		var t tupleRec
		t.kind = r.u8()
		t.flags = r.u8()
		t.ts = r.u64()
		if r.err == nil && (t.kind == 0 || t.kind >= tupleKindMax) {
			return nil, fmt.Errorf("%w: bad tuple kind %d", ErrFormat, t.kind)
		}
		if r.err != nil {
			return nil, r.err
		}
		for a := 0; a < tupleArgc[t.kind]; a++ {
			t.args[a] = r.u32()
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
