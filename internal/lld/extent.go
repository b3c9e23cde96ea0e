package lld

import (
	"errors"
	"sort"

	"repro/internal/disk"
	"repro/internal/ld"
)

// lld has two multi-block readers, and both cut their blocks into extents
// with nextExtent: this file's verifier, and the batch reader
// (readStoredBatch in ops.go: ReadBlocks, the cleaner and Reorganize).
//
// Platter-order data verification, shared by recovery's read-back of the
// segments above the durable watermark (verifyRecoveredData) and by the
// scrubber (Scrub, ReclaimQuarantined). The verdict
// on a block depends only on its bytes, not on the order they are fetched
// in, so the fetch order is the cheap one: the live blocks are gathered once, sorted by
// (segment, offset), coalesced into extents, and each extent is read with
// one backend request and every block in it checked out of that buffer.
//
// An extent is verify-only. Whatever goes wrong with it — a read error, one
// checksum mismatch, a replica that could not be read — sends just that
// extent's blocks through the per-block check (verifier.block), which is
// the pass this file replaced and the only place a replica copy is healed.
// A clean extent has proved, block for block and copy for copy, exactly
// what the per-block check would have proved, and the per-block check does
// nothing to a block that verifies; a failed extent has touched nothing.
// So verdicts, heals and their counts are those of a purely per-block pass
// on every image (extent_diff_test.go holds the two against each other).
//
// The batch reader reads its extents with plain requests, not readExtent:
// it needs one good copy, not every leg's. Its blocks are the ones its
// caller named instead of a segment's live ones; each is checked out of the
// buffer, and whatever an extent did not prove takes the per-block read.

// deadGapMax is the longest run of dead bytes a request crosses rather than
// ending: one track of the modelled drive (64 sectors of 512 bytes), and
// about one of any drive of its class. A shorter gap passes under the head
// in the same revolution whether or not it is transferred, so skipping it
// saves nothing and costs a second request; a longer one is transfer time
// spent on bytes nobody wants. It is a property of rotating media, not a
// policy, hence a constant. Every multi-block transfer obeys it: the
// verifier's extents, the seal (sealSegment) and the batch read
// (readStoredBatch), which the cleaner's victim read goes through.
const deadGapMax = 32 << 10

// errPayloadCRC is the per-block verdict for bytes that read fine from a
// single-copy backend and fail their checksum.
var errPayloadCRC = errors.New("lld: payload checksum mismatch")

// liveSpan is one mapped block with a home on the platter, as the gather
// saw it. A pass that writes to the log (salvage: its appends can seal and
// clean) outlives the snapshot; spans are re-checked against the map before
// use.
type liveSpan struct {
	bid    ld.BlockID
	seg    int32
	off    uint32
	stored uint32
}

// before is platter order: by segment, then by offset within it.
func (a liveSpan) before(b liveSpan) bool {
	if a.seg != b.seg {
		return a.seg < b.seg
	}
	return a.off < b.off
}

// gatherLiveSpans snapshots every allocated block that has data in a
// segment, sorted by (segment, offset). Callers hold l.mu.
func (l *LLD) gatherLiveSpans() []liveSpan {
	var spans []liveSpan
	for i := 1; i < int(l.nextFresh); i++ {
		bi := &l.blocks[i]
		if bi.allocated() && bi.hasData() {
			spans = append(spans, l.spanOf(ld.BlockID(i), bi))
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].before(spans[j]) })
	return spans
}

// spanOf returns where the map has bid's stored bytes now. Callers hold l.mu
// and have checked that bid has data.
func (l *LLD) spanOf(bid ld.BlockID, bi *blockInfo) liveSpan {
	return liveSpan{bid: bid, seg: int32(l.segOf(bi)), off: l.offOf(bi), stored: uint32(bi.stored)}
}

// VerifyCounts is the I/O shape of a platter-order verification pass.
type VerifyCounts struct {
	VerifySegments  int64 // segments walked (those holding mapped blocks)
	VerifyExtents   int64 // extent reads issued (one backend request each; a mirror serves it once per leg)
	VerifyBytes     int64 // bytes those extents span, dead gaps included
	VerifiedBlocks  int64 // blocks whose stored payload got a verdict
	VerifyFallbacks int64 // extents that failed as a whole and were re-checked block by block

	// What recovery's read-back left unread because it sits at or below the
	// durable watermark (always 0 for a scrub, which visits everything).
	VerifySkippedSegments int64 // segments holding mapped blocks
	VerifySkippedBlocks   int64 // blocks with stored bytes in them
}

// verifier is one verification pass over the segments, in ascending
// order. The live blocks are gathered once, when the pass starts; a segment
// sealed after that is the next pass's. Its extent buffer is as large as a
// segment's data area and lives only as long as the pass.
type verifier struct {
	l     *LLD
	multi disk.MultiReader // non-nil: every replica's copy is checked, bad ones healed
	buf   []byte
	spans []liveSpan // gathered and not yet walked
	VerifyCounts
	heals int64 // replica copies healed by the per-block check
}

// newVerifier starts a pass. Callers hold l.mu exclusively whenever they
// use it and may release it between segments.
func (l *LLD) newVerifier() *verifier {
	v := &verifier{l: l, buf: make([]byte, l.lay.dataCap()), spans: l.gatherLiveSpans()}
	v.multi, _ = l.dsk.(disk.MultiReader)
	return v
}

// nextRun takes the spans of the next segment that has any off the pass;
// nil when none is left.
func (v *verifier) nextRun() []liveSpan {
	if len(v.spans) == 0 {
		return nil
	}
	n := 1
	for n < len(v.spans) && v.spans[n].seg == v.spans[0].seg {
		n++
	}
	run := v.spans[:n:n]
	v.spans = v.spans[n:]
	return run
}

// runOf takes the spans of segment seg off the pass, along with those of
// any earlier segment the caller passed over; nil if seg has none.
func (v *verifier) runOf(seg int) []liveSpan {
	for len(v.spans) > 0 && int(v.spans[0].seg) <= seg {
		if run := v.nextRun(); int(run[0].seg) == seg {
			return run
		}
	}
	return nil
}

// finish folds the pass's counts into the instance statistics.
func (v *verifier) finish() {
	s := &v.l.stats
	s.VerifySegments += v.VerifySegments
	s.VerifyExtents += v.VerifyExtents
	s.VerifyBytes += v.VerifyBytes
	s.VerifiedBlocks += v.VerifiedBlocks
	s.VerifyFallbacks += v.VerifyFallbacks
	s.VerifySkippedSegments += v.VerifySkippedSegments
	s.VerifySkippedBlocks += v.VerifySkippedBlocks
	s.SelfHeals += v.heals
}

// current returns sp's map entry if the block still lives where the gather
// saw it, nil if it has since moved, been overwritten or been freed.
func (v *verifier) current(sp liveSpan) *blockInfo {
	bi := &v.l.blocks[sp.bid]
	if bi.allocated() && bi.hasData() && v.l.spanOf(sp.bid, bi) == sp {
		return bi
	}
	return nil
}

// nextExtent grows one extent from the front of run, the spans of one
// segment in offset order: sector-aligned, and carried across dead gaps of
// up to deadGapMax. It returns how many spans the extent takes and the byte
// range [lo, hi) of the segment it covers; hi == 0 says none of them has
// bytes on the platter. Neighbours may share a sector; a block with no
// stored bytes rides along.
func nextExtent(run []liveSpan, ss uint32) (n int, lo, hi uint32) {
	for ; n < len(run); n++ {
		sp := run[n]
		if sp.stored == 0 {
			continue
		}
		first := sp.off / ss * ss
		if hi == 0 {
			lo = first
		} else if first > hi+deadGapMax {
			break
		}
		if end := (sp.off + sp.stored + ss - 1) / ss * ss; end > hi {
			hi = end
		}
	}
	return n, lo, hi
}

// segment verifies the spans of one segment (a run from nextRun or runOf)
// against the media and calls visit for each block still mapped there. A
// nil err says stored — valid until visit returns, nil for an empty
// payload — matches the block's checksum on every live replica. Otherwise
// err is the media's or errPayloadCRC. The blocks of clean extents are
// visited first, in platter order; those of failed extents after them, one
// per-block check each, in block-id order — the order the per-block pass
// had, so a visit that stops at the first bad block (recovery's) stops
// where that pass did. The first error visit returns ends the walk and is
// returned.
func (v *verifier) segment(run []liveSpan, visit func(sp liveSpan, stored []byte, err error) error) error {
	ss := uint32(v.l.lay.sectorSize)
	segBase := v.l.lay.segOff(int(run[0].seg))
	v.VerifySegments++
	var failed []liveSpan
	for len(run) > 0 {
		n, lo, hi := nextExtent(run, ss)
		ext := run[:n]
		run = run[n:]
		if hi > 0 {
			v.VerifyExtents++
			v.VerifyBytes += int64(hi - lo)
			if !v.readExtent(segBase+int64(lo), v.buf[:hi-lo], ext, lo) {
				v.VerifyFallbacks++
				failed = append(failed, ext...)
				continue
			}
		}
		for _, sp := range ext {
			if v.current(sp) == nil { // an earlier visit may have let the map move on
				continue
			}
			var stored []byte
			if sp.stored > 0 {
				v.VerifiedBlocks++
				stored = v.buf[sp.off-lo:][:sp.stored]
			}
			if err := visit(sp, stored, nil); err != nil {
				return err
			}
		}
	}
	sort.Slice(failed, func(i, j int) bool { return failed[i].bid < failed[j].bid })
	for _, sp := range failed {
		bi := v.current(sp)
		if bi == nil {
			continue
		}
		var stored []byte
		var err error
		if sp.stored > 0 {
			v.VerifiedBlocks++
			stored, err = v.block(bi)
		}
		if err := visit(sp, stored, err); err != nil {
			return err
		}
	}
	return nil
}

// readExtent reads one extent into buf and reports whether every block of
// ext (offsets relative to base) checks out — on a redundant backend, on
// every replica. It repairs nothing.
func (v *verifier) readExtent(off int64, buf []byte, ext []liveSpan, base uint32) bool {
	check := func(b []byte) bool {
		for _, sp := range ext {
			if sp.stored == 0 {
				continue
			}
			if bi := v.current(sp); bi != nil && payloadCRC(b[sp.off-base:][:sp.stored]) != bi.crc {
				return false
			}
		}
		return true
	}
	if v.multi == nil {
		return v.l.dskRead(buf, off) == nil && check(buf)
	}
	// Scan only: no copy is ever accepted, so VerifyReplicas shows every
	// live replica's bytes to check and heals none. Its error says no more
	// than that; the verdict is that every replica was seen and was clean
	// (a leg that is failed, rebuilding or unreadable here leaves the
	// extent to the per-block check).
	seen, good := 0, 0
	_, _ = v.multi.VerifyReplicas(buf, off, func(b []byte) bool {
		seen++
		if check(b) {
			good++
		}
		return false
	})
	return seen == v.multi.Replicas() && good == seen
}

// block is the per-block check: one request for bi's sectors, the payload
// checked against its recorded checksum — on a redundant backend every
// replica's copy, with bad copies healed from a verified one. The returned
// bytes alias the pass's extent buffer (grown if it is shorter), which no
// extent holds by then: the per-block checks come after a segment's last
// extent (segment).
func (v *verifier) block(bi *blockInfo) ([]byte, error) {
	l := v.l
	if v.multi == nil {
		data, err := l.readStored(bi, &v.buf)
		if err == nil && payloadCRC(data) != bi.crc {
			err = errPayloadCRC
		}
		return data, err
	}
	off, span, rel := l.storedSpan(bi)
	if span > len(v.buf) {
		v.buf = make([]byte, span)
	}
	data := v.buf[rel : rel+int64(bi.stored)]
	healed, err := v.multi.VerifyReplicas(v.buf[:span], off, func(b []byte) bool {
		return payloadCRC(b[rel:rel+int64(bi.stored)]) == bi.crc
	})
	v.heals += int64(healed)
	return data, err
}
