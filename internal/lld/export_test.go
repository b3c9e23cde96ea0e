package lld

import (
	"sort"

	"repro/internal/disk"
	"repro/internal/ld"
)

// OpenPerBlockVerify is Open with the sweep's data read-back done by the
// per-block pass that verifyRecoveredData replaced: the oracle the extent
// pass is held against (extent_diff_test.go).
func OpenPerBlockVerify(dsk disk.Backend, opts Options) (*LLD, error) {
	return open(dsk, opts, (*LLD).verifyRecoveredDataPerBlock, false)
}

// OpenPerSlot is Open with every segment of a sweep over a redundant backend
// sent down the per-slot adopt-and-heal path (probeSegmentMulti), whether or
// not its replicas' copies agree: the reference the identical-copies rule is
// held against (mirrorsweep_test.go).
func OpenPerSlot(dsk disk.Backend, opts Options) (*LLD, error) {
	sweepPerSlot = true
	defer func() { sweepPerSlot = false }()
	return Open(dsk, opts)
}

// verifyRecoveredDataPerBlock is the historical pass, kept as it was: every
// mapped block read back in block-id order, one request apiece, a segment
// given up at its first lost block. It trusts no segment: the durable
// watermark bounds the pass it is held against, not the oracle.
func (l *LLD) verifyRecoveredDataPerBlock(report *RecoveryReport, _ func(int) bool) {
	v := &verifier{l: l}
	v.multi, _ = l.dsk.(disk.MultiReader)
	verify := func(bi *blockInfo) bool {
		_, err := v.block(bi) // the one request per block, heal included
		return err == nil
	}
	var lost map[int]bool
	for i := 1; i < len(l.blocks); i++ {
		bi := &l.blocks[i]
		if !bi.allocated() || !bi.hasData() || bi.stored == 0 {
			continue
		}
		seg := l.segOf(bi)
		if l.segs[seg].state == segQuarantined || lost[seg] {
			continue
		}
		if !verify(bi) {
			if lost == nil {
				lost = make(map[int]bool)
			}
			lost[seg] = true
		}
	}
	segs := make([]int, 0, len(lost))
	for s := range lost {
		segs = append(segs, s)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	for _, s := range segs {
		l.segs[s].state = segQuarantined
		report.QuarantinedSegments = append(report.QuarantinedSegments,
			QuarantinedSegment{Seg: s, Reason: "block data lost under a surviving summary"})
	}
}

// noHeadroom lifts the utilization limit to 1.0, so a test can fill the
// disk until the last segment is taken (buildStaleImage).
func (l *LLD) noHeadroom() {
	l.mu.Lock()
	l.utilLimit = 1.0
	l.mu.Unlock()
}

// blockSeg and blockOff return where the map has b's stored bytes: the
// segment (-1 for none) and the offset in its data area.
func (l *LLD) blockSeg(b ld.BlockID) int    { return l.segOf(&l.blocks[b]) }
func (l *LLD) blockOff(b ld.BlockID) uint32 { return l.offOf(&l.blocks[b]) }
