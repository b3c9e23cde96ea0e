package lld

import (
	"fmt"

	"repro/internal/ld"
)

// Quarantined-segment reclaim. Quarantine is deliberately sticky: a
// segment whose summary rotted keeps its media bytes untouched so the
// scrubber can salvage payloads, and it is never reused while the
// instance runs. Reclaim is the explicit second step — once every
// salvageable block has a fresh durable home, the quarantined segment
// holds no unique state, so its evidence slots can be cleared and the
// segment returned to the free pool, restoring full capacity.

// ReclaimResult summarizes one ReclaimQuarantined call.
type ReclaimResult struct {
	Reclaimed []int        // segments returned to the free pool
	Salvaged  []ld.BlockID // blocks rewritten into the open segment by this call
	Stuck     []int        // segments still quarantined: they hold unverifiable blocks
}

// ReclaimQuarantined salvages what remains in each quarantined segment
// (exactly as Scrub does), makes the salvaged blocks' new records
// durable, then clears the segment's summary slots and returns it to
// the free pool. A segment still holding a block whose payload fails
// verification is left quarantined — reclaiming it would turn degraded
// (but salvageable-in-principle) blocks into silent losses — and is
// reported in Stuck.
//
// The durable write ordering matters: the salvage records must reach
// disk before the quarantined summary is zeroed, because that summary
// is the only on-disk evidence of the blocks' old homes. A crash in
// between leaves either the quarantine intact or the blocks fully
// re-homed; never neither.
func (l *LLD) ReclaimQuarantined() (ReclaimResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var res ReclaimResult
	if err := l.checkOpen(); err != nil {
		return res, err
	}
	if l.aruOpen {
		return res, fmt.Errorf("lld: cannot reclaim during an open atomic recovery unit")
	}

	v := l.newVerifier()
	defer v.finish()
	var sr ScrubResult
	var reclaimable []int
	for seg := 0; seg < l.lay.nSegments; seg++ {
		if l.segs[seg].state != segQuarantined {
			continue
		}
		if err := l.scrubSegment(v, seg, true, &sr); err != nil {
			return res, err
		}
		res.Salvaged = sr.Repaired
		stuck := false
		for bid := ld.BlockID(1); bid < l.nextFresh; bid++ {
			bi := &l.blocks[bid]
			if bi.allocated() && bi.hasData() && int(bi.seg) == seg {
				stuck = true
				break
			}
		}
		if stuck {
			res.Stuck = append(res.Stuck, seg)
			continue
		}
		reclaimable = append(reclaimable, seg)
	}
	if len(reclaimable) == 0 {
		return res, nil
	}

	// The surviving summary slot may hold the newest durable record of a
	// block's existence or a list's linkage — salvage only re-homed the
	// payloads. Restate those facts in the open log before the slot is
	// destroyed, exactly as the cleaner does for its victims; otherwise a
	// crash after reclaim would recover the salvaged blocks unallocated.
	sumRegion := make([]byte, 2*l.lay.summarySize)
	for _, seg := range reclaimable {
		if err := l.dskRead(sumRegion, l.lay.sumOff(seg, 0)); err != nil {
			return res, err
		}
		si, err := decodeNewestSummary(sumRegion, l.lay, seg)
		if err != nil {
			continue // both slots rotted: recovery learned nothing from them
		}
		if err := l.relogSummaryFacts(newSumNames(si.entries, si.tuples), si.writeTS); err != nil {
			return res, err
		}
	}

	// Salvage records (this call's or an earlier Scrub's) may still sit in
	// the open segment; force them durable before destroying the evidence.
	// "Durable" must survive a volatile write cache too, hence the Sync:
	// a power loss may otherwise persist the zeroed slots (below) while
	// dropping the re-logged facts that justified zeroing them.
	if err := l.writePartial(); err != nil {
		return res, err
	}
	if err := l.dskSync(); err != nil {
		return res, err
	}
	l.crashPoint("reclaim.preclear")
	zero := make([]byte, l.lay.summarySize)
	for _, seg := range reclaimable {
		for slot := 0; slot < 2; slot++ {
			if err := l.dskWrite(zero, l.lay.sumOff(seg, slot)); err != nil {
				return res, err
			}
			l.crashPoint("reclaim.midclear")
		}
	}
	// The zeroed slots must be durable before the segments rejoin the
	// free pool: a reused segment overwrites the old evidence bytes, and
	// a crash that had kept the zeroing in a volatile cache would then
	// resurrect stale quarantine evidence on top of the new data. On a
	// sync failure the segments simply stay quarantined — sticky, safe.
	if err := l.dskSync(); err != nil {
		return res, err
	}
	for _, seg := range reclaimable {
		l.segs[seg] = segInfo{state: segFree}
		l.freeSegs = append(l.freeSegs, seg)
		res.Reclaimed = append(res.Reclaimed, seg)
		l.stats.QuarantinedSegments--
		l.stats.ReclaimedSegments++
	}
	l.crashPoint("reclaim.postclear")
	return res, nil
}
