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
		if l.segs[seg].mapped > 0 { // a block salvage could not move
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
	// payloads — and salvage records (this call's or an earlier Scrub's)
	// may still sit in the open segment. A checkpoint holds every such fact
	// and is durable, with the open segment, before the evidence is
	// destroyed ("durable" must survive a volatile write cache too: a power
	// loss may otherwise persist the zeroed slots below while dropping what
	// justified zeroing them). It records the segments free, but they join
	// the free pool only once their slots are zeroed: the checkpoint's
	// payload and chain must not lead through them, since one opened since
	// the last checkpoint is a link recovery follows (recovery.go "The
	// chain"). A crash from here on finds them free, whatever their slots
	// hold, and a rotted slot of a free segment at or below the checkpoint
	// is only cleared.
	if err := l.writePartial(false); err != nil {
		return res, err
	}
	for _, seg := range reclaimable {
		l.segs[seg] = segInfo{}
		res.Reclaimed = append(res.Reclaimed, seg)
		l.stats.QuarantinedSegments--
		l.stats.ReclaimedSegments++
	}
	if err := l.checkpoint(); err != nil {
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
	// The zeroed slots are durable before the segments can be reused, so a
	// crash cannot resurrect the evidence on top of new data.
	if err := l.dskSync(); err != nil {
		return res, err
	}
	for _, seg := range reclaimable {
		l.freeSegment(seg)
	}
	l.crashPoint("reclaim.postclear")
	return res, nil
}
