package lld

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/disk"
	"repro/internal/ld"
)

// End-to-end data integrity (DESIGN.md §9). Every block payload is
// checksummed (CRC32C over the stored, post-compression bytes) when it
// enters a segment; the checksum travels with the block through summary
// entries, tDataAt snapshots, and checkpoints, and is verified whenever the
// payload is read back from the media — the Read path, the cleaner, the
// reorganizer, and the scrubber. A mismatch is never served: it surfaces as
// a CorruptError wrapping ld.ErrCorrupt, naming the logical block and the
// physical segment.

// CorruptError reports data that failed integrity verification: a payload
// whose checksum no longer matches, an unreadable sector, or a block whose
// segment was quarantined by recovery. It wraps ld.ErrCorrupt (and the
// underlying media error, when there is one), so errors.Is(err,
// ld.ErrCorrupt) detects all of them.
type CorruptError struct {
	Block  ld.BlockID
	Seg    int    // physical segment holding the damaged bytes
	Reason string // what failed verification
	Err    error  // underlying media error, if any
}

func (e *CorruptError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("ld: corrupt data: block %d (segment %d): %s: %v", e.Block, e.Seg, e.Reason, e.Err)
	}
	return fmt.Sprintf("ld: corrupt data: block %d (segment %d): %s", e.Block, e.Seg, e.Reason)
}

func (e *CorruptError) Unwrap() []error {
	if e.Err != nil {
		return []error{ld.ErrCorrupt, e.Err}
	}
	return []error{ld.ErrCorrupt}
}

// QuarantinedSegment names one segment recovery set aside and why.
type QuarantinedSegment struct {
	Seg    int
	Reason string
}

// RecoveryReport describes what the last recovery found. On a clean image
// it is the zero value apart from SweptSegments.
type RecoveryReport struct {
	SweptSegments int // segment summaries the mount probed (0 after a clean-shutdown restart)

	// CheckpointTS is the timestamp of the checkpoint the mount replayed
	// over (0 for none). ChainSegments is how many segments it followed
	// from that checkpoint's chain start (recovery.go "The chain"); it
	// probed those and the one after. FullSweep says why it probed every
	// segment instead; it is empty on a chain mount.
	CheckpointTS  uint64
	ChainSegments int
	FullSweep     string

	// QuarantinedSegments lists segments whose summaries were unreadable or
	// rotted mid-log. Their blocks answer reads with ErrCorrupt, they are
	// never cleaned or reused, and the scrubber can salvage any of their
	// blocks whose payload checksum still verifies.
	QuarantinedSegments []QuarantinedSegment

	// DegradedBlocks lists every allocated block whose data lies in a
	// quarantined segment, in block-id order. Blocks whose only records
	// were lost with a quarantined summary cannot be enumerated — they
	// surface as unallocated.
	DegradedBlocks []ld.BlockID

	TornSlotsCleared int // benign torn summary slots zeroed by the sweep
	DiscardedRecords int // incomplete-ARU records discarded (and fenced)

	// DivergentSegments counts the segments whose summary area did not read
	// back identical from every replica of a redundant backend — the copies
	// differed, or a replica was failed, rebuilding or unreadable — so each
	// slot adopted the newest copy and healed the others. Zero on one platter.
	DivergentSegments int

	// DurableMark is the largest durable watermark the sweep found in a
	// summary: every record stamped at or below it was on the platter
	// before the crash, so the read-back leaves the segments stamped at or
	// below it alone (VerifySkippedSegments, VerifySkippedBlocks). Zero when
	// no drain ever completed on a write-caching backend: everything is read.
	DurableMark uint64

	// Where the mount's time went, on the backend's clock: reading and
	// replaying the summaries, then reading back the mapped payloads of the
	// segments above the mark, and the I/O shape of that read-back.
	SweepTime  time.Duration
	VerifyTime time.Duration
	VerifyCounts
}

// Degraded reports whether recovery found any damage.
func (r RecoveryReport) Degraded() bool {
	return len(r.QuarantinedSegments) > 0 || len(r.DegradedBlocks) > 0
}

// RecoveryReport returns what the last Open's recovery found.
func (l *LLD) RecoveryReport() RecoveryReport {
	l.mu.RLock()
	defer l.mu.RUnlock()
	r := l.recReport
	r.QuarantinedSegments = append([]QuarantinedSegment(nil), r.QuarantinedSegments...)
	r.DegradedBlocks = append([]ld.BlockID(nil), r.DegradedBlocks...)
	return r
}

// finalizeIntegrity completes the recovery report once the block map is
// rebuilt: it folds in quarantines persisted by a checkpoint (which the
// sweep may not have revisited), derives the degraded-block list, and sets
// the quarantine gauge. Called from Open before the instance is shared.
func (l *LLD) finalizeIntegrity() {
	inReport := make(map[int]bool, len(l.recReport.QuarantinedSegments))
	for _, q := range l.recReport.QuarantinedSegments {
		inReport[q.Seg] = true
	}
	n := 0
	for i := range l.segs {
		if l.segs[i].state != segQuarantined {
			continue
		}
		n++
		if !inReport[i] {
			l.recReport.QuarantinedSegments = append(l.recReport.QuarantinedSegments,
				QuarantinedSegment{Seg: i, Reason: "quarantined by an earlier recovery (checkpoint)"})
		}
	}
	l.stats.QuarantinedSegments = int64(n)
	if n == 0 {
		return
	}
	for i := 1; i < int(l.nextFresh); i++ {
		bi := &l.blocks[i]
		if bi.allocated() && bi.hasData() && bi.seg >= 0 && l.segs[bi.seg].state == segQuarantined {
			l.recReport.DegradedBlocks = append(l.recReport.DegradedBlocks, ld.BlockID(i))
		}
	}
}

// ScrubResult summarizes one scrub pass.
type ScrubResult struct {
	Segments int   // sealed segments visited
	Blocks   int   // live blocks whose stored payload was checked
	Bytes    int64 // stored bytes read and verified

	Corrupt  []ld.BlockID // blocks whose payload failed verification
	Repaired []ld.BlockID // quarantined blocks salvaged by rewrite
}

// Scrub walks every sealed segment and verifies the payload checksum of
// each live block against the media — the proactive half of the integrity
// story: latent faults are found while the rest of the log is still healthy
// instead of at the next unlucky Read. It reads in platter order, one
// request per live extent (extent.go). Blocks in quarantined segments whose
// payload still verifies are salvaged: rewritten into the open segment,
// after which they read normally again. Corrupt blocks are reported, not
// altered (their reads keep failing with ErrCorrupt).
func (l *LLD) Scrub() (ScrubResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkOpen(); err != nil {
		return ScrubResult{}, err
	}
	v := l.newVerifier()
	defer v.finish()
	var res ScrubResult
	for seg := 0; seg < l.lay.nSegments; seg++ {
		// Never emit salvage records into someone else's open atomic
		// recovery unit; verification still runs.
		if err := l.scrubSegment(v, seg, !l.aruOpen, &res); err != nil {
			return res, err
		}
	}
	l.stats.ScrubPasses++
	return res, nil
}

// scrubSegment verifies every live block mapped into segment seg and, when
// repair is set, salvages verifiable blocks out of a quarantined seg. A
// pass (v) visits segments in ascending order. Callers hold l.mu
// exclusively. Media faults are recorded per block;
// any other error aborts the pass.
func (l *LLD) scrubSegment(v *verifier, seg int, repair bool, res *ScrubResult) error {
	run := v.runOf(seg) // taken even if seg is skipped below: the pass moves on
	st := l.segs[seg].state
	if st != segLive && st != segQuarantined {
		return nil // free/cooling hold no mapped blocks; the open segment is in memory
	}
	res.Segments++
	l.stats.ScrubSegments++
	if run == nil {
		return nil
	}
	healed := v.heals
	defer func() { l.stats.ScrubHeals += v.heals - healed }()
	return v.segment(run, func(sp liveSpan, stored []byte, err error) error {
		bid := sp.bid
		res.Blocks++
		l.stats.ScrubBlocks++
		if sp.stored == 0 {
			return nil // empty payload: nothing on the media to verify
		}
		if err == nil || errors.Is(err, errPayloadCRC) {
			res.Bytes += int64(sp.stored) // read, if not believed
			l.stats.ScrubBytes += int64(sp.stored)
		}
		if err != nil {
			if !errors.Is(err, errPayloadCRC) && !errors.Is(err, disk.ErrUnreadable) && !errors.Is(err, disk.ErrNoValidReplica) {
				return err
			}
			res.Corrupt = append(res.Corrupt, bid)
			l.stats.ScrubErrors++
			return nil
		}
		if st != segQuarantined || !repair {
			return nil
		}
		// Salvage: the payload is intact even though its segment's summary
		// rotted. Rewrite it into the open segment — a fresh, checksummed,
		// fully-logged home — exactly as the cleaner moves a live block.
		// ensureRoom runs on its own first so the block can be checked to be
		// still here after the seals and cleaning it may do; logData then
		// finds the room made.
		data := append([]byte(nil), stored...)
		if err := l.ensureRoom(len(data), maxEntrySize); err != nil {
			return err
		}
		bi := &l.blocks[bid]
		if int(bi.seg) != seg {
			return nil // moved while ensureRoom recycled segments
		}
		if err := l.logData(bid, data, int(bi.orig), bi.flags&bComp != 0, bi.crc); err != nil {
			return err
		}
		res.Repaired = append(res.Repaired, bid)
		l.stats.ScrubRepairs++
		l.crashPoint("scrub.salvage")
		return nil
	})
}
