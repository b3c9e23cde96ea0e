package lld

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/disk"
	"repro/internal/ld"
)

// The cleaner produces empty segments by moving the live blocks out of
// mostly-dead segments (paper §3.5). Victims are dead segments first, then
// by Rosenblum & Ousterhout's cost-benefit formula priced on what this
// cleaner does (pickVictim). While copying, the cleaner uses the list
// information to reorder blocks into list order, improving sequential read
// performance — the paper's "simplistic clustering strategy".
//
// A victim's summary is destroyed only when the segment is reused, and a
// segment is reused only once the newest durable checkpoint holds every fact
// its summary states. One opened before the newest checkpoint's chain start
// holds only records at or below the checkpoint's floor; one opened since is
// held until a newer checkpoint is durable (segment.go cool, the reuse
// rule). Either way the cleaner restates nothing: it moves the live blocks
// and retires the segment. This is the paper's "removes old logging
// information ... during cleaning" (§3.5), with the checkpoint (DESIGN.md
// §5) as the one place old facts survive.

// cleanPass is one cleaning pass, the victim loop behind every cleaning
// entry point: the watermark path and the explicit Clean/Reorganize
// commands. It processes victims until target (when non-nil) reports
// satisfied, maxVictims segments (when positive) were cleaned, maxIter
// victims were attempted, or no victim qualifies, and returns how many
// segments it cleaned. Callers hold l.mu with l.cleaning set; the lock is
// not released before it returns.
func (l *LLD) cleanPass(maxVictims, maxIter int, target func() bool) (cleaned int, err error) {
	// image holds a victim's live extents as moveLive reads them. It grows
	// to the largest victim's and is dropped when the pass returns.
	var image []byte
	for iters := 0; iters < maxIter; iters++ {
		if target != nil && target() {
			break
		}
		if maxVictims > 0 && cleaned >= maxVictims {
			break
		}
		victim := l.pickVictim()
		if victim < 0 {
			break
		}
		if err := l.cleanSegment(victim, &image); err != nil {
			return cleaned, err
		}
		cleaned++
	}
	return cleaned, nil
}

// watermarkTarget reports whether the free pool (counting cooling, held and
// ARU-pending segments, which become free without further cleaning) has
// reached the high watermark. Callers hold l.mu.
func (l *LLD) watermarkTarget() bool {
	return len(l.freeSegs)+len(l.cooling)+len(l.pendingARU)+len(l.held) >= cleanHigh
}

// maybeClean runs a whole watermark pass, on the caller's stack and under
// the lock it holds, if the free-segment pool is at or below the low
// watermark (paper §3.5: "when the number of free segments gets below a
// certain threshold"). Callers hold l.mu.
func (l *LLD) maybeClean() error {
	if l.cleaning || len(l.freeSegs)+len(l.cooling)+len(l.held) > cleanLow {
		return nil
	}
	l.cleaning = true
	defer func() { l.cleaning = false }()
	l.stats.CleanerRuns++
	_, err := l.cleanPass(0, 8*cleanHigh, l.watermarkTarget)
	return err
}

// Clean runs one cleaning pass explicitly (used by tools, benchmarks and
// the idle reorganizer). It cleans up to n segments and returns how many
// it cleaned.
func (l *LLD) Clean(n int) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkOpen(); err != nil {
		return 0, err
	}
	if n <= 0 || l.cleaning {
		return 0, nil
	}
	l.cleaning = true
	defer func() { l.cleaning = false }()
	return l.cleanPass(n, n+l.lay.nSegments, nil)
}

// pickVictim selects the next segment to clean, or -1 if none qualifies.
// There is one rule. A segment with nothing live costs nothing to clean — no
// request, no byte moved — so those go first, oldest stamp first. Every
// other is ranked by benefit over what this cleaner pays for it,
// (1-u)*age/(2u): a victim at utilization u frees 1-u of a segment, kept
// free for as long as its data stayed put (age), for reading the live bytes
// and writing them again. Sprite LFS divides by 1+u because its cleaner
// reads the whole segment; this one reads live extents only. The two levels
// are compared as such, not folded into one float. Callers hold l.mu.
func (l *LLD) pickVictim() int {
	best, bestEmpty := -1, false
	var bestScore float64
	dataCap := int64(l.lay.dataCap())
	for i := range l.segs {
		s := &l.segs[i]
		if s.state != segLive || s.live >= dataCap {
			continue // not a candidate, or nothing to gain
		}
		if s.live == 0 {
			if !bestEmpty || s.ts < l.segs[best].ts {
				best, bestEmpty = i, true
			}
			continue
		}
		if bestEmpty {
			continue
		}
		u := float64(s.live) / float64(dataCap)
		score := (1 - u) * float64(l.ts-s.ts+1) / (2 * u)
		if best < 0 || score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// sumNames derives what the cleaner keeps of a segment's newest summary,
// beside the segment's usage-table entry (segInfo.names), so that no
// victim's summary is read back (DESIGN.md §8 "What the cleaner pays"): the
// blocks its entries give data in the segment, ascending without
// duplicates. The result is never nil. A summary is in memory when its
// segment is sealed and when the recovery sweep has decoded it, and each of
// them calls this.
func sumNames(entries []blockEntry) []uint32 {
	ids := make([]uint32, 0, len(entries))
	for i := range entries {
		ids = append(ids, uint32(entries[i].bid))
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// cleanRead is dskRead for the cleaner's reads, counted.
func (l *LLD) cleanRead(p []byte, off int64) error {
	l.stats.CleanReads++
	l.stats.CleanReadBytes += int64(len(p))
	return l.dskRead(p, off)
}

// cleanSegment moves the live blocks out of segment id and retires it. It
// works from the usage table's copy of what the summary names and reads
// only the extents that hold blocks it is about to move (nextExtent, the
// verifier's rule): a victim with nothing live issues no request and
// allocates nothing, and no dead byte farther than deadGapMax from a live
// one is ever transferred — or able to fail the pass. image is the pass's
// victim buffer (moveLive). Callers hold l.mu with l.cleaning set.
func (l *LLD) cleanSegment(id int, image *[]byte) error {
	// What the victim's summary names is in memory for every segment this
	// instance sealed or its mount decoded that still holds a block. Any
	// other was sealed before the newest checkpoint, and liveIn finds its
	// blocks in the map; or it holds none, and there is none to find. No
	// summary is read back.
	names := l.segs[id].names
	l.victim = id
	defer func() { l.victim = -1 }()

	live := l.liveIn(id, names)
	if len(live) > 0 {
		if err := l.moveLive(id, live, image); err != nil {
			return err
		}
	}
	l.crashPoint("clean.moved")

	if s := &l.segs[id]; s.mapped != 0 {
		return fmt.Errorf("lld: internal: segment %d retains %d blocks, %d live bytes, after cleaning", id, s.mapped, s.live)
	}
	l.retireSegment(id)
	l.stats.SegmentsCleaned++
	if len(live) == 0 && l.cur == nil && !l.aruOpen {
		// Nothing was moved, and with no open segment every record that
		// superseded this victim's contents is in a sealed one, so the
		// cooling rule has no later write to wait for — only, on a backend
		// with a volatile cache, the drain that puts those records on the
		// platter. Release it now.
		// This is also what lets recovery bootstrap cleaning on a disk
		// whose every segment carries a (stale) summary.
		l.releaseCooling()
	}
	return nil
}

// liveIn returns the blocks the block-number map still places in segment
// id, ascending; nil when there are none. The ids its summary names cover
// all of them except blocks re-homed here by SwapContents, so the whole map
// is scanned only when they do not add up to the usage table's count. A
// segment no block is left in has forgotten its names and costs no scan.
// Callers hold l.mu.
func (l *LLD) liveIn(id int, names []uint32) []ld.BlockID {
	var live []ld.BlockID
	for _, b := range names {
		if int(b) >= len(l.blocks) {
			continue
		}
		if bi := &l.blocks[b]; bi.allocated() && bi.hasData() && l.segOf(bi) == id {
			live = append(live, ld.BlockID(b))
		}
	}
	if len(live) != int(l.segs[id].mapped) {
		live = live[:0]
		for i := 1; i < len(l.blocks); i++ {
			if bi := &l.blocks[i]; bi.allocated() && bi.hasData() && l.segOf(bi) == id {
				live = append(live, ld.BlockID(i))
			}
		}
	}
	return live
}

// moveLive copies live, the blocks still in victim id, to the head of the
// log. It reads them through *image, the pass's buffer, which it grows to
// hold the victim's live extents back to back. Callers hold l.mu.
func (l *LLD) moveLive(id int, live []ld.BlockID, image *[]byte) error {
	// Cluster: emit live blocks in list order, lists in list-of-lists
	// order (paper §3.5: the cleaner reorders blocks using the list
	// information to improve sequential reads).
	ordered := make([]ld.BlockID, 0, len(live))
	for _, lid := range l.order {
		for b := l.lists[lid].first; b != ld.NilBlock && len(ordered) < len(live); b = l.blocks[b].next {
			if bi := &l.blocks[b]; bi.hasData() && l.segOf(bi) == id {
				ordered = append(ordered, b)
			}
		}
		if len(ordered) == len(live) {
			break
		}
	}
	if len(ordered) < len(live) { // defensive: members no chain reaches
		reached := make(map[ld.BlockID]struct{}, len(ordered))
		for _, b := range ordered {
			reached[b] = struct{}{}
		}
		for _, b := range live {
			if _, ok := reached[b]; !ok {
				ordered = append(ordered, b)
				l.stats.RecoveryAnomalies++
			}
		}
	}

	// Read exactly the blocks moveBlock is about to be handed, in platter
	// order, so none can be served from a region this pass did not read.
	sw := batchSweep{spans: make([]liveSpan, len(ordered)), at: make([]int, len(ordered))}
	for i, bid := range ordered {
		sw.spans[i], sw.at[i] = l.spanOf(bid, &l.blocks[bid]), i
	}
	sort.Sort(&sw)
	ss := uint32(l.lay.sectorSize)
	total := 0
	for run := sw.spans; len(run) > 0; {
		n, lo, hi := nextExtent(run, ss)
		run = run[n:]
		total += int(hi - lo)
	}
	if cap(*image) < total {
		*image = make([]byte, total)
	}
	buf := (*image)[:total]
	stored := make([][]byte, len(ordered)) // in step with ordered
	for k := 0; k < len(sw.spans); {
		n, lo, hi := nextExtent(sw.spans[k:], ss)
		ext := buf[:hi-lo]
		buf = buf[hi-lo:]
		if hi > 0 {
			if err := l.cleanRead(ext, l.lay.segOff(id)+int64(lo)); err != nil {
				return err
			}
		}
		for j, sp := range sw.spans[k : k+n] {
			if sp.stored > 0 {
				stored[sw.at[k+j]] = ext[sp.off-lo:][:sp.stored]
			}
		}
		k += n
	}
	for i, bid := range ordered {
		if err := l.moveBlock(bid, stored[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkpoint writes a checkpoint (checkpoint.go). It is taken every
// checkpointPeriod seals, early when only held segments would refill the
// free pool (refillFromHeld) or when an atomic recovery unit begins with the
// pool low and segments held (beginARU), by ReclaimQuarantined, and once
// after a mount whose log cannot continue the newest checkpoint's chain. The
// open segment's contents are made durable first (a partial write), so every
// block coordinate the checkpoint records exists on disk; the checkpoint is
// durable before the chain segments it no longer needs are released. Callers
// hold l.mu.
func (l *LLD) checkpoint() error {
	if l.aruOpen {
		return nil // never capture half an atomic recovery unit
	}
	if err := l.writePartial(); err != nil {
		return err
	}
	// A checkpoint the next boot trusts must not point at coordinates
	// that are still sitting in a volatile write cache.
	if err := l.dskSync(); err != nil {
		return err
	}
	l.crashPoint("checkpoint")
	l.stats.Consolidations++
	if n := len(l.held); l.cur == nil && l.succ < 0 && len(l.freeSegs) == 0 && n > 0 {
		// The chain starts at a segment this checkpoint releases: until it
		// is durable the older checkpoint's chain still leads through it.
		l.succ = l.held[n-1]
	}
	if err := l.writeCheckpoint(false); err != nil {
		return err
	}
	if err := l.dskSync(); err != nil {
		return err
	}
	for _, id := range l.held {
		l.segs[id].state = segFree
		l.freeSegs = append(l.freeSegs, id)
	}
	l.held = l.held[:0]
	l.sealsSinceCkpt = 0
	return nil
}

// moveBlock copies one live block, whose stored bytes the cleaner read as
// data, into the open segment, preserving its (possibly compressed) stored
// form and its checksum. Callers hold l.mu.
func (l *LLD) moveBlock(bid ld.BlockID, data []byte) error {
	bi := &l.blocks[bid]
	// Never relocate rotted bytes: a mismatch here would otherwise be
	// laundered into a fresh segment under a recomputed checksum. The
	// victim's extents were plain reads, so on a redundant backend each
	// came from a single replica — retry the block's span with replica
	// selection (healing the bad copy) before giving up.
	if payloadCRC(data) != bi.crc {
		fixed := false
		if _, isMulti := l.dsk.(disk.MultiReader); isMulti {
			scratch := l.getReadBuf()
			if good, verified, err := l.readStoredVerified(bi, &scratch, false); err == nil && verified {
				data = append([]byte(nil), good...)
				fixed = true
			}
			l.putReadBuf(scratch)
		}
		if !fixed {
			l.stats.CorruptReads++
			return &CorruptError{Block: bid, Seg: l.segOf(bi), Reason: "payload checksum mismatch during cleaning"}
		}
	}
	if err := l.logData(bid, data, int(bi.orig), bi.flags&bComp != 0, bi.crc); err != nil {
		return err
	}
	l.stats.BlocksMoved++
	return nil
}

// Reorganize is the idle-time disk reorganizer (paper §3.5): it rewrites
// the blocks of cluster-hinted lists in list order so sequential reads hit
// sequential disk locations, then cleans up to n segments. It is invoked
// explicitly (during idle periods): an LLD has no thread of its own.
func (l *LLD) Reorganize(n int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkOpen(); err != nil {
		return err
	}
	if l.cleaning || l.aruOpen || n <= 0 {
		return nil
	}
	l.cleaning = true
	defer func() { l.cleaning = false }()
	// The blocks are fetched a segment's worth at a time, in one sweep of
	// the platter each (readStoredBatch), and appended in list order.
	perRun := l.lay.dataCap() / l.lay.maxBlockSize
	quota := n * l.lay.dataCap() / l.lay.maxBlockSize
	run := make([]ld.BlockID, 0, perRun)
	stage := make([]byte, 0, l.lay.dataCap()) // a run's payloads, at most a segment's worth
	for _, lid := range append([]ld.ListID(nil), l.order...) {
		li, ok := l.lists[lid]
		if !ok || !li.hints.Cluster {
			continue
		}
		for b := li.first; b != ld.NilBlock && quota > 0; b = l.blocks[b].next {
			if !l.blocks[b].hasData() {
				continue
			}
			run = append(run, b)
			quota--
			if len(run) == perRun {
				if err := l.rewriteRun(run, stage); err != nil {
					return err
				}
				run = run[:0]
			}
		}
	}
	if err := l.rewriteRun(run, stage); err != nil {
		return err
	}
	// The rewrites hollowed out the victims' old homes; clean up to n
	// segments so the reorganizer actually returns free space, as
	// documented.
	_, err := l.cleanPass(n, n+l.lay.nSegments, nil)
	return err
}

// rewriteRun re-homes the blocks of run, at most a segment's worth and all
// with data, at the log's head in the order given. It stops at the first
// one that does not read, with the error a Read of it reports. stage is
// empty and has room for the run's payloads. Callers hold l.mu with
// l.cleaning set.
func (l *LLD) rewriteRun(run []ld.BlockID, stage []byte) error {
	// Every payload is staged before the first append: an append may seal
	// the open segment, whose buffer some of them are served from, and the
	// reader's own buffers do not outlive its callback.
	type staged struct {
		data []byte
		err  error
	}
	got := make([]staged, len(run))
	l.readStoredBatch(run, func(i int, _ *blockInfo, stored []byte, err error) {
		stage = append(stage, stored...)
		got[i] = staged{stage[len(stage)-len(stored):], err}
	})
	for i, b := range run {
		if got[i].err != nil {
			return got[i].err
		}
		bi := &l.blocks[b]
		if err := l.logData(b, got[i].data, int(bi.orig), bi.flags&bComp != 0, bi.crc); err != nil {
			return err
		}
	}
	return nil
}
