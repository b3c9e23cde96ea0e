package lld

import (
	"fmt"
	"slices"

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
	var bufs cleanBufs
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
		if err := l.cleanSegment(victim, &bufs); err != nil {
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

// cleanSegment moves the live blocks out of segment id and retires it. It
// works from the usage table's copy of what the summary names and reads
// only the extents that hold blocks it is about to move (readStoredBatch):
// a victim with nothing live issues no request and allocates nothing, and
// no dead byte farther than deadGapMax from a live one is ever transferred
// — or able to fail the pass. bufs are the pass's work buffers (moveLive).
// Callers hold l.mu with l.cleaning set.
func (l *LLD) cleanSegment(id int, bufs *cleanBufs) error {
	// What the victim's summary names is in memory for every segment this
	// instance sealed or its mount decoded that still holds a block, and
	// what the checkpoint placed there for one the mount took from it
	// (decodeCheckpoint); a segment that holds none has none to find. No
	// summary is read back.
	names := l.segs[id].names
	l.victim = id
	defer func() { l.victim = -1 }()

	live := l.liveIn(id, names)
	if len(live) > 0 {
		if err := l.moveLive(id, live, bufs); err != nil {
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

// cleanBufs are the work buffers of a pass that re-homes blocks
// (rewriteRun): the extents its batches read and the payloads staged out
// of them. Each grows to the largest need and is dropped when the pass
// returns, so a cleaning pass allocates them once, not once per victim.
type cleanBufs struct{ ext, stage []byte }

// moveLive copies live, the blocks still in victim id, to the head of the
// log in list order, through the one re-home path (rewriteRun) and the
// pass's buffers. Callers hold l.mu with l.cleaning set.
func (l *LLD) moveLive(id int, live []ld.BlockID, bufs *cleanBufs) error {
	// Cluster: emit live blocks in list order, lists in list-of-lists
	// order (paper §3.5: the cleaner reorders blocks using the list
	// information to improve sequential reads).
	ordered := make([]ld.BlockID, 0, len(live))
	for li := l.head; li != nil; li = li.next {
		for b := li.first; b != ld.NilBlock && len(ordered) < len(live); b = l.blocks[b].next {
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
	mapped := l.segs[id].mapped
	reqs, bytes, err := l.rewriteRun(ordered, bufs)
	l.stats.CleanReads += reqs
	l.stats.CleanReadBytes += bytes
	l.stats.BlocksMoved += int64(mapped - l.segs[id].mapped) // each block logged left the victim
	return err
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
	if err := l.writePartial(false); err != nil {
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
		l.freeSegment(id)
	}
	l.held = l.held[:0]
	l.sealsSinceCkpt = 0
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
	// The blocks are fetched a segment's worth at a time, one batch each
	// (readStoredBatch), and appended in list order.
	perRun := l.lay.dataCap() / l.lay.maxBlockSize
	quota := n * l.lay.dataCap() / l.lay.maxBlockSize
	run := make([]ld.BlockID, 0, perRun)
	var bufs cleanBufs
	for li := l.head; li != nil; li = li.next {
		if !li.hints.Cluster {
			continue
		}
		for b := li.first; b != ld.NilBlock && quota > 0; b = l.blocks[b].next {
			if !l.blocks[b].hasData() {
				continue
			}
			run = append(run, b)
			quota--
			if len(run) == perRun {
				if _, _, err := l.rewriteRun(run, &bufs); err != nil {
					return err
				}
				run = run[:0]
			}
		}
	}
	if _, _, err := l.rewriteRun(run, &bufs); err != nil {
		return err
	}
	// The rewrites hollowed out the victims' old homes; clean up to n
	// segments so the reorganizer actually returns free space, as
	// documented.
	_, err := l.cleanPass(n, n+l.lay.nSegments, nil)
	return err
}

// rewriteRun re-homes the blocks of run, at most a segment's worth and all
// with data, at the log's head in the order given: each keeps its
// (possibly compressed) stored form and its checksum. The payloads come
// from one batch (readStoredBatch, without the read-ahead window), which
// checks each against its checksum, so rotted bytes are never laundered
// under a fresh one: a bad copy is healed from a mirror or refused. It
// stops at the first block that does not read, with the error a Read of it
// reports. It sizes bufs to the run and keeps them, each grown to the
// largest run's need, for the next. It returns the requests the read issued
// and the bytes they read. Callers hold l.mu with l.cleaning set.
func (l *LLD) rewriteRun(run []ld.BlockID, bufs *cleanBufs) (reqs, bytes int64, err error) {
	// Every payload is staged before the first append: an append may seal
	// the open segment, whose buffer some of them are served from, and the
	// reader's own buffers do not outlive its callback.
	type staged struct {
		data []byte
		err  error
	}
	got := make([]staged, len(run))
	need := 0
	for _, b := range run {
		need += int(l.blocks[b].stored)
	}
	if cap(bufs.stage) < need {
		bufs.stage = make([]byte, 0, need)
	}
	stage := bufs.stage[:0]
	reqs, bytes = l.readStoredBatch(run, nil, &bufs.ext, func(i int, _ *blockInfo, stored []byte, err error) {
		stage = append(stage, stored...)
		got[i] = staged{stage[len(stage)-len(stored):], err}
	})
	for i, b := range run {
		if got[i].err != nil {
			return reqs, bytes, got[i].err
		}
		bi := &l.blocks[b]
		if err := l.logData(b, got[i].data, int(bi.orig), bi.flags&bComp != 0, bi.crc); err != nil {
			return reqs, bytes, err
		}
	}
	return reqs, bytes, nil
}
