package lld

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/compress"
	"repro/internal/disk"
	"repro/internal/ld"
)

// The cleaner produces empty segments by moving the live blocks out of
// mostly-dead segments (paper §3.5). Victims are chosen greedily by fewest
// live bytes or by Rosenblum & Ousterhout's cost-benefit formula. While
// copying, the cleaner uses the list information to reorder blocks into
// list order, improving sequential read performance — the paper's
// "simplistic clustering strategy".
//
// Because LLD keeps no checkpoints, every metadata fact must remain
// derivable from the summaries of live segments. Before a victim's summary
// is destroyed, the cleaner re-logs (with fresh timestamps) the current
// value of every field whose newest determining record lives in that
// summary: a tBlockState/tListState snapshot for live entities, a
// tBlockFree/tDelList tombstone for freed ones, a tDataAt for data
// locations. The per-field timestamps kept by noteTuple make the check
// O(records in the victim). This is the paper's "removes old logging
// information ... during cleaning" (§3.5) made precise.

// cleanPass carries the state of one cleaning pass across cleanSome calls,
// so a pass split into lock-released steps (the background cleaner) walks
// the identical victim sequence a single uninterrupted call would.
type cleanPass struct {
	// skip holds victims set aside by the bootstrap path: segments whose
	// facts could not be re-logged for lack of space. The pass looks past
	// them for a victim whose facts are all superseded.
	skip map[int]bool

	consolidated bool // the bootstrap path has tried its one consolidation

	iters   int // victim attempts so far (bounds the pass)
	maxIter int
	cleaned int // segments successfully cleaned
}

// cleanSome is the shared victim loop behind every cleaning entry point:
// the watermark path, the explicit Clean/Reorganize commands, and the
// background goroutine. It processes victims until target (when non-nil)
// reports satisfied, maxVictims segments (when positive) were cleaned in
// this call, the pass's attempt budget runs out, or no victim qualifies.
// finished is false only when the maxVictims bound stopped the call with
// the pass still unfinished. Callers hold l.mu with l.cleaning set.
func (l *LLD) cleanSome(p *cleanPass, maxVictims int, target func() bool) (finished bool, err error) {
	done := 0
	for {
		if target != nil && target() {
			return true, nil
		}
		if maxVictims > 0 && done >= maxVictims {
			return false, nil
		}
		if p.iters >= p.maxIter {
			return true, nil
		}
		p.iters++
		before := len(l.freeSegs) + len(l.cooling) + len(l.pendingARU)
		victim := l.pickVictim(p.skip)
		if victim < 0 {
			return true, nil
		}
		if err := l.cleanSegment(victim); err != nil {
			if errors.Is(err, ld.ErrNoSpace) && len(l.freeSegs) == 0 && l.cur == nil {
				// Bootstrap: no room to re-log this victim's facts and no
				// open segment to hold them. The failure is clean (the
				// first required write already failed). A consolidation
				// checkpoint lives outside the log and makes every fact
				// logged so far droppable, so write one — once per pass —
				// and try the same victim again: when every segment holds
				// a fact above the old floor (a mount that found no free
				// segment and owes an abort fence), nothing else can free
				// one.
				if !p.consolidated && !l.aruOpen {
					p.consolidated = true
					if err := l.consolidate(); err != nil {
						return true, err
					}
					continue
				}
				// Otherwise set this victim aside and look for one whose
				// facts are all superseded — freeing it needs no space at
				// all.
				if p.skip == nil {
					p.skip = make(map[int]bool)
				}
				p.skip[victim] = true
				continue
			}
			return true, err
		}
		p.cleaned++
		done++
		if len(l.freeSegs)+len(l.cooling)+len(l.pendingARU) <= before {
			// Fact-bound victim: re-logging its summary cost as much as
			// cleaning freed. Consolidate so old facts become droppable.
			l.futility++
			if l.futility >= 2 {
				if err := l.consolidate(); err != nil {
					return true, err
				}
				l.futility = 0
			}
		} else {
			l.futility = 0
		}
	}
}

// watermarkTarget reports whether the free pool (counting cooling and
// ARU-pending segments, which become free without further cleaning) has
// reached the high watermark. Callers hold l.mu.
func (l *LLD) watermarkTarget() bool {
	return len(l.freeSegs)+len(l.cooling)+len(l.pendingARU) >= l.opts.CleanHigh
}

// maybeClean runs the cleaner if the free-segment pool is at or below the
// low watermark. With a background cleaner attached it only signals the
// goroutine — the caller proceeds on the segments still free and blocks
// (in awaitFreeSegment) only when truly out. Callers hold l.mu.
func (l *LLD) maybeClean() error {
	if l.cleaning {
		return nil
	}
	if len(l.freeSegs)+len(l.cooling) > l.opts.CleanLow {
		return nil
	}
	if l.bg != nil {
		l.bg.signal()
		return nil
	}
	return l.cleanInline()
}

// cleanInline runs a whole watermark pass to completion under the held
// lock — the synchronous path. Callers hold l.mu with l.cleaning unset.
func (l *LLD) cleanInline() error {
	l.cleaning = true
	defer func() { l.cleaning = false }()
	l.stats.CleanerRuns++
	p := cleanPass{maxIter: 8 * l.opts.CleanHigh}
	_, err := l.cleanSome(&p, 0, l.watermarkTarget)
	return err
}

// Clean runs one cleaning pass explicitly (used by tools, benchmarks and
// the idle reorganizer). It cleans up to n segments and returns how many
// it cleaned. Like the watermark path it sets fact-bound victims aside
// (the bootstrap skip path) instead of failing when the disk is too tight
// to re-log their facts, so it makes progress wherever maybeClean would.
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
	p := cleanPass{maxIter: n + l.lay.nSegments}
	_, err := l.cleanSome(&p, n, nil)
	return p.cleaned, err
}

// pickVictim selects the next segment to clean, or -1 if none qualifies.
// Segments in skip are passed over. Callers hold l.mu.
func (l *LLD) pickVictim(skip map[int]bool) int {
	best := -1
	var bestKey float64
	for i := range l.segs {
		s := &l.segs[i]
		if s.state != segLive || skip[i] {
			continue
		}
		u := float64(s.live) / float64(l.lay.dataCap())
		if u >= 1 {
			continue // nothing to gain
		}
		var key float64
		switch l.opts.Policy {
		case PolicyCostBenefit:
			age := float64(l.ts-s.ts) + 1
			key = (1 - u) * age / (1 + u)
		default: // greedy: fewest live bytes; prefer older on ties
			key = -float64(s.live) - float64(s.ts)/float64(l.ts+1)
		}
		if best < 0 || key > bestKey {
			best, bestKey = i, key
		}
	}
	return best
}

// cleanRead is dskRead for the cleaner's victim reads, counted.
func (l *LLD) cleanRead(p []byte, off int64) error {
	l.stats.CleanReads++
	l.stats.CleanReadBytes += int64(len(p))
	return l.dskRead(p, off)
}

// cleanSegment moves the live blocks out of segment id, re-logs the facts
// whose newest record lives in its summary, and retires it. It reads the
// victim's two summary slots first and then only the extents that hold
// blocks it is about to move (nextExtent, the verifier's rule), so a victim
// with nothing live costs one small request and no dead byte farther than
// deadGapMax from a live one is ever transferred — or able to fail the
// pass. Callers hold l.mu with l.cleaning set.
func (l *LLD) cleanSegment(id int) error {
	if l.cleanBuf == nil {
		l.cleanBuf = make([]byte, l.lay.segmentSize)
	}
	// The buffer keeps the victim's geometry: summaries at its tail, each
	// extent at its own offset, so moveBlock indexes it by bi.off.
	buf := l.cleanBuf
	if err := l.cleanRead(buf[l.lay.dataCap():], l.lay.sumOff(id, 0)); err != nil {
		return err
	}
	si, err := decodeNewestSummary(buf[l.lay.dataCap():], l.lay, id)
	if err != nil {
		return fmt.Errorf("lld: cleaning live segment %d: %w", id, err)
	}

	// Live blocks: everything the block-number map still places in this
	// segment. The summary's own entries cover all of them except blocks
	// re-homed here by SwapContents; a full map scan is only needed when
	// the entry-derived accounting disagrees with the usage table.
	live := make(map[ld.BlockID]bool)
	var liveBytes int64
	for _, e := range si.entries {
		if int(e.bid) >= len(l.blocks) {
			continue
		}
		bi := &l.blocks[e.bid]
		if bi.allocated() && bi.hasData() && int(bi.seg) == id && bi.off == e.off && !live[e.bid] {
			live[e.bid] = true
			liveBytes += int64(bi.stored)
		}
	}
	if liveBytes != l.segs[id].live {
		live = make(map[ld.BlockID]bool)
		for i := 1; i < len(l.blocks); i++ {
			bi := &l.blocks[i]
			if bi.allocated() && bi.hasData() && int(bi.seg) == id {
				live[ld.BlockID(i)] = true
			}
		}
	}

	// Cluster: emit live blocks in list order, lists in list-of-lists
	// order (paper §3.5: the cleaner reorders blocks using the list
	// information to improve sequential reads).
	var ordered []ld.BlockID
	if len(live) > 0 {
		seen := 0
		for _, lid := range l.order {
			li := l.lists[lid]
			for b := li.first; b != ld.NilBlock && seen < len(live); b = l.blocks[b].next {
				if bi := &l.blocks[b]; int(bi.seg) == id && bi.hasData() {
					ordered = append(ordered, b)
					seen++
				}
			}
			if seen == len(live) {
				break
			}
		}
		if seen < len(live) { // defensive: unreachable chain members
			for b := range live {
				found := false
				for _, o := range ordered {
					if o == b {
						found = true
						break
					}
				}
				if !found {
					ordered = append(ordered, b)
					l.stats.RecoveryAnomalies++
				}
			}
		}
	}

	// Read exactly the blocks moveBlock is about to be handed, in platter
	// order, so none can be served from a region this pass did not read.
	spans := make([]liveSpan, len(ordered))
	for i, bid := range ordered {
		bi := &l.blocks[bid]
		spans[i] = liveSpan{bid: bid, seg: bi.seg, off: bi.off, stored: bi.stored}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].off < spans[j].off })
	for len(spans) > 0 {
		n, lo, hi := nextExtent(spans, uint32(l.lay.sectorSize))
		spans = spans[n:]
		if hi > 0 {
			if err := l.cleanRead(buf[lo:hi], l.lay.segOff(id)+int64(lo)); err != nil {
				return err
			}
		}
	}
	for _, bid := range ordered {
		if err := l.moveBlock(bid, buf); err != nil {
			return err
		}
	}
	l.crashPoint("clean.moved")

	emittedBefore := l.stats.SnapshotTuples
	if err := l.relogSummaryFacts(si); err != nil {
		return err
	}
	l.crashPoint("clean.relogged")

	if l.segs[id].live != 0 {
		return fmt.Errorf("lld: internal: segment %d retains %d live bytes after cleaning", id, l.segs[id].live)
	}
	l.retireSegment(id)
	l.stats.SegmentsCleaned++
	if len(ordered) == 0 && l.stats.SnapshotTuples == emittedBefore && l.cur == nil && !l.aruOpen {
		// Nothing was moved and nothing re-logged: every fact in this
		// summary is superseded by records in sealed segments (no open
		// segment means no winner still in memory), so the cooling rule has
		// no later write to wait for — only, on a backend with a volatile
		// cache, the drain that puts those winners on the platter. Release
		// it now. This is also what lets recovery bootstrap cleaning on a
		// disk whose every segment carries a (stale) summary.
		l.releaseCooling()
	}
	return nil
}

// relogSummaryFacts re-logs every fact whose newest determining record
// lives in the given summary, which the caller is about to destroy.
// Records are absolute per-field assignments, so the check is per
// field: a block's existence/membership (existTS), its successor
// pointer (linkTS), its data location (dataTS), and a list's existence,
// head, and order position. If the doomed summary holds the newest
// record for a field, that field is restated with a fresh timestamp —
// this is the paper's "removes old logging information ... during
// cleaning" (§3.5) made precise. Both the cleaner (before retiring a
// victim) and quarantine reclaim (before zeroing the evidence slots)
// rely on it. Callers hold l.mu.
func (l *LLD) relogSummaryFacts(si *summaryInfo) error {
	mExist := make(map[ld.BlockID]uint64)
	mLink := make(map[ld.BlockID]uint64)
	mData := make(map[ld.BlockID]uint64)
	mList := make(map[ld.ListID]uint64)
	var fences [][7]uint32
	noteMax := func(m map[ld.BlockID]uint64, b uint32, ts uint64) {
		if b != 0 && ts > m[ld.BlockID(b)] {
			m[ld.BlockID(b)] = ts
		}
	}
	noteList := func(v uint32, ts uint64) {
		if v != 0 && ts > mList[ld.ListID(v)] {
			mList[ld.ListID(v)] = ts
		}
	}
	for _, e := range si.entries {
		noteMax(mData, uint32(e.bid), e.ts)
	}
	for _, t := range si.tuples {
		switch t.kind {
		case tAlloc:
			noteMax(mExist, t.args[0], t.ts)
			noteMax(mLink, t.args[0], t.ts)
			noteMax(mData, t.args[0], t.ts)
			if t.args[4]&1 != 0 {
				noteList(t.args[1], t.ts)
			} else {
				noteMax(mLink, t.args[3], t.ts)
			}
		case tFree:
			noteMax(mExist, t.args[0], t.ts)
			noteMax(mLink, t.args[0], t.ts)
			noteMax(mData, t.args[0], t.ts)
			if t.args[4]&1 != 0 {
				noteList(t.args[1], t.ts)
			} else {
				noteMax(mLink, t.args[2], t.ts)
			}
		case tNewList, tDelList, tMoveList, tListState:
			noteList(t.args[0], t.ts)
		case tBlockState:
			noteMax(mExist, t.args[0], t.ts)
			noteMax(mLink, t.args[0], t.ts)
		case tBlockFree:
			noteMax(mExist, t.args[0], t.ts)
			noteMax(mLink, t.args[0], t.ts)
			noteMax(mData, t.args[0], t.ts)
		case tDataAt:
			noteMax(mData, t.args[0], t.ts)
		case tFence:
			// An abort fence lives only in summaries; it must survive the
			// victim's destruction unless a checkpoint floor covers the
			// entire dead window.
			if uint64(t.args[2])|uint64(t.args[3])<<32 > l.ckptTS {
				fences = append(fences, t.args)
			}
		}
	}
	// Merge the exist/link aspects: a tBlockState (or tombstone) restates
	// both at once.
	for bid, ts := range mLink {
		if ts > mExist[bid] {
			mExist[bid] = ts
		}
	}
	// Re-log in sorted id order: map iteration order would otherwise make
	// the emitted timestamps — and so the durable image — vary from run to
	// run, which breaks the byte-identical equivalence the background
	// cleaner (and the determinism of the simulations) relies on.
	sortedBlocks := func(m map[ld.BlockID]uint64) []ld.BlockID {
		ids := make([]ld.BlockID, 0, len(m))
		for bid := range m {
			ids = append(ids, bid)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}
	for _, bid := range sortedBlocks(mExist) {
		m := mExist[bid]
		if int(bid) >= len(l.blocks) || m <= l.ckptTS {
			continue // out of range, or covered by the checkpoint
		}
		bi := &l.blocks[bid]
		if bi.existTS > m && bi.linkTS > m {
			continue // newer records exist in other live segments
		}
		if err := l.emitBlockSnap(bid); err != nil {
			return err
		}
	}
	lids := make([]ld.ListID, 0, len(mList))
	for lid := range mList {
		lids = append(lids, lid)
	}
	sort.Slice(lids, func(i, j int) bool { return lids[i] < lids[j] })
	for _, lid := range lids {
		m := mList[lid]
		if m <= l.ckptTS {
			continue
		}
		li, ok := l.lists[lid]
		if ok && li.existTS > m && li.headTS > m && li.orderTS > m {
			continue
		}
		if !ok {
			if dl, dead := l.deadLists[lid]; dead && dl > m {
				continue // a newer tombstone survives in another segment
			}
		}
		if err := l.emitListSnap(lid); err != nil {
			return err
		}
	}
	// Data-location facts: a block whose newest data record (an entry here,
	// a swap, or a prior tDataAt) lives in this summary but whose data
	// lives elsewhere needs its coordinates restated, or recovery would
	// misplace it. Blocks whose data was in this segment were just moved
	// (fresh entries) and fail the dataTS check.
	for _, bid := range sortedBlocks(mData) {
		m := mData[bid]
		if int(bid) >= len(l.blocks) || m <= l.ckptTS {
			continue
		}
		bi := &l.blocks[bid]
		if !bi.allocated() || bi.dataTS > m {
			continue
		}
		if err := l.emitDataSnap(bid); err != nil {
			return err
		}
	}
	for _, args := range fences {
		if err := l.ensureRoom(0, tupleSpace(tFence)); err != nil {
			return err
		}
		l.emitTuple(tFence, args[0], args[1], args[2], args[3])
		l.stats.SnapshotTuples++
	}
	return nil
}

// consolidate writes a consolidation checkpoint: the open segment's
// contents are made durable first (a partial write), so every block
// coordinate the checkpoint records exists on disk. Callers hold l.mu.
func (l *LLD) consolidate() error {
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
	l.crashPoint("consolidate")
	l.stats.Consolidations++
	return l.writeCheckpoint(false)
}

// moveBlock copies one live block from the victim's in-memory image into
// the open segment, preserving its (possibly compressed) stored form. With
// CompressOnClean, raw blocks of Compress-hinted lists are compressed here
// — they are cold by definition, which is the §3.3 alternative strategy.
// Callers hold l.mu.
// moveBlock relocates one live block out of the victim segment. It runs
// under mu exclusive and takes no block-map stripe locks: relocation
// changes only the block's physical placement, and an in-flight write
// window on the same block re-reads placement under mu at its apply
// phase, so it observes the move (see shard.go for the discipline).
func (l *LLD) moveBlock(bid ld.BlockID, victimBuf []byte) error {
	bi := &l.blocks[bid]
	data := victimBuf[bi.off : bi.off+bi.stored]
	// Never relocate rotted bytes: a mismatch here would otherwise be
	// laundered into a fresh segment under a recomputed checksum. The
	// victim's extents were plain reads, so on a redundant backend each
	// came from a single replica — retry the block's span with replica
	// selection (healing the bad copy) before giving up.
	if payloadCRC(data) != bi.crc {
		fixed := false
		if _, isMulti := l.dsk.(disk.MultiReader); isMulti {
			if good, verified, err := l.readStoredVerified(bi, &l.scratch, false); err == nil && verified {
				data = append([]byte(nil), good...)
				fixed = true
			}
		}
		if !fixed {
			l.stats.CorruptReads++
			return &CorruptError{Block: bid, Seg: int(bi.seg), Reason: "payload checksum mismatch during cleaning"}
		}
	}
	compressedNow := bi.flags&bComp != 0
	if l.opts.CompressOnClean && !compressedNow && int(bi.stored) >= 64 {
		if li := l.lists[bi.lid]; li != nil && li.hints.Compress {
			c := compress.Compress(make([]byte, 0, len(data)), data)
			l.compressCPU += l.opts.compressDelay(len(data))
			if len(c) < len(data) {
				data = c
				compressedNow = true
				l.stats.CleanCompress++
			}
		}
	}
	if err := l.ensureRoom(len(data), blockEntryEncSize); err != nil {
		return err
	}
	bi = &l.blocks[bid] // re-fetch after potential reentrancy
	off := l.appendData(data)
	flags := uint8(0)
	if compressedNow {
		flags |= entryCompressed
	}
	if !l.aruOpen {
		flags |= entryCommitted
	}
	crc := bi.crc
	if compressedNow != (bi.flags&bComp != 0) {
		crc = payloadCRC(data) // stored form changed (compressed on clean)
	}
	l.addEntry(blockEntry{
		bid:    bid,
		ts:     l.nextTS(),
		off:    uint32(off),
		stored: uint32(len(data)),
		orig:   bi.orig,
		crc:    crc,
		flags:  flags,
	})
	l.applySetData(bid, l.cur.id, off, len(data), int(bi.orig), compressedNow, crc)
	l.stats.BlocksMoved++
	return nil
}

// Reorganize is the idle-time disk reorganizer (paper §3.5): it rewrites
// the blocks of cluster-hinted lists in list order so sequential reads hit
// sequential disk locations, then cleans up to n segments. It is invoked
// explicitly (during idle periods) rather than from a background goroutine
// so simulations stay deterministic.
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
	p := cleanPass{maxIter: n + l.lay.nSegments}
	_, err := l.cleanSome(&p, n, nil)
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
		data := got[i].data
		if err := l.ensureRoom(len(data), blockEntryEncSize); err != nil {
			return err
		}
		bi := &l.blocks[b]
		off := l.appendData(data)
		flags := uint8(entryCommitted)
		if bi.flags&bComp != 0 {
			flags |= entryCompressed
		}
		l.addEntry(blockEntry{bid: b, ts: l.nextTS(), off: uint32(off), stored: bi.stored, orig: bi.orig, crc: bi.crc, flags: flags})
		l.applySetData(b, l.cur.id, off, int(bi.stored), int(bi.orig), bi.flags&bComp != 0, bi.crc)
	}
	return nil
}
