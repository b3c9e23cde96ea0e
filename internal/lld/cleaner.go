package lld

import (
	"errors"
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
// Every metadata fact newer than the newest checkpoint must remain
// derivable from the summaries of live segments, whichever way recovery
// reads them. Before a victim's summary is destroyed, the cleaner re-logs
// (with fresh timestamps) the current value of every field whose newest
// determining record lives in that summary: a tBlockState/tListState
// snapshot for live entities, a tBlockFree/tDelList tombstone for freed
// ones, a tDataAt for data locations. The per-field timestamps kept by noteTuple, the ids the
// summary names (kept in the segment usage table, sumNames) and the
// segment's stamp make the check O(ids the victim names) with no summary
// read back. This is the paper's "removes old logging information ...
// during cleaning" (§3.5) made precise.

// cleanPass is one cleaning pass, the victim loop behind every cleaning
// entry point: the watermark path and the explicit Clean/Reorganize
// commands. It processes victims until target (when non-nil) reports
// satisfied, maxVictims segments (when positive) were cleaned, maxIter
// victims were attempted, or no victim qualifies, and returns how many
// segments it cleaned. Callers hold l.mu with l.cleaning set; the lock is
// not released before it returns.
func (l *LLD) cleanPass(maxVictims, maxIter int, target func() bool) (cleaned int, err error) {
	// skip holds victims set aside by the bootstrap path: segments whose
	// facts could not be re-logged for lack of space. The pass looks past
	// them for a victim whose facts are all superseded.
	var skip map[int]bool
	checkpointed := false // the bootstrap path has tried its one checkpoint
	for iters := 0; iters < maxIter; iters++ {
		if target != nil && target() {
			break
		}
		if maxVictims > 0 && cleaned >= maxVictims {
			break
		}
		before := len(l.freeSegs) + len(l.cooling) + len(l.pendingARU) + len(l.held)
		victim := l.pickVictim(skip)
		if victim < 0 {
			break
		}
		if err := l.cleanSegment(victim); err != nil {
			if errors.Is(err, ld.ErrNoSpace) && len(l.freeSegs) == 0 && l.cur == nil {
				// Bootstrap: no room to re-log this victim's facts and no
				// open segment to hold them. The failure is clean (the
				// first required write already failed). A checkpoint
				// lives outside the log and makes every fact
				// logged so far droppable, so write one — once per pass —
				// and try the same victim again: when every segment holds
				// a fact above the old floor (a mount that found no free
				// segment and owes an abort fence), nothing else can free
				// one.
				if !checkpointed && !l.aruOpen {
					checkpointed = true
					if err := l.checkpoint(); err != nil {
						return cleaned, err
					}
					continue
				}
				// Otherwise set this victim aside and look for one whose
				// facts are all superseded — freeing it needs no space at
				// all.
				if skip == nil {
					skip = make(map[int]bool)
				}
				skip[victim] = true
				continue
			}
			return cleaned, err
		}
		cleaned++
		if len(l.freeSegs)+len(l.cooling)+len(l.pendingARU)+len(l.held) <= before {
			// Fact-bound victim: re-logging its summary cost as much as
			// cleaning freed. A checkpoint makes old facts droppable.
			l.futility++
			if l.futility >= 2 {
				if err := l.checkpoint(); err != nil {
					return cleaned, err
				}
				l.futility = 0
			}
		} else {
			l.futility = 0
		}
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
	return l.cleanPass(n, n+l.lay.nSegments, nil)
}

// pickVictim selects the next segment to clean, or -1 if none qualifies.
// Segments in skip are passed over. There is one rule. A segment with
// nothing live costs nothing to clean — no request, no byte moved — so
// those go first, oldest stamp first. Every other is ranked by benefit over
// what this cleaner pays for it, (1-u)*age/(2u): a victim at utilization u
// frees 1-u of a segment, kept free for as long as its data stayed put
// (age), for reading the live bytes and writing them again. Sprite LFS
// divides by 1+u because its cleaner reads the whole segment; this one reads
// live extents only. The two levels are compared as such, not folded into
// one float. Callers hold l.mu.
func (l *LLD) pickVictim(skip map[int]bool) int {
	best, bestEmpty := -1, false
	var bestScore float64
	dataCap := int64(l.lay.dataCap())
	for i := range l.segs {
		s := &l.segs[i]
		if s.state != segLive || skip[i] || s.live >= dataCap {
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

// sumNames is what a segment's newest summary names: the part of a summary
// the cleaner needs, kept in memory beside the segment's usage-table entry
// so that no victim's summary is read back (DESIGN.md §8 "What the cleaner
// pays"). ids holds three classes, each ascending without duplicates and
// without the nil id: the blocks whose data location a record of the
// summary assigns (every entry, and the tuples that clear or restate one),
// the blocks whose existence or successor pointer a tuple assigns, and the
// lists a tuple assigns a field of. fences are the argument sets of its
// abort fences, in log order.
type sumNames struct {
	ids           []uint32
	nData, nExist int
	fences        [][4]uint32
}

func (n *sumNames) data() []uint32  { return n.ids[:n.nData] }
func (n *sumNames) exist() []uint32 { return n.ids[n.nData : n.nData+n.nExist] }
func (n *sumNames) lists() []uint32 { return n.ids[n.nData+n.nExist:] }

func (n *sumNames) equal(o *sumNames) bool {
	return n.nData == o.nData && n.nExist == o.nExist &&
		slices.Equal(n.ids, o.ids) && slices.Equal(n.fences, o.fences)
}

// newSumNames derives a summary's names from its records. It is the only
// statement of which ids a record names (noteTuple says which field
// timestamps it sets; the two agree class for class). A summary is in memory
// when its segment is sealed, when the recovery sweep has decoded it and
// when ReclaimQuarantined has read its slots, and each of them calls this.
func newSumNames(entries []blockEntry, tuples []tupleRec) *sumNames {
	n := &sumNames{}
	var data, exist, lists []uint32
	for i := range entries {
		data = append(data, uint32(entries[i].bid))
	}
	for i := range tuples {
		t := &tuples[i]
		switch t.kind {
		case tAlloc, tFree:
			// The block itself — existence, membership, successor, and data
			// (none) — and the edge that led to it: the list's head, or the
			// predecessor's successor pointer.
			exist = append(exist, t.args[0])
			data = append(data, t.args[0])
			switch {
			case t.args[4]&1 != 0:
				lists = append(lists, t.args[1])
			case t.kind == tAlloc:
				exist = append(exist, t.args[3])
			default:
				exist = append(exist, t.args[2])
			}
		case tNewList, tDelList, tMoveList, tListState:
			lists = append(lists, t.args[0])
		case tBlockState:
			exist = append(exist, t.args[0])
		case tBlockFree:
			exist = append(exist, t.args[0])
			data = append(data, t.args[0])
		case tDataAt:
			data = append(data, t.args[0])
		case tFence:
			n.fences = append(n.fences, [4]uint32(t.args[:4]))
		}
	}
	data, exist, lists = idSet(data), idSet(exist), idSet(lists)
	n.nData, n.nExist = len(data), len(exist)
	n.ids = make([]uint32, 0, len(data)+len(exist)+len(lists))
	n.ids = append(append(append(n.ids, data...), exist...), lists...)
	return n
}

// idSet sorts ids in place and drops duplicates and the nil id ("no
// predecessor").
func idSet(ids []uint32) []uint32 {
	slices.Sort(ids)
	ids = slices.Compact(ids)
	if len(ids) > 0 && ids[0] == 0 {
		ids = ids[1:]
	}
	return ids
}

// cleanRead is dskRead for the cleaner's reads, counted.
func (l *LLD) cleanRead(p []byte, off int64) error {
	l.stats.CleanReads++
	l.stats.CleanReadBytes += int64(len(p))
	return l.dskRead(p, off)
}

// cleanSegment moves the live blocks out of segment id, re-logs the facts
// whose newest record lives in its summary, and retires it. It works from
// the usage table's copy of what the summary names and reads only the
// extents that hold blocks it is about to move (nextExtent, the verifier's
// rule): a victim with nothing live and nothing to re-log issues no request
// and allocates nothing, and no dead byte farther than deadGapMax from a
// live one is ever transferred — or able to fail the pass. Callers hold l.mu
// with l.cleaning set.
func (l *LLD) cleanSegment(id int) error {
	// What the victim's summary names is in memory for every segment this
	// instance sealed or its mount decoded. Any other was sealed before the
	// newest checkpoint, whose floor holds every fact the summary states
	// (relogSummaryFacts re-logs none of them), and liveIn finds its blocks
	// in the map: no summary is read back.
	names := l.segs[id].names
	if names == nil {
		names = &sumNames{}
	}
	l.victim = id
	defer func() { l.victim = -1 }()

	live := l.liveIn(id, names)
	if len(live) > 0 {
		if err := l.moveLive(id, live); err != nil {
			return err
		}
	}
	l.crashPoint("clean.moved")

	emittedBefore := l.stats.SnapshotTuples
	if err := l.relogSummaryFacts(names, l.segs[id].ts); err != nil {
		return err
	}
	l.crashPoint("clean.relogged")

	if l.segs[id].live != 0 {
		return fmt.Errorf("lld: internal: segment %d retains %d live bytes after cleaning", id, l.segs[id].live)
	}
	l.retireSegment(id)
	l.stats.SegmentsCleaned++
	if len(live) == 0 && l.stats.SnapshotTuples == emittedBefore && l.cur == nil && !l.aruOpen {
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

// liveIn returns the blocks the block-number map still places in segment
// id, ascending; nil when there are none. The ids its summary names cover
// all of them except blocks re-homed here by SwapContents, so the whole map
// is scanned only when their bytes do not add up to the usage table's count.
// Callers hold l.mu.
func (l *LLD) liveIn(id int, names *sumNames) []ld.BlockID {
	var live []ld.BlockID
	var liveBytes int64
	for _, b := range names.data() {
		if int(b) >= len(l.blocks) {
			continue
		}
		if bi := &l.blocks[b]; bi.allocated() && bi.hasData() && int(bi.seg) == id {
			live = append(live, ld.BlockID(b))
			liveBytes += int64(bi.stored)
		}
	}
	if liveBytes != l.segs[id].live {
		live = live[:0]
		for i := 1; i < len(l.blocks); i++ {
			if bi := &l.blocks[i]; bi.allocated() && bi.hasData() && int(bi.seg) == id {
				live = append(live, ld.BlockID(i))
			}
		}
	}
	return live
}

// moveLive copies live, the blocks still in victim id, to the head of the
// log. Callers hold l.mu.
func (l *LLD) moveLive(id int, live []ld.BlockID) error {
	// Cluster: emit live blocks in list order, lists in list-of-lists
	// order (paper §3.5: the cleaner reorders blocks using the list
	// information to improve sequential reads).
	ordered := make([]ld.BlockID, 0, len(live))
	for _, lid := range l.order {
		for b := l.lists[lid].first; b != ld.NilBlock && len(ordered) < len(live); b = l.blocks[b].next {
			if bi := &l.blocks[b]; int(bi.seg) == id && bi.hasData() {
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
	// The buffer keeps the victim's geometry, each extent at its own
	// offset, so moveBlock indexes it by bi.off.
	if l.cleanBuf == nil {
		l.cleanBuf = make([]byte, l.lay.dataCap())
	}
	buf := l.cleanBuf
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
	return nil
}

// relogSummaryFacts re-logs every fact whose newest determining record
// lives in a summary the caller is about to destroy: n is what the summary
// names and stamp its write timestamp, which bounds every record in it.
// Records are absolute per-field assignments, so the check is per field: a
// block's existence/membership (existTS), its successor pointer (linkTS),
// its data location (dataTS), and a list's existence, head, and order
// position. Records are only ever appended to the one open segment, so
// segments hold disjoint timestamp ranges: a field of a named entity that
// is stamped at or below stamp is stamped at or below the summary's newest
// mention of the entity too, which is what the cleaner compared it with
// when it read summaries back (DESIGN.md §8 "What the cleaner pays"). Such
// a field is restated with a fresh timestamp — the paper's "removes old
// logging information ... during cleaning" (§3.5) made precise — unless the
// checkpoint floor covers it: a summary stamped at or below the floor holds
// nothing recovery will replay, and an entity none of whose fields was
// assigned above the floor is in the checkpoint as it stands. Both the
// cleaner (before retiring a victim) and quarantine reclaim (before zeroing
// the evidence slots) rely on it. Ids are visited in ascending order, so
// the emitted timestamps — and the durable image — are the same from run to
// run, which the determinism of the simulations relies on. Callers hold
// l.mu.
func (l *LLD) relogSummaryFacts(n *sumNames, stamp uint64) error {
	floor := l.ckptTS
	if stamp <= floor {
		return nil
	}
	// doomed: some field may have been last assigned by this summary, and
	// the checkpoint does not hold them all.
	doomed := func(fields ...uint64) bool {
		return slices.Min(fields) <= stamp && slices.Max(fields) > floor
	}
	for _, b := range n.exist() {
		if int(b) >= len(l.blocks) {
			continue
		}
		if bi := &l.blocks[b]; !doomed(bi.existTS, bi.linkTS) {
			continue
		}
		if err := l.emitBlockSnap(ld.BlockID(b)); err != nil {
			return err
		}
	}
	for _, v := range n.lists() {
		lid := ld.ListID(v)
		if li, ok := l.lists[lid]; ok {
			if !doomed(li.existTS, li.headTS, li.orderTS) {
				continue
			}
		} else if dl, dead := l.deadLists[lid]; dead && !doomed(dl) {
			continue // a newer tombstone survives, or the checkpoint has it
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
	for _, b := range n.data() {
		if int(b) >= len(l.blocks) {
			continue
		}
		if bi := &l.blocks[b]; !bi.allocated() || !doomed(bi.dataTS) {
			continue
		}
		if err := l.emitDataSnap(ld.BlockID(b)); err != nil {
			return err
		}
	}
	for _, args := range n.fences {
		if uint64(args[2])|uint64(args[3])<<32 <= floor {
			continue // the floor covers the whole dead window
		}
		if err := l.ensureRoom(0, tupleSpace(tFence)); err != nil {
			return err
		}
		l.emitTuple(tFence, args[0], args[1], args[2], args[3])
		l.stats.SnapshotTuples++
	}
	return nil
}

// checkpoint writes a checkpoint (checkpoint.go). It is taken every
// checkpointPeriod seals, early when only held segments would refill the
// free pool (refillFromHeld), when cleaning is futile, and once after a
// mount whose log cannot continue the newest checkpoint's chain. The open
// segment's contents are made durable first (a partial write), so every
// block coordinate the checkpoint records exists on disk; the checkpoint is
// durable before the chain segments it no longer needs are released.
// Callers hold l.mu.
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

// moveBlock copies one live block from the victim's in-memory image into
// the open segment, preserving its (possibly compressed) stored form and
// its checksum. Callers hold l.mu.
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
