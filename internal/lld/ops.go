package lld

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/compress"
	"repro/internal/disk"
	"repro/internal/ld"
)

// Read implements ld.Disk. It returns the number of bytes copied into buf.
//
// Read holds the lock shared, so any number of reads run concurrently
// with each other (and with the other non-mutating commands); the block
// map, the open segment buffer, and sealed segments are all frozen while
// any shared holder is inside. Per-call scratch comes from a pool and the
// statistics counters are updated atomically, keeping the fast path free
// of writes to shared state.
func (l *LLD) Read(b ld.BlockID, buf []byte) (int, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if err := l.checkOpen(); err != nil {
		return 0, err
	}
	scratch := l.getReadBuf()
	defer func() { l.putReadBuf(scratch) }() // readLocked may grow scratch
	return l.readLocked(b, buf, &scratch)
}

// ReadBlocks implements ld.MultiReadDisk: it reads bs[i] into bufs[i],
// reporting each block's outcome in the result entry its individual Read
// would have produced. The whole batch runs under one shared-lock
// acquisition, and its device reads are one request per extent, issued in
// the order the backend serves them soonest (readStoredBatch) — only the
// disk system knows where a logical block lives, so only it can order a
// multi-block read (paper §2). Results come back in the caller's order.
func (l *LLD) ReadBlocks(bs []ld.BlockID, bufs [][]byte) ([]ld.BlockRead, error) {
	if len(bs) != len(bufs) {
		return nil, fmt.Errorf("lld: ReadBlocks: %d blocks but %d buffers", len(bs), len(bufs))
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	if err := l.checkOpen(); err != nil {
		return nil, err
	}
	results := make([]ld.BlockRead, len(bs))
	// The read-ahead window is the foreground reader's: a batch that runs
	// while another holds it reads without read-ahead.
	var ra *raState
	if st, ok := l.ra.claim(); ok {
		ra = &st
		defer func() { l.ra.release(st) }()
	}
	var ext []byte // the batch's extent buffer, dropped when it returns
	l.readStoredBatch(bs, ra, &ext, func(i int, bi *blockInfo, stored []byte, err error) {
		if err == nil && bi.hasData() {
			results[i].N, err = l.deliver(bs[i], bi, stored, bufs[i])
		}
		results[i].Err = err
	})
	atomic.AddInt64(&l.stats.BatchReads, 1)
	atomic.AddInt64(&l.stats.BatchReadBlocks, int64(len(bs)))
	return results, nil
}

// readLocked reads one block into buf using *scratch for stored-bytes
// staging (growing it if the backend needs to). The caller holds the
// shared lock and has checked the instance is open.
func (l *LLD) readLocked(b ld.BlockID, buf []byte, scratch *[]byte) (int, error) {
	bi, err := l.blockAt(b)
	if err != nil {
		return 0, err
	}
	if !bi.hasData() {
		return 0, nil
	}
	stored, err := l.readStoredChecked(b, bi, scratch, false)
	if err != nil {
		return 0, err
	}
	return l.deliver(b, bi, stored, buf)
}

// readStoredChecked is the per-block read: one request for b's sectors, on
// a redundant backend with replica selection and healing (of every leg, not
// only those tried before a good one, if the caller sawBadCopy), and the
// stored bytes it returns (aliasing *scratch or the open segment) match
// bi.crc. Anything else is refused with the CorruptError a Read reports. It
// is the only place a client read counts CorruptReads for the media's sake.
// The caller holds the shared lock and has checked that bi has data.
func (l *LLD) readStoredChecked(b ld.BlockID, bi *blockInfo, scratch *[]byte, sawBadCopy bool) ([]byte, error) {
	seg := l.segOf(bi)
	if seg >= 0 && l.segs[seg].state == segQuarantined {
		atomic.AddInt64(&l.stats.CorruptReads, 1)
		return nil, &CorruptError{Block: b, Seg: seg, Reason: "segment quarantined by recovery"}
	}
	stored, verified, err := l.readStoredVerified(bi, scratch, sawBadCopy)
	if err != nil {
		switch {
		case errors.Is(err, disk.ErrNoValidReplica):
			atomic.AddInt64(&l.stats.CorruptReads, 1)
			return nil, &CorruptError{Block: b, Seg: seg, Reason: "no replica passed verification", Err: err}
		case errors.Is(err, disk.ErrUnreadable):
			atomic.AddInt64(&l.stats.CorruptReads, 1)
			return nil, &CorruptError{Block: b, Seg: seg, Reason: "unreadable sector", Err: err}
		}
		return nil, err
	}
	// Verify the payload checksum end to end unless the bytes are already
	// known good: served from the in-memory open segment (which cannot rot
	// in this model) or proven by a redundant backend's replica selection.
	if !verified && payloadCRC(stored) != bi.crc {
		atomic.AddInt64(&l.stats.CorruptReads, 1)
		return nil, &CorruptError{Block: b, Seg: seg, Reason: "payload checksum mismatch"}
	}
	return stored, nil
}

// deliver hands b's checked stored bytes to the reader: decompressed if they
// were stored compressed (at the modelled CPU cost), copied into buf.
func (l *LLD) deliver(b ld.BlockID, bi *blockInfo, stored, buf []byte) (int, error) {
	atomic.AddInt64(&l.stats.BlocksRead, 1)
	if bi.flags&bComp != 0 {
		out, err := compress.Decompress(make([]byte, 0, bi.orig), stored, int(bi.orig))
		if err != nil {
			// The checksum matched but the compressed stream is
			// undecodable: detectably damaged data either way.
			atomic.AddInt64(&l.stats.CorruptReads, 1)
			return 0, &CorruptError{Block: b, Seg: l.segOf(bi), Reason: "undecodable compressed payload", Err: err}
		}
		l.dsk.AdvanceIdle(l.opts.compressDelay(int(bi.orig)))
		stored = out
	}
	n := copy(buf, stored)
	atomic.AddInt64(&l.stats.UserBytesRead, int64(n))
	return n, nil
}

// readStoredBatch is the multi-block read (ReadBlocks, and rewriteRun for
// the cleaner and Reorganize): it calls yield once per entry of bs, in no
// promised order, with the block's map entry and its stored bytes — checked
// against bi.crc, valid until yield returns — or the error a Read of that
// block reports (bi is nil when the id itself is refused). A block with
// nothing on the platter — no data, an empty payload, a quarantined
// segment, the open segment — is settled from memory. The others are sorted
// by (segment, offset) and cut into extents by the rule every multi-block
// transfer obeys (nextExtent), one request per extent, every block checked
// out of that buffer. Given a read-ahead window (ra, readahead.go), the
// batch plans it in that one platter-order walk: an extent it holds is
// settled at once, and one that continues the stream is given to a window
// read in place of a request of its own. The backend then orders the
// windows and the remaining extents the way it serves them soonest
// (ReadOrder, a what-if query), they are issued in that order, and the
// extents the windows hold are settled last. It returns the requests it
// issued and the bytes they read, per-block reads included.
//
// An extent is a read optimisation and nothing else. It is a plain read:
// one good copy is enough (checking every leg stays with recovery and
// scrub), and its gaps hold live blocks nobody here can vouch for, so no
// verdict on it may rewrite a replica. One that fails to read, and any
// block whose checksum does not match out of it, goes through the per-block
// read (readStoredChecked) at its turn — the only place a replica is
// selected or healed, and rotted bytes on a single platter are refused — so
// each entry is what a Read of that block alone gives. The window is such a
// buffer too. A block alone in an extent the window does not serve takes
// the per-block read directly: the same single request either way.
//
// The caller holds l.mu, shared or exclusive, and has checked the instance
// is open; ra, when not nil, is the window the caller claimed, and *ext the
// extent buffer it owns, grown here to the batch's largest extent. The
// per-block scratch comes from the pool, and the counters move atomically.
func (l *LLD) readStoredBatch(bs []ld.BlockID, ra *raState, ext *[]byte, yield func(i int, bi *blockInfo, stored []byte, err error)) (reqs, bytes int64) {
	scratch := l.getReadBuf()
	defer func() { l.putReadBuf(scratch) }() // the per-block read may grow it
	sw := batchSweep{spans: make([]liveSpan, 0, len(bs)), at: make([]int, 0, len(bs))}
	for i, b := range bs {
		bi, err := l.blockAt(b)
		switch {
		case err != nil:
			yield(i, nil, nil, err)
		case !bi.hasData():
			yield(i, bi, nil, nil)
		case bi.stored == 0 || l.segs[l.segOf(bi)].state == segQuarantined || (l.cur != nil && l.cur.id == l.segOf(bi)):
			stored, err := l.readStoredChecked(b, bi, &scratch, false) // no device request
			yield(i, bi, stored, err)
		default:
			sw.spans = append(sw.spans, l.spanOf(b, bi))
			sw.at = append(sw.at, i)
		}
	}
	if len(sw.spans) == 0 {
		return 0, 0
	}
	sort.Sort(&sw)

	// settle yields the blocks of extent e out of buf, the extent's bytes,
	// or by the per-block read where buf is nil or a checksum fails.
	settle := func(e batchExtent, buf []byte) {
		for j, sp := range sw.spans[e.k : e.k+e.n] {
			bi := &l.blocks[sp.bid]
			if buf != nil {
				if stored := buf[sp.off-e.lo:][:sp.stored]; payloadCRC(stored) == bi.crc {
					yield(sw.at[e.k+j], bi, stored, nil)
					continue
				}
			}
			if e.n > 1 || e.from != fromExtent || e.kept != nil {
				atomic.AddInt64(&l.stats.BatchFallbacks, 1)
			}
			// A mismatch out of buf is a bad copy seen; a failed
			// extent has shown nothing about this block.
			_, span, _ := l.storedSpan(bi)
			reqs, bytes = reqs+1, bytes+int64(span)
			stored, err := l.readStoredChecked(sp.bid, bi, &scratch, buf != nil)
			yield(sw.at[e.k+j], bi, stored, err)
		}
	}
	var fills []raFill
	ss := uint32(l.lay.sectorSize)
	var exts []batchExtent // those left for the backend to order, then those the windows hold
	for k := 0; k < len(sw.spans); {
		end := k + 1 // of this segment's spans
		for end < len(sw.spans) && sw.spans[end].seg == sw.spans[k].seg {
			end++
		}
		for k < end {
			n, lo, hi := nextExtent(sw.spans[k:end], ss)
			e := batchExtent{k: k, n: n, seg: sw.spans[k].seg, lo: lo, hi: hi, from: fromExtent}
			if ra != nil {
				l.place(ra, &fills, &e)
			}
			if e.from == fromWindow {
				atomic.AddInt64(&l.stats.ReadaheadHits, 1)
				settle(e, ra.buf[lo-ra.lo:hi-ra.lo])
			} else {
				exts = append(exts, e)
			}
			k += n
		}
	}
	// One request per extent left, or per window for the extent that
	// planned it, in the walk's platter order; order[i] is that extent.
	var order []int
	var offs []int64
	var lens []int
	for j, e := range exts {
		switch {
		case e.from == fromExtent:
			lo := e.lo + uint32(len(e.kept))
			offs, lens = append(offs, l.lay.segOff(int(e.seg))+int64(lo)), append(lens, int(e.hi-lo))
			if size := int(e.hi - e.lo); (e.n > 1 || e.kept != nil) && len(*ext) < size {
				*ext = make([]byte, size)
			}
		case fills[e.from].by == e.k:
			f := &fills[e.from]
			offs, lens = append(offs, l.lay.segOff(int(f.seg))+int64(f.from)), append(lens, int(f.end-f.from))
		default:
			continue
		}
		order = append(order, j)
	}
	for _, i := range l.dsk.ReadOrder(offs, lens) {
		e := exts[order[i]]
		if e.from >= 0 {
			f := &fills[e.from]
			atomic.AddInt64(&l.stats.ReadaheadWindows, 1)
			reqs, bytes = reqs+1, bytes+int64(lens[i])
			f.ok = l.dskRead(f.buf[f.from-f.lo:f.end-f.lo], offs[i]) == nil
			continue
		}
		var buf []byte // the extent's bytes if they were read
		if e.n > 1 || e.kept != nil {
			if e.n > 1 {
				atomic.AddInt64(&l.stats.BatchExtents, 1)
				atomic.AddInt64(&l.stats.BatchExtentBytes, int64(lens[i]))
			}
			size := int(e.hi - e.lo)
			reqs, bytes = reqs+1, bytes+int64(lens[i])
			if k := copy(*ext, e.kept); l.dskRead((*ext)[k:size], offs[i]) == nil {
				buf = (*ext)[:size]
			}
		}
		settle(e, buf)
	}
	for _, e := range exts {
		if e.from >= 0 {
			var buf []byte
			if f := &fills[e.from]; f.ok {
				if f.by != e.k {
					atomic.AddInt64(&l.stats.ReadaheadHits, 1)
				}
				buf = f.buf[e.lo-f.lo : e.hi-f.lo]
			}
			settle(e, buf)
		}
	}
	if len(fills) > 0 && !fills[len(fills)-1].ok {
		ra.n = 0 // the window is the last fill, and it did not read
	}
	return reqs, bytes
}

// batchExtent is one extent of a batch's sweep: spans [k, k+n) of it, bytes
// [lo, hi) of segment seg's data area, and where its bytes come from
// (LLD.place): the window, a fill of the batch, or a request of its own,
// which reads only what follows kept, the extent's first bytes as the
// window held them.
type batchExtent struct {
	k, n   int
	seg    int32
	lo, hi uint32
	from   int
	kept   []byte
}

// batchSweep is the on-platter part of a batch: the spans to fetch and, in
// step with them, the position in the batch each one answers. A block named
// twice is two spans. Sorting (sort.Interface) puts it in platter order.
type batchSweep struct {
	spans []liveSpan
	at    []int
}

func (s *batchSweep) Len() int           { return len(s.spans) }
func (s *batchSweep) Less(i, j int) bool { return s.spans[i].before(s.spans[j]) }
func (s *batchSweep) Swap(i, j int) {
	s.spans[i], s.spans[j] = s.spans[j], s.spans[i]
	s.at[i], s.at[j] = s.at[j], s.at[i]
}

// Write implements ld.Disk. The block's data is copied into the segment in
// main memory; the segment is written to disk in a single operation when
// full (paper §3.1).
//
// Write is one exclusive hold of the instance lock from validation to the
// installed location; compression and the checksum run inside it (DESIGN.md
// §8 "Why one lock and no goroutine").
func (l *LLD) Write(b ld.BlockID, data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkOpen(); err != nil {
		return err
	}
	bi, err := l.blockAt(b)
	if err != nil {
		return err
	}
	if len(data) > l.lay.maxBlockSize {
		return fmt.Errorf("%w: %d > %d", ld.ErrTooLarge, len(data), l.lay.maxBlockSize)
	}
	store := data
	compressed := false
	if li := l.lists[bi.lid]; li != nil && li.hints.Compress && len(data) >= 64 {
		c := compress.Compress(make([]byte, 0, len(data)), data)
		if len(c) < len(data) {
			store = c
			compressed = true
			l.stats.CompressedBlocks++
		}
		l.compressCPU += l.opts.compressDelay(len(data))
		l.stats.CompressInBytes += int64(len(data))
		l.stats.CompressOutBytes += int64(len(store))
	}
	crc := payloadCRC(store)
	old := int64(0)
	if bi.hasData() {
		old = int64(bi.stored)
	}
	if err := l.chargeSpace(int64(len(store)) - old); err != nil {
		return err
	}
	if err := l.logData(b, store, len(data), compressed, crc); err != nil {
		return err
	}
	l.stats.BlocksWritten++
	l.stats.UserBytesWritten += int64(len(data))
	return nil
}

// chargeSpace enforces the utilization limit, consuming reservation when a
// write would otherwise be refused (paper §2.2: reservations exist so that
// writes cannot fail for lack of space). Callers hold l.mu.
func (l *LLD) chargeSpace(delta int64) error {
	if delta <= 0 {
		return nil
	}
	avail := l.UsableBytes() - l.liveBytes
	if delta <= avail-l.reservedBytes {
		return nil
	}
	if delta <= avail {
		l.reservedBytes = avail - delta
		return nil
	}
	return fmt.Errorf("%w: need %d bytes, %d available", ld.ErrNoSpace, delta, avail)
}

// NewBlock implements ld.Disk.
func (l *LLD) NewBlock(lid ld.ListID, pred ld.BlockID) (ld.BlockID, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkOpen(); err != nil {
		return ld.NilBlock, err
	}
	if _, err := l.listAt(lid); err != nil {
		return ld.NilBlock, err
	}
	if pred != ld.NilBlock {
		pi, err := l.blockAt(pred)
		if err != nil {
			return ld.NilBlock, err
		}
		if pi.lid != lid {
			return ld.NilBlock, fmt.Errorf("%w: predecessor %d not on list %d", ld.ErrNotInList, pred, lid)
		}
	}
	bid, fromPool := l.freeIDs.Pop()
	if !fromPool {
		if l.nextFresh == math.MaxUint32 {
			return ld.NilBlock, fmt.Errorf("%w: out of logical block numbers", ld.ErrNoSpace)
		}
		bid = l.nextFresh
		l.nextFresh++
		l.growBlocks(int(l.nextFresh))
	}
	if err := l.ensureRoom(0, tupleSpace(tAlloc)); err != nil {
		// Roll the number back.
		if fromPool {
			l.freeIDs.Push(bid)
		} else {
			l.nextFresh--
		}
		return ld.NilBlock, err
	}
	l.applyAlloc(bid, lid, pred)
	var head uint32
	if pred == ld.NilBlock {
		head = 1
	}
	l.emitTuple(tAlloc, uint32(bid), uint32(lid), uint32(l.blocks[bid].next), uint32(pred), head)
	return bid, nil
}

// DeleteBlock implements ld.Disk.
func (l *LLD) DeleteBlock(b ld.BlockID, lid ld.ListID, predHint ld.BlockID) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkOpen(); err != nil {
		return err
	}
	bi, err := l.blockAt(b)
	if err != nil {
		return err
	}
	if _, err := l.listAt(lid); err != nil {
		return err
	}
	if bi.lid != lid {
		return fmt.Errorf("%w: block %d is on list %d, not %d", ld.ErrNotInList, b, bi.lid, lid)
	}
	pred, err := l.findPred(b, lid, predHint)
	if err != nil {
		return err
	}
	if err := l.ensureRoom(0, tupleSpace(tFree)); err != nil {
		return err
	}
	succ := bi.next
	var head uint32
	if pred == ld.NilBlock {
		head = 1
	}
	l.applyFree(b, lid, pred)
	l.emitTuple(tFree, uint32(b), uint32(lid), uint32(pred), uint32(succ), head)
	return nil
}

// NewList implements ld.Disk.
func (l *LLD) NewList(predList ld.ListID, hints ld.ListHints) (ld.ListID, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkOpen(); err != nil {
		return ld.NilList, err
	}
	if predList != ld.NilList {
		if _, err := l.listAt(predList); err != nil {
			return ld.NilList, err
		}
	}
	lid, ok := l.freeLists.Pop()
	if !ok {
		lid = l.nextList
		l.nextList++
	}
	if err := l.ensureRoom(0, tupleSpace(tNewList)); err != nil {
		l.freeLists.Push(lid)
		return ld.NilList, err
	}
	l.applyNewList(lid, predList, hints)
	l.emitTuple(tNewList, uint32(lid), uint32(predList), encodeHints(hints))
	return lid, nil
}

// DeleteList implements ld.Disk. All blocks remaining on the list are freed.
func (l *LLD) DeleteList(lid ld.ListID, predHint ld.ListID) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkOpen(); err != nil {
		return err
	}
	if _, err := l.listAt(lid); err != nil {
		return err
	}
	// The list of lists is doubly linked, so unlinking needs no search and
	// the predecessor hint is only checked, for the statistics.
	if l.listPredIs(lid, predHint) {
		l.stats.HintHits++
	} else if predHint != ld.NilList {
		l.stats.HintMisses++
	}
	// Free the blocks one by one with individual tFree tuples. The
	// per-block records matter for recovery: a block's free-ness must be
	// re-derivable per block, which an implied mass-free inside tDelList
	// would not allow.
	li := l.lists[lid]
	for li.first != ld.NilBlock {
		b := li.first
		if err := l.ensureRoom(0, tupleSpace(tFree)); err != nil {
			return err
		}
		succ := l.blocks[b].next
		l.applyFree(b, lid, ld.NilBlock)
		l.emitTuple(tFree, uint32(b), uint32(lid), 0, uint32(succ), 1)
	}
	if err := l.ensureRoom(0, tupleSpace(tDelList)); err != nil {
		return err
	}
	l.applyDelList(lid)
	l.emitTuple(tDelList, uint32(lid))
	return nil
}

// MoveBlocks implements ld.Disk.
func (l *LLD) MoveBlocks(first, last ld.BlockID, srcList, dstList ld.ListID, pred ld.BlockID, srcPredHint ld.BlockID) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkOpen(); err != nil {
		return err
	}
	if _, err := l.listAt(srcList); err != nil {
		return err
	}
	if _, err := l.listAt(dstList); err != nil {
		return err
	}
	if _, err := l.blockAt(first); err != nil {
		return err
	}
	if _, err := l.blockAt(last); err != nil {
		return err
	}
	if _, err := l.validateRun(first, last, srcList); err != nil {
		return err
	}
	if pred != ld.NilBlock {
		pi, err := l.blockAt(pred)
		if err != nil {
			return err
		}
		if pi.lid != dstList {
			return fmt.Errorf("%w: destination predecessor %d not on list %d", ld.ErrNotInList, pred, dstList)
		}
		// Moving a run after one of its own members would corrupt the chain.
		for b := first; ; b = l.blocks[b].next {
			if b == pred {
				return fmt.Errorf("%w: destination predecessor %d inside the moved run", ld.ErrNotInList, pred)
			}
			if b == last {
				break
			}
		}
	}
	srcPred, err := l.findPred(first, srcList, srcPredHint)
	if err != nil {
		return err
	}
	// A move is logged as absolute state snapshots of every field it
	// changed: the run members' list membership and chaining, the spliced
	// predecessors (or list heads) on both sides. The snapshots are
	// grouped into an internal atomic recovery unit so a crash cannot
	// surface a half-moved run. The unit opens before the move is applied:
	// the checkpoint beginARU may take must not capture it.
	internal := !l.aruOpen
	if internal {
		if err := l.beginARU(); err != nil {
			return err
		}
	}
	l.applyMoveBlocks(first, last, srcList, dstList, pred, srcPred)
	emit := func() error {
		for b := first; b != ld.NilBlock; b = l.blocks[b].next {
			if err := l.emitBlockSnap(b); err != nil {
				return err
			}
			if b == last {
				break
			}
		}
		if srcPred != ld.NilBlock {
			if err := l.emitBlockSnap(srcPred); err != nil {
				return err
			}
		}
		if err := l.emitListSnap(srcList); err != nil {
			return err
		}
		if pred != ld.NilBlock {
			if err := l.emitBlockSnap(pred); err != nil {
				return err
			}
		}
		if err := l.emitListSnap(dstList); err != nil {
			return err
		}
		return nil
	}
	err = emit()
	if internal {
		if err == nil {
			err = l.ensureRoom(0, tupleSpace(tCommit))
		}
		l.aruOpen = false
		switch {
		case err == nil:
			l.emitTuple(tCommit)
		case errors.Is(err, errHeldInARU):
			// Only held segments would take the rest of the snapshots. The
			// move is whole in memory, so the checkpoint that releases them
			// captures it, and the snapshots logged so far fall below its
			// floor: a mount either loads it or, finding the older one,
			// discards them with the unit that never committed.
			err = l.checkpoint()
		}
		if err == nil {
			for _, id := range l.pendingARU {
				l.cool(id)
			}
			l.pendingARU = l.pendingARU[:0]
		}
	}
	return err
}

// MoveList implements ld.Disk.
func (l *LLD) MoveList(lid ld.ListID, newPred ld.ListID, predHint ld.ListID) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkOpen(); err != nil {
		return err
	}
	if _, err := l.listAt(lid); err != nil {
		return err
	}
	if newPred != ld.NilList {
		if _, err := l.listAt(newPred); err != nil {
			return err
		}
		if newPred == lid {
			return fmt.Errorf("%w: list %d cannot follow itself", ld.ErrBadList, lid)
		}
	}
	if l.listPredIs(lid, predHint) {
		l.stats.HintHits++
	} else if predHint != ld.NilList {
		l.stats.HintMisses++
	}
	if err := l.ensureRoom(0, tupleSpace(tMoveList)); err != nil {
		return err
	}
	l.applyMoveList(lid, newPred)
	l.emitTuple(tMoveList, uint32(lid), uint32(newPred))
	return nil
}

// FlushList implements ld.Disk: it makes all previous writes to blocks of
// lid durable, providing an easy fsync (paper §2.2). If the open segment
// holds nothing related to the list, it is a no-op.
func (l *LLD) FlushList(lid ld.ListID) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkOpen(); err != nil {
		return err
	}
	if _, err := l.listAt(lid); err != nil {
		return err
	}
	if l.cur == nil || !l.segmentTouchesList(l.cur, lid) {
		return nil
	}
	return l.flushLocked()
}

// segmentTouchesList reports whether the open segment s carries not-yet-
// durable data or tuples involving list lid. Callers hold l.mu.
func (l *LLD) segmentTouchesList(s *openSegment, lid ld.ListID) bool {
	for _, e := range s.entries {
		if e.ts <= s.durableTS {
			continue
		}
		if int(e.bid) < len(l.blocks) && l.blocks[e.bid].lid == lid {
			return true
		}
	}
	for _, t := range s.tuples {
		if t.ts <= s.durableTS {
			continue
		}
		switch t.kind {
		case tAlloc, tFree:
			if ld.ListID(t.args[1]) == lid {
				return true
			}
		case tNewList, tDelList, tMoveList, tListState:
			if ld.ListID(t.args[0]) == lid {
				return true
			}
		}
	}
	return false
}

// BeginARU implements ld.Disk. Concurrent ARUs are not supported, matching
// the paper's prototype interface (§2.2).
func (l *LLD) BeginARU() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkOpen(); err != nil {
		return err
	}
	if l.aruOpen {
		return ld.ErrARUOpen
	}
	return l.beginARU()
}

// EndARU implements ld.Disk. It logs a commit tuple; during recovery all
// records of the unit are applied iff a committed record with an equal or
// later timestamp survives (paper §3.6).
func (l *LLD) EndARU() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkOpen(); err != nil {
		return err
	}
	if !l.aruOpen {
		return ld.ErrNoARU
	}
	if err := l.ensureRoom(0, tupleSpace(tCommit)); err != nil {
		if !errors.Is(err, errHeldInARU) {
			return err
		}
		// Only held segments would take the commit tuple. The unit is
		// whole, so the checkpoint that releases them may capture it, as
		// may the committed records logged on the way there: recovery
		// finds all of it, or, as for any unit whose commit did not land,
		// none.
		l.aruOpen = false
		if err := l.ensureRoom(0, tupleSpace(tCommit)); err != nil {
			l.aruOpen = true
			return err
		}
	}
	l.aruOpen = false // clear first so the commit tuple is tagged committed
	l.emitTuple(tCommit)
	l.stats.ARUs++
	// Segments freed during the unit may now cool; they become reusable
	// once everything logged so far (the commit tuple included) is durable.
	for _, id := range l.pendingARU {
		l.cool(id)
	}
	l.pendingARU = l.pendingARU[:0]
	return nil
}

// Flush implements ld.Disk using the paper's partial-segment strategy
// (§3.2): above the fill threshold the segment is sealed; below it, what
// the segment gained since the last flush is written but the segment keeps
// filling in memory, and the seal later appends the rest (writePartial).
func (l *LLD) Flush(failures ld.FailureSet) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkOpen(); err != nil {
		return err
	}
	if failures == ld.FailNone {
		return nil
	}
	return l.flushLocked()
}

// flushLocked makes the open segment's contents durable: above the fill
// threshold it seals, below it writes a partial image. Success means
// every record previously acknowledged is on the platter (or in NVRAM).
// Callers hold l.mu exclusively.
func (l *LLD) flushLocked() error {
	l.stats.Flushes++
	cur := l.cur
	if cur == nil || (!cur.dirty && len(cur.entries) == 0 && len(cur.tuples) == 0) {
		return nil
	}
	fill := float64(cur.dataOff) / float64(l.lay.dataCap())
	if fill >= flushThreshold {
		if err := l.sealSegment(); err != nil {
			return err
		}
		l.stats.SealsOnFlush++
		return nil
	}
	// NVRAM absorption (§5.3): a small partial segment lands in modeled
	// battery-backed memory instead of costing a disk operation; the
	// normal seal writes those bytes to the disk later.
	return l.writePartial(l.opts.NVRAMBytes > 0 && cur.dataOff+cur.sumSize <= l.opts.NVRAMBytes)
}

// Reserve implements ld.Disk.
func (l *LLD) Reserve(n int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkOpen(); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("lld: negative reservation %d", n)
	}
	need := int64(n) * int64(l.lay.maxBlockSize)
	avail := l.UsableBytes() - l.liveBytes
	if need > avail-l.reservedBytes {
		return fmt.Errorf("%w: cannot reserve %d bytes (%d unreserved)", ld.ErrNoSpace, need, avail-l.reservedBytes)
	}
	l.reservedBytes += need
	return nil
}

// CancelReservation implements ld.Disk.
func (l *LLD) CancelReservation(n int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkOpen(); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("lld: negative reservation %d", n)
	}
	l.reservedBytes -= int64(n) * int64(l.lay.maxBlockSize)
	if l.reservedBytes < 0 {
		l.reservedBytes = 0
	}
	return nil
}

// ReservedBytes reports the outstanding reservation, for tests and tools.
func (l *LLD) ReservedBytes() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.reservedBytes
}

// SwapContents implements ld.Disk (paper §5.4).
func (l *LLD) SwapContents(a, b ld.BlockID) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkOpen(); err != nil {
		return err
	}
	if _, err := l.blockAt(a); err != nil {
		return err
	}
	if _, err := l.blockAt(b); err != nil {
		return err
	}
	if a == b {
		return nil
	}
	// Reserve room for both data-location records up front so they land in
	// the same summary (a swap must not be torn across a segment boundary).
	if err := l.ensureRoom(0, 2*tupleSpace(tDataAt)); err != nil {
		return err
	}
	l.applySwap(a, b)
	if err := l.emitDataSnap(a); err != nil {
		return err
	}
	return l.emitDataSnap(b)
}

// ListBlocks implements ld.Disk. It holds the lock shared: the chain it
// walks cannot change while any reader is inside.
func (l *LLD) ListBlocks(lid ld.ListID) ([]ld.BlockID, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if err := l.checkOpen(); err != nil {
		return nil, err
	}
	li, err := l.listAt(lid)
	if err != nil {
		return nil, err
	}
	out := make([]ld.BlockID, 0, li.count)
	for b := li.first; b != ld.NilBlock; b = l.blocks[b].next {
		out = append(out, b)
	}
	return out, nil
}

// ListIndex implements ld.Disk: offset addressing into a list (paper §5.4).
// It runs under the shared lock; the cursor memo is the one thing it
// writes, so cursor access goes through cursorMu (mutators, which hold the
// lock exclusively, touch cursors directly — the two can never overlap).
func (l *LLD) ListIndex(lid ld.ListID, i int) (ld.BlockID, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if err := l.checkOpen(); err != nil {
		return ld.NilBlock, err
	}
	li, err := l.listAt(lid)
	if err != nil {
		return ld.NilBlock, err
	}
	if i < 0 || i >= li.count {
		return ld.NilBlock, fmt.Errorf("%w: index %d out of range (list has %d blocks)", ld.ErrBadBlock, i, li.count)
	}
	// Resume from the memoized cursor when it helps; sequential scans and
	// repeated lookups become O(1) amortized. Any cursor set under the
	// shared lock describes the same frozen chain, so a stale-looking memo
	// from a concurrent reader is still correct to resume from.
	b := li.first
	step := i
	l.cursorMu.Lock()
	if li.curBlk != ld.NilBlock && li.curIdx <= i {
		b = li.curBlk
		step = i - li.curIdx
	}
	l.cursorMu.Unlock()
	for ; step > 0; step-- {
		b = l.blocks[b].next
	}
	l.cursorMu.Lock()
	li.curIdx, li.curBlk = i, b
	l.cursorMu.Unlock()
	return b, nil
}

// Lists implements ld.Disk.
func (l *LLD) Lists() ([]ld.ListID, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if err := l.checkOpen(); err != nil {
		return nil, err
	}
	return l.listOrder(), nil
}

// ListCount returns the number of blocks on lid, for tests and tools.
func (l *LLD) ListCount(lid ld.ListID) (int, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	li, err := l.listAt(lid)
	if err != nil {
		return 0, err
	}
	return li.count, nil
}

// ListHints returns the hints lid was created with.
func (l *LLD) ListHints(lid ld.ListID) (ld.ListHints, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	li, err := l.listAt(lid)
	if err != nil {
		return ld.ListHints{}, err
	}
	return li.hints, nil
}

// BlockSize implements ld.Disk.
func (l *LLD) BlockSize(b ld.BlockID) (int, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if err := l.checkOpen(); err != nil {
		return 0, err
	}
	bi, err := l.blockAt(b)
	if err != nil {
		return 0, err
	}
	return int(bi.orig), nil
}

// Shutdown implements ld.Disk. A clean shutdown seals the open segment and
// writes the state to the checkpoint region with a validity marker (paper
// §3.6); an unclean one discards the in-memory state, simulating a crash of
// the host (the disk itself is untouched). A clean Shutdown refused with
// ErrARUOpen has no effect.
func (l *LLD) Shutdown(clean bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkOpen(); err != nil {
		return err
	}
	if !clean {
		l.shut = true
		return nil
	}
	if l.aruOpen {
		return ld.ErrARUOpen
	}
	// The complete checkpoint is what lets the next boot skip the sweep.
	// Its payload goes on in the open segment, which it seals, and it is on
	// the platter, not in a volatile write cache, with everything it
	// describes before we report clean.
	if err := l.writeCheckpoint(true, false); err != nil {
		return err
	}
	l.shut = true
	return nil
}
