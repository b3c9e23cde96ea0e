package lld

import (
	"fmt"

	"repro/internal/ld"
)

// This file contains the running instance's state transitions on the
// block-number map, the list table, and the segment usage table. They
// perform no validation and emit no tuples; the public operations validate
// and log. Recovery does not call them: a logged record states absolute
// field values, not the operation that produced them, and replayTuple
// (recovery.go) stores those values into the same map and list table.

// applyAlloc allocates bid into list lid after pred (NilBlock = at head).
func (l *LLD) applyAlloc(bid ld.BlockID, lid ld.ListID, pred ld.BlockID) {
	bi := &l.blocks[bid]
	*bi = blockInfo{lid: lid, flags: bAllocated}
	li := l.lists[lid]
	if pred == ld.NilBlock {
		bi.next = li.first
		li.first = bid
	} else {
		pi := &l.blocks[pred]
		bi.next = pi.next
		pi.next = bid
	}
	li.count++
	li.curBlk = ld.NilBlock
}

// applyUnlink removes bid from list lid given its resolved predecessor
// (NilBlock if bid is the head). It does not free storage or the number.
func (l *LLD) applyUnlink(bid ld.BlockID, lid ld.ListID, pred ld.BlockID) {
	bi := &l.blocks[bid]
	li := l.lists[lid]
	if pred == ld.NilBlock {
		li.first = bi.next
	} else {
		l.blocks[pred].next = bi.next
	}
	bi.next = ld.NilBlock
	li.count--
	li.curBlk = ld.NilBlock
}

// applyFreeStorage releases bid's stored bytes from the usage accounting.
func (l *LLD) applyFreeStorage(bi *blockInfo) {
	if bi.hasData() {
		l.unmap(bi)
	}
	bi.clearData()
}

// unmap takes bi, which has data, off its segment's usage and its bytes off
// the live total. A segment left holding no block forgets its summary's
// names: none of them is there any more for the cleaner to find (liveIn).
func (l *LLD) unmap(bi *blockInfo) {
	s := &l.segs[l.segOf(bi)]
	s.live -= int64(bi.stored)
	if s.mapped--; s.mapped == 0 {
		s.names = nil
	}
	l.liveBytes -= int64(bi.stored)
}

// applyFree unlinks bid from lid, frees its storage, and recycles its
// number.
func (l *LLD) applyFree(bid ld.BlockID, lid ld.ListID, pred ld.BlockID) {
	l.applyUnlink(bid, lid, pred)
	bi := &l.blocks[bid]
	l.applyFreeStorage(bi)
	bi.flags = 0
	bi.lid = ld.NilList
	l.freeIDs.Push(bid)
}

// applySetData installs a new physical location for bid's data, adjusting
// the usage accounting for both the old and new segments.
func (l *LLD) applySetData(bid ld.BlockID, seg int, off, stored, orig int, compressed bool, crc uint32) {
	bi := &l.blocks[bid]
	if bi.hasData() {
		l.unmap(bi)
	}
	bi.setData(l.lay.pack(seg, uint32(off)), uint32(stored), uint32(orig), compressed, crc)
	l.segs[seg].live += int64(stored)
	l.segs[seg].mapped++
	l.liveBytes += int64(stored)
}

// applyNewList creates list lid after predLid in the list of lists
// (NilList = at the front).
func (l *LLD) applyNewList(lid ld.ListID, predLid ld.ListID, hints ld.ListHints) {
	li := &listInfo{id: lid, hints: hints}
	l.linkListAfter(li, l.lists[predLid])
	l.lists[lid] = li
}

// applyDelList removes lid and frees every block remaining on it.
func (l *LLD) applyDelList(lid ld.ListID) {
	li := l.lists[lid]
	for b := li.first; b != ld.NilBlock; {
		bi := &l.blocks[b]
		next := bi.next
		l.applyFreeStorage(bi)
		bi.flags = 0
		bi.next = ld.NilBlock
		bi.lid = ld.NilList
		l.freeIDs.Push(b)
		b = next
	}
	l.unlinkList(li)
	delete(l.lists, lid)
	l.freeLists.Push(lid)
}

// applyMoveBlocks splices the run [first,last] out of src (whose resolved
// predecessor of first is srcPred) and inserts it after pred in dst.
func (l *LLD) applyMoveBlocks(first, last ld.BlockID, src, dst ld.ListID, pred, srcPred ld.BlockID) {
	srcLi := l.lists[src]
	dstLi := l.lists[dst]
	// Count and retag the run.
	n := 0
	for b := first; ; b = l.blocks[b].next {
		l.blocks[b].lid = dst
		n++
		if b == last {
			break
		}
	}
	after := l.blocks[last].next
	// Detach from src.
	if srcPred == ld.NilBlock {
		srcLi.first = after
	} else {
		l.blocks[srcPred].next = after
	}
	srcLi.count -= n
	srcLi.curBlk = ld.NilBlock
	dstLi.curBlk = ld.NilBlock
	// Attach to dst.
	if pred == ld.NilBlock {
		l.blocks[last].next = dstLi.first
		dstLi.first = first
	} else {
		l.blocks[last].next = l.blocks[pred].next
		l.blocks[pred].next = first
	}
	dstLi.count += n
}

// applyMoveList repositions lid after newPred in the list of lists.
func (l *LLD) applyMoveList(lid, newPred ld.ListID) {
	li := l.lists[lid]
	l.unlinkList(li)
	l.linkListAfter(li, l.lists[newPred])
}

// applySwap exchanges the physical contents of two blocks.
func (l *LLD) applySwap(a, b ld.BlockID) {
	ai, bi := &l.blocks[a], &l.blocks[b]
	ai.loc, bi.loc = bi.loc, ai.loc
	ai.stored, bi.stored = bi.stored, ai.stored
	ai.orig, bi.orig = bi.orig, ai.orig
	ai.crc, bi.crc = bi.crc, ai.crc
	ac := ai.flags & (bHasData | bComp)
	bc := bi.flags & (bHasData | bComp)
	ai.flags = ai.flags&^(bHasData|bComp) | bc
	bi.flags = bi.flags&^(bHasData|bComp) | ac
}

// The list of lists is relinked only by these two, in the running instance
// and in recovery's replay alike, so the two cannot disagree on where a list
// lands.

// unlinkList takes li, which is linked, out of the list of lists.
func (l *LLD) unlinkList(li *listInfo) {
	if li.prev == nil {
		l.head = li.next
	} else {
		li.prev.next = li.next
	}
	if li.next == nil {
		l.tail = li.prev
	} else {
		li.next.prev = li.prev
	}
	li.prev, li.next = nil, nil
}

// linkListAfter links li, which is not linked, just after pred, or at the
// front when pred is nil (a NilList or absent predecessor).
func (l *LLD) linkListAfter(li, pred *listInfo) {
	li.prev = pred
	if pred == nil {
		li.next = l.head
		l.head = li
	} else {
		li.next = pred.next
		pred.next = li
	}
	if li.next == nil {
		l.tail = li
	} else {
		li.next.prev = li
	}
}

// listPredIs reports whether pred, not NilList, is the list just before lid
// in the list of lists.
func (l *LLD) listPredIs(lid, pred ld.ListID) bool {
	p := l.lists[lid].prev
	return p != nil && p.id == pred
}

// listOrder returns the list of lists' ids from head to tail.
func (l *LLD) listOrder() []ld.ListID {
	out := make([]ld.ListID, 0, len(l.lists))
	for li := l.head; li != nil; li = li.next {
		out = append(out, li.id)
	}
	return out
}

// findPred resolves the predecessor of bid in list lid, preferring the
// caller's hint (paper §2.2: a correct hint removes the block with one
// pointer update; otherwise LD searches from the beginning of the list).
func (l *LLD) findPred(bid ld.BlockID, lid ld.ListID, hint ld.BlockID) (ld.BlockID, error) {
	li := l.lists[lid]
	if li == nil {
		return ld.NilBlock, fmt.Errorf("%w: %d", ld.ErrBadList, lid)
	}
	if li.first == bid {
		return ld.NilBlock, nil
	}
	if hint != ld.NilBlock && int(hint) < len(l.blocks) {
		hi := &l.blocks[hint]
		if hi.allocated() && hi.lid == lid && hi.next == bid {
			l.stats.HintHits++
			return hint, nil
		}
		l.stats.HintMisses++
	}
	for b := li.first; b != ld.NilBlock; b = l.blocks[b].next {
		if l.blocks[b].next == bid {
			return b, nil
		}
	}
	return ld.NilBlock, fmt.Errorf("%w: block %d not on list %d", ld.ErrNotInList, bid, lid)
}

// validateRun checks that [first,last] is a run inside list lid and
// returns its length.
func (l *LLD) validateRun(first, last ld.BlockID, lid ld.ListID) (int, error) {
	li := l.lists[lid]
	n := 0
	for b := first; b != ld.NilBlock; b = l.blocks[b].next {
		if !l.blocks[b].allocated() || l.blocks[b].lid != lid {
			return 0, fmt.Errorf("%w: run member %d not on list %d", ld.ErrNotInList, b, lid)
		}
		n++
		if n > li.count {
			break
		}
		if b == last {
			return n, nil
		}
	}
	return 0, fmt.Errorf("%w: [%d,%d] is not a run of list %d", ld.ErrNotInList, first, last, lid)
}
