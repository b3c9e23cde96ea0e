package uld

import (
	"fmt"

	"repro/internal/ld"
)

// ---- pure state transitions (shared by operations and journal replay) ----

func (u *ULD) applyAlloc(bid ld.BlockID, lid ld.ListID, pred ld.BlockID) {
	bi := &u.blocks[bid]
	*bi = ublock{slot: -1, lid: lid, flags: bAllocated}
	li := u.lists[lid]
	if pred == ld.NilBlock {
		bi.next = li.first
		li.first = bid
	} else {
		pi := &u.blocks[pred]
		bi.next = pi.next
		pi.next = bid
	}
	li.count++
	li.curBlk = ld.NilBlock
}

func (u *ULD) applyFree(bid ld.BlockID, lid ld.ListID, pred ld.BlockID) {
	bi := &u.blocks[bid]
	li := u.lists[lid]
	if pred == ld.NilBlock {
		li.first = bi.next
	} else {
		u.blocks[pred].next = bi.next
	}
	li.count--
	li.curBlk = ld.NilBlock
	if bi.hasData() {
		u.freeSlotNow(int(bi.slot))
	}
	*bi = ublock{slot: -1}
	u.freeIDs.Push(bid)
}

func (u *ULD) applyNewList(lid, pred ld.ListID, hints ld.ListHints) {
	if _, ok := u.lists[lid]; ok {
		u.orderRemove(lid)
	}
	u.lists[lid] = &ulist{hints: hints}
	u.orderInsertAfter(lid, pred)
}

func (u *ULD) applyDelList(lid ld.ListID) {
	li := u.lists[lid]
	for b := li.first; b != ld.NilBlock; {
		bi := &u.blocks[b]
		next := bi.next
		if bi.hasData() {
			u.freeSlotNow(int(bi.slot))
		}
		u.freeIDs.Push(b)
		*bi = ublock{slot: -1}
		b = next
	}
	delete(u.lists, lid)
	u.orderRemove(lid)
	u.freeLists.Push(lid)
}

func (u *ULD) applyMoveList(lid, pred ld.ListID) {
	u.orderRemove(lid)
	u.orderInsertAfter(lid, pred)
}

func (u *ULD) applyMoveBlocks(first, last ld.BlockID, src, dst ld.ListID, pred, srcPred ld.BlockID) {
	srcLi, dstLi := u.lists[src], u.lists[dst]
	n := 0
	for b := first; ; b = u.blocks[b].next {
		u.blocks[b].lid = dst
		n++
		if b == last {
			break
		}
	}
	after := u.blocks[last].next
	if srcPred == ld.NilBlock {
		srcLi.first = after
	} else {
		u.blocks[srcPred].next = after
	}
	srcLi.count -= n
	srcLi.curBlk = ld.NilBlock
	dstLi.curBlk = ld.NilBlock
	if pred == ld.NilBlock {
		u.blocks[last].next = dstLi.first
		dstLi.first = first
	} else {
		u.blocks[last].next = u.blocks[pred].next
		u.blocks[pred].next = first
	}
	dstLi.count += n
}

func (u *ULD) applySwap(a, b ld.BlockID) {
	ai, bi := &u.blocks[a], &u.blocks[b]
	ai.slot, bi.slot = bi.slot, ai.slot
	ai.length, bi.length = bi.length, ai.length
	ah := ai.flags & bHasData
	bh := bi.flags & bHasData
	ai.flags = ai.flags&^bHasData | bh
	bi.flags = bi.flags&^bHasData | ah
}

func (u *ULD) applySetData(bid ld.BlockID, slot, length int) {
	bi := &u.blocks[bid]
	if bi.hasData() && bi.slot >= 0 {
		u.freeSlotNow(int(bi.slot))
	}
	if slot < 0 {
		bi.slot = -1
		bi.length = 0
		bi.flags &^= bHasData
		return
	}
	if !u.slotUsed[slot] {
		u.slotUsed[slot] = true
		u.freeSlots--
	}
	bi.slot = int32(slot)
	bi.length = uint32(length)
	bi.flags |= bHasData
}

func (u *ULD) orderIndex(lid ld.ListID) int {
	for i, v := range u.order {
		if v == lid {
			return i
		}
	}
	return -1
}

func (u *ULD) orderRemove(lid ld.ListID) {
	if i := u.orderIndex(lid); i >= 0 {
		u.order = append(u.order[:i], u.order[i+1:]...)
	}
}

func (u *ULD) orderInsertAfter(lid, pred ld.ListID) {
	idx := 0
	if pred != ld.NilList {
		if pi := u.orderIndex(pred); pi >= 0 {
			idx = pi + 1
		}
	}
	u.order = append(u.order, 0)
	copy(u.order[idx+1:], u.order[idx:])
	u.order[idx] = lid
}

func (u *ULD) findPred(bid ld.BlockID, lid ld.ListID, hint ld.BlockID) (ld.BlockID, error) {
	li := u.lists[lid]
	if li == nil {
		return ld.NilBlock, fmt.Errorf("%w: %d", ld.ErrBadList, lid)
	}
	if li.first == bid {
		return ld.NilBlock, nil
	}
	if hint != ld.NilBlock && int(hint) < len(u.blocks) {
		hi := &u.blocks[hint]
		if hi.allocated() && hi.lid == lid && hi.next == bid {
			return hint, nil
		}
	}
	for b := li.first; b != ld.NilBlock; b = u.blocks[b].next {
		if u.blocks[b].next == bid {
			return b, nil
		}
	}
	return ld.NilBlock, fmt.Errorf("%w: block %d not on list %d", ld.ErrNotInList, bid, lid)
}

// ---- the ld.Disk interface ----

// Read implements ld.Disk.
func (u *ULD) Read(b ld.BlockID, buf []byte) (int, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if err := u.checkOpen(); err != nil {
		return 0, err
	}
	bi, err := u.blockAt(b)
	if err != nil {
		return 0, err
	}
	if !bi.hasData() || bi.length == 0 {
		return 0, nil
	}
	ss := u.lay.sectorSize
	span := (int(bi.length) + ss - 1) / ss * ss
	scratch := make([]byte, span)
	if err := u.dsk.ReadAt(scratch, u.lay.slotOff(int(bi.slot))); err != nil {
		return 0, err
	}
	n := copy(buf, scratch[:bi.length])
	u.stats.BlocksRead++
	u.stats.UserBytesRead += int64(n)
	return n, nil
}

// Write implements ld.Disk: a Loge-style shadow write. The data lands in a
// free slot near the block's previous location, then the remap is
// journaled; the old slot is reusable once the record is durable.
func (u *ULD) Write(b ld.BlockID, data []byte) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if err := u.checkOpen(); err != nil {
		return err
	}
	bi, err := u.blockAt(b)
	if err != nil {
		return err
	}
	if len(data) > u.lay.slotSize {
		return fmt.Errorf("%w: %d > %d", ld.ErrTooLarge, len(data), u.lay.slotSize)
	}
	if err := u.chargeSlot(); err != nil {
		return err
	}
	near := int(bi.slot)
	slot, err := u.allocSlot(near)
	if err != nil {
		return err
	}
	ss := u.lay.sectorSize
	span := (len(data) + ss - 1) / ss * ss
	if span == 0 {
		span = ss
	}
	out := make([]byte, span)
	copy(out, data)
	if err := u.dsk.WriteAt(out, u.lay.slotOff(slot)); err != nil {
		u.freeSlotNow(slot)
		return err
	}
	old := -1
	if bi.hasData() {
		old = int(bi.slot)
	}
	// Install the new mapping without releasing the old slot yet.
	bi.slot = int32(slot)
	bi.length = uint32(len(data))
	bi.flags |= bHasData
	u.record(jSetData, uint32(b), uint32(slot+1), uint32(len(data)))
	if old >= 0 {
		u.freeSlotDeferred(old)
		u.stats.ShadowWrites++
	}
	u.stats.BlocksWritten++
	u.stats.UserBytesWritten += int64(len(data))
	return nil
}

// chargeSlot enforces the utilization limit, consuming a reservation when
// needed. Callers hold u.mu.
func (u *ULD) chargeSlot() error {
	usable := int(float64(u.lay.nSlots) * u.opts.UtilizationLimit)
	used := u.lay.nSlots - u.freeSlots
	if used < usable-u.reserved {
		return nil
	}
	if u.reserved > 0 && used < usable {
		u.reserved--
		return nil
	}
	if used < usable {
		return nil
	}
	return fmt.Errorf("%w: %d of %d usable slots in use", ld.ErrNoSpace, used, usable)
}

// NewBlock implements ld.Disk.
func (u *ULD) NewBlock(lid ld.ListID, pred ld.BlockID) (ld.BlockID, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if err := u.checkOpen(); err != nil {
		return ld.NilBlock, err
	}
	if _, err := u.listAt(lid); err != nil {
		return ld.NilBlock, err
	}
	if pred != ld.NilBlock {
		pi, err := u.blockAt(pred)
		if err != nil {
			return ld.NilBlock, err
		}
		if pi.lid != lid {
			return ld.NilBlock, fmt.Errorf("%w: predecessor %d not on list %d", ld.ErrNotInList, pred, lid)
		}
	}
	bid, ok := u.freeIDs.Pop()
	if !ok {
		if int(u.nextFresh) > u.lay.maxBlocks {
			return ld.NilBlock, fmt.Errorf("%w: out of logical block numbers", ld.ErrNoSpace)
		}
		bid = u.nextFresh
		u.nextFresh++
	}
	u.applyAlloc(bid, lid, pred)
	u.record(jAlloc, uint32(bid), uint32(lid), uint32(pred))
	return bid, nil
}

// DeleteBlock implements ld.Disk.
func (u *ULD) DeleteBlock(b ld.BlockID, lid ld.ListID, predHint ld.BlockID) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if err := u.checkOpen(); err != nil {
		return err
	}
	bi, err := u.blockAt(b)
	if err != nil {
		return err
	}
	if _, err := u.listAt(lid); err != nil {
		return err
	}
	if bi.lid != lid {
		return fmt.Errorf("%w: block %d is on list %d, not %d", ld.ErrNotInList, b, bi.lid, lid)
	}
	pred, err := u.findPred(b, lid, predHint)
	if err != nil {
		return err
	}
	// Defer releasing the data slot until the free record is durable.
	if bi.hasData() {
		u.freeSlotDeferred(int(bi.slot))
		bi.flags &^= bHasData
		bi.slot = -1
	}
	u.applyFree(b, lid, pred)
	u.record(jFree, uint32(b), uint32(lid), uint32(pred))
	return nil
}

// NewList implements ld.Disk.
func (u *ULD) NewList(predList ld.ListID, hints ld.ListHints) (ld.ListID, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if err := u.checkOpen(); err != nil {
		return ld.NilList, err
	}
	if predList != ld.NilList {
		if _, err := u.listAt(predList); err != nil {
			return ld.NilList, err
		}
	}
	lid, ok := u.freeLists.Pop()
	if !ok {
		lid = u.nextList
		u.nextList++
	}
	u.applyNewList(lid, predList, hints)
	u.record(jNewList, uint32(lid), uint32(predList), encodeHints(hints))
	return lid, nil
}

// DeleteList implements ld.Disk.
func (u *ULD) DeleteList(lid ld.ListID, predHint ld.ListID) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if err := u.checkOpen(); err != nil {
		return err
	}
	li, err := u.listAt(lid)
	if err != nil {
		return err
	}
	// Defer slot reuse for every block on the list.
	for b := li.first; b != ld.NilBlock; b = u.blocks[b].next {
		bi := &u.blocks[b]
		if bi.hasData() {
			u.freeSlotDeferred(int(bi.slot))
			bi.flags &^= bHasData
			bi.slot = -1
		}
	}
	u.applyDelList(lid)
	u.record(jDelList, uint32(lid))
	return nil
}

// MoveBlocks implements ld.Disk.
func (u *ULD) MoveBlocks(first, last ld.BlockID, srcList, dstList ld.ListID, pred ld.BlockID, srcPredHint ld.BlockID) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if err := u.checkOpen(); err != nil {
		return err
	}
	if _, err := u.listAt(srcList); err != nil {
		return err
	}
	if _, err := u.listAt(dstList); err != nil {
		return err
	}
	if _, err := u.blockAt(first); err != nil {
		return err
	}
	if _, err := u.blockAt(last); err != nil {
		return err
	}
	// Validate the run.
	n := 0
	li := u.lists[srcList]
	found := false
	for b := first; b != ld.NilBlock && n <= li.count; b = u.blocks[b].next {
		if u.blocks[b].lid != srcList {
			return fmt.Errorf("%w: run member %d not on list %d", ld.ErrNotInList, b, srcList)
		}
		n++
		if b == last {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("%w: [%d,%d] is not a run of list %d", ld.ErrNotInList, first, last, srcList)
	}
	if pred != ld.NilBlock {
		pi, err := u.blockAt(pred)
		if err != nil {
			return err
		}
		if pi.lid != dstList {
			return fmt.Errorf("%w: destination predecessor %d not on list %d", ld.ErrNotInList, pred, dstList)
		}
		for b := first; ; b = u.blocks[b].next {
			if b == pred {
				return fmt.Errorf("%w: destination predecessor %d inside the moved run", ld.ErrNotInList, pred)
			}
			if b == last {
				break
			}
		}
	}
	srcPred, err := u.findPred(first, srcList, srcPredHint)
	if err != nil {
		return err
	}
	u.applyMoveBlocks(first, last, srcList, dstList, pred, srcPred)
	u.record(jMoveBlocks, uint32(first), uint32(last), uint32(srcList), uint32(dstList), uint32(pred), uint32(srcPred))
	return nil
}

// MoveList implements ld.Disk.
func (u *ULD) MoveList(lid ld.ListID, newPred ld.ListID, predHint ld.ListID) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if err := u.checkOpen(); err != nil {
		return err
	}
	if _, err := u.listAt(lid); err != nil {
		return err
	}
	if newPred != ld.NilList {
		if _, err := u.listAt(newPred); err != nil {
			return err
		}
		if newPred == lid {
			return fmt.Errorf("%w: list %d cannot follow itself", ld.ErrBadList, lid)
		}
	}
	u.applyMoveList(lid, newPred)
	u.record(jMoveList, uint32(lid), uint32(newPred))
	return nil
}

// FlushList implements ld.Disk: with a single shared journal, flushing a
// list flushes the journal when anything is buffered.
func (u *ULD) FlushList(lid ld.ListID) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if err := u.checkOpen(); err != nil {
		return err
	}
	if _, err := u.listAt(lid); err != nil {
		return err
	}
	if len(u.journal) == 0 {
		return nil
	}
	return u.flushJournal()
}

// BeginARU implements ld.Disk.
func (u *ULD) BeginARU() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if err := u.checkOpen(); err != nil {
		return err
	}
	if u.aruOpen {
		return ld.ErrARUOpen
	}
	u.aruOpen = true
	return nil
}

// EndARU implements ld.Disk.
func (u *ULD) EndARU() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if err := u.checkOpen(); err != nil {
		return err
	}
	if !u.aruOpen {
		return ld.ErrNoARU
	}
	u.aruOpen = false
	u.record(jCommit)
	return nil
}

// Flush implements ld.Disk.
func (u *ULD) Flush(failures ld.FailureSet) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if err := u.checkOpen(); err != nil {
		return err
	}
	if failures == ld.FailNone {
		return nil
	}
	return u.flushJournal()
}

// Reserve implements ld.Disk.
func (u *ULD) Reserve(n int) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if err := u.checkOpen(); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("uld: negative reservation %d", n)
	}
	usable := int(float64(u.lay.nSlots) * u.opts.UtilizationLimit)
	used := u.lay.nSlots - u.freeSlots
	if used+u.reserved+n > usable {
		return fmt.Errorf("%w: cannot reserve %d slots", ld.ErrNoSpace, n)
	}
	u.reserved += n
	return nil
}

// CancelReservation implements ld.Disk.
func (u *ULD) CancelReservation(n int) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if err := u.checkOpen(); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("uld: negative reservation %d", n)
	}
	u.reserved -= n
	if u.reserved < 0 {
		u.reserved = 0
	}
	return nil
}

// SwapContents implements ld.Disk.
func (u *ULD) SwapContents(a, b ld.BlockID) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if err := u.checkOpen(); err != nil {
		return err
	}
	if _, err := u.blockAt(a); err != nil {
		return err
	}
	if _, err := u.blockAt(b); err != nil {
		return err
	}
	if a == b {
		return nil
	}
	u.applySwap(a, b)
	u.record(jSwap, uint32(a), uint32(b))
	return nil
}

// ListBlocks implements ld.Disk.
func (u *ULD) ListBlocks(lid ld.ListID) ([]ld.BlockID, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if err := u.checkOpen(); err != nil {
		return nil, err
	}
	li, err := u.listAt(lid)
	if err != nil {
		return nil, err
	}
	out := make([]ld.BlockID, 0, li.count)
	for b := li.first; b != ld.NilBlock; b = u.blocks[b].next {
		out = append(out, b)
	}
	return out, nil
}

// ListIndex implements ld.Disk.
func (u *ULD) ListIndex(lid ld.ListID, i int) (ld.BlockID, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if err := u.checkOpen(); err != nil {
		return ld.NilBlock, err
	}
	li, err := u.listAt(lid)
	if err != nil {
		return ld.NilBlock, err
	}
	if i < 0 || i >= li.count {
		return ld.NilBlock, fmt.Errorf("%w: index %d out of range", ld.ErrBadBlock, i)
	}
	b := li.first
	step := i
	if li.curBlk != ld.NilBlock && li.curIdx <= i {
		b = li.curBlk
		step = i - li.curIdx
	}
	for ; step > 0; step-- {
		b = u.blocks[b].next
	}
	li.curIdx, li.curBlk = i, b
	return b, nil
}

// Lists implements ld.Disk.
func (u *ULD) Lists() ([]ld.ListID, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if err := u.checkOpen(); err != nil {
		return nil, err
	}
	out := make([]ld.ListID, len(u.order))
	copy(out, u.order)
	return out, nil
}

// BlockSize implements ld.Disk.
func (u *ULD) BlockSize(b ld.BlockID) (int, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if err := u.checkOpen(); err != nil {
		return 0, err
	}
	bi, err := u.blockAt(b)
	if err != nil {
		return 0, err
	}
	return int(bi.length), nil
}

// Shutdown implements ld.Disk. A clean shutdown flushes the journal and
// checkpoints (so the next Open replays nothing); an unclean one discards
// the in-memory state.
func (u *ULD) Shutdown(clean bool) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if err := u.checkOpen(); err != nil {
		return err
	}
	if !clean {
		u.shut = true
		return nil
	}
	if u.aruOpen {
		return ld.ErrARUOpen
	}
	if err := u.flushJournal(); err != nil {
		return err
	}
	if err := u.writeCheckpoint(); err != nil {
		return err
	}
	u.shut = true
	return nil
}
