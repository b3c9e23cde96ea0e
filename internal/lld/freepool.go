package lld

import "repro/internal/ld"

// freePool is a LIFO pool of recyclable identifiers (block numbers or list
// ids). The allocation paths, the recovery sweep, and the checkpoint loader
// all used to hand-roll the same push/pop/rebuild slices; this type is the
// single copy. A pool has no lock of its own: both pools are guarded by the
// instance lock.
type freePool[T ~uint32] struct {
	ids []T
}

// push returns id to the pool.
func (p *freePool[T]) push(id T) { p.ids = append(p.ids, id) }

// pop removes and returns the most recently pushed id, LIFO order.
func (p *freePool[T]) pop() (T, bool) {
	n := len(p.ids)
	if n == 0 {
		return 0, false
	}
	id := p.ids[n-1]
	p.ids = p.ids[:n-1]
	return id, true
}

// reset empties the pool, keeping its storage.
func (p *freePool[T]) reset() { p.ids = p.ids[:0] }

// size returns the number of pooled ids.
func (p *freePool[T]) size() int { return len(p.ids) }

// all exposes the pooled ids oldest-first; callers must not mutate or
// retain the slice across pool operations.
func (p *freePool[T]) all() []T { return p.ids }

// rebuildFreePools rederives the free block-number pool and the free
// list-id pool from the allocation state, in ascending id order. The
// pools are derived state — neither the checkpoint nor the segment
// summaries serialize them — so both the recovery sweep and the
// checkpoint loader finish by calling this.
func (l *LLD) rebuildFreePools() {
	l.freeIDs.reset()
	for b := ld.BlockID(1); b < l.nextFresh; b++ {
		if !l.blocks[b].allocated() {
			l.freeIDs.push(b)
		}
	}
	l.freeLists.reset()
	for lid := ld.ListID(1); lid < l.nextList; lid++ {
		if l.lists[lid] == nil {
			l.freeLists.push(lid)
		}
	}
}
