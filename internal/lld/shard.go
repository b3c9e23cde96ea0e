package lld

import (
	"sync"

	"repro/internal/ld"
)

// mapShard is one lock stripe of the block-number map. Shard s owns every
// block id b with b mod len(l.shards) == s (modulo striping spreads
// consecutively allocated ids across stripes). Open sizes the stripe
// array from the machine — one stripe per processor that can run a writer,
// at most 64; the count changes locking only — no id, placement or durable
// byte depends on it.
//
// The stripe lock does NOT replace the instance lock: every mutation of
// shared state still happens with l.mu held exclusively, so exclusive-lock
// code (the cleaner, the scrubber, recovery, Flush, Shutdown) and
// shared-lock readers are correct without ever touching a stripe. What the
// stripe lock adds is a per-block critical section that may SPAN instance
// lock releases: Write holds its block's stripe across a
// prepare/transform/apply window so the block's logical state (allocated,
// owning list) cannot change while the CPU-heavy transform runs outside
// l.mu. The discipline, enforced by taking the stripe lock in every
// operation that changes a block's logical state, is:
//
//   - Changing a block's logical state — allocating it, freeing it, or
//     retagging its owning list — requires its stripe lock (DeleteBlock
//     takes one stripe; DeleteList and MoveBlocks take all stripes).
//     Exception: NewBlock takes none, because an unallocated id can have
//     no open window (windows validate allocation at prepare, and freeing
//     an allocated id requires the stripe that the window already holds).
//   - Changing only a block's physical placement (cleaner, scrubber
//     salvage, reclaim, SwapContents) requires no stripe lock: windows
//     re-read placement under l.mu at apply, so relocation between
//     prepare and apply is harmless.
//   - Recyclable ids live in one pool on the LLD (freeIDs), guarded by
//     l.mu like the rest of the shared state: a block's stripe is b mod
//     the stripe count whatever pool its id came from, and one pool makes
//     the order ids are handed out in independent of the stripe count.
//
// Lock order: stripe locks in ascending shard index, then l.mu. The
// stripe locks are therefore "above" the instance lock; nothing acquires
// a stripe while holding l.mu.
type mapShard struct {
	mu sync.RWMutex
	_  [40]byte // pad to a cache line so stripe locks do not false-share
}

// shardOf returns the stripe that owns block id b.
func (l *LLD) shardOf(b ld.BlockID) *mapShard {
	return &l.shards[uint32(b)%uint32(len(l.shards))]
}

// lockAllShards acquires every stripe lock in ascending index order; it is
// used by the operations that change the logical state of an unbounded set
// of blocks (DeleteList, MoveBlocks).
func (l *LLD) lockAllShards() {
	for i := range l.shards {
		l.shards[i].mu.Lock()
	}
}

// unlockAllShards releases what lockAllShards acquired.
func (l *LLD) unlockAllShards() {
	for i := len(l.shards) - 1; i >= 0; i-- {
		l.shards[i].mu.Unlock()
	}
}

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
