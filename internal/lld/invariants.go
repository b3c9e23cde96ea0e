package lld

import (
	"fmt"
	"slices"

	"repro/internal/ld"
)

// CheckInvariants verifies the internal consistency of the in-memory
// state; it is meant for tests (including post-recovery audits) and
// returns every violation found.
func (l *LLD) CheckInvariants() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	bad := func(format string, args ...interface{}) {
		out = append(out, fmt.Sprintf(format, args...))
	}

	// Accounting: liveBytes and per-segment live must equal the block map.
	var total int64
	segLiveCalc := make([]int64, len(l.segs))
	segMappedCalc := make([]int32, len(l.segs))
	for i := 1; i < len(l.blocks); i++ {
		bi := &l.blocks[i]
		if !bi.allocated() {
			if bi.hasData() {
				bad("block %d has data but is not allocated", i)
			}
			continue
		}
		if bi.hasData() {
			seg := l.segOf(bi)
			if seg < 0 || seg >= len(l.segs) {
				bad("block %d data in invalid segment %d", i, seg)
				continue
			}
			total += int64(bi.stored)
			segLiveCalc[seg] += int64(bi.stored)
			segMappedCalc[seg]++
		}
		if _, ok := l.lists[bi.lid]; !ok {
			bad("block %d owned by nonexistent list %d", i, bi.lid)
		}
	}
	if total != l.liveBytes {
		bad("liveBytes %d but block map sums to %d", l.liveBytes, total)
	}
	for i := range l.segs {
		if l.segs[i].live != segLiveCalc[i] {
			bad("segment %d usage %d but map sums to %d", i, l.segs[i].live, segLiveCalc[i])
		}
		if l.segs[i].mapped != segMappedCalc[i] {
			bad("segment %d counts %d blocks but the map places %d there", i, l.segs[i].mapped, segMappedCalc[i])
		}
	}

	// Lists: census counts match chain walks; chains are acyclic and own
	// their members; order and table agree.
	seen := make(map[ld.BlockID]ld.ListID)
	for lid, li := range l.lists {
		n := 0
		for b := li.first; b != ld.NilBlock; b = l.blocks[b].next {
			if int(b) >= len(l.blocks) || !l.blocks[b].allocated() {
				bad("list %d chain reaches invalid block %d", lid, b)
				break
			}
			if owner, dup := seen[b]; dup {
				bad("block %d on lists %d and %d", b, owner, lid)
				break
			}
			seen[b] = lid
			if l.blocks[b].lid != lid {
				bad("block %d on list %d but tagged %d", b, lid, l.blocks[b].lid)
			}
			n++
			if n > len(l.blocks) {
				bad("list %d chain exceeds block count: cycle", lid)
				break
			}
		}
		if n != li.count {
			bad("list %d census %d but walk found %d", lid, li.count, n)
		}
		if li.id != lid {
			bad("list %d's entry names itself %d", lid, li.id)
		}
	}
	// The list of lists, walked from head to tail, visits every list of
	// the table once, through links that agree both ways, and holds no
	// ghost a replay placed.
	var prev *listInfo
	n := 0
	for li := l.head; li != nil; li = li.next {
		if li.prev != prev {
			bad("list of lists: list %d's back link disagrees with its predecessor", li.id)
		}
		if l.lists[li.id] != li {
			bad("list of lists names list %d, whose table entry is another or none", li.id)
		}
		if n++; n > len(l.lists) {
			bad("list of lists longer than the %d lists: cycle or stale node", len(l.lists))
			break
		}
		prev = li
	}
	if n <= len(l.lists) && l.tail != prev {
		bad("list of lists: tail is not the last node reached from the head")
	}
	if n != len(l.lists) {
		bad("list of lists visits %d lists, the table holds %d", n, len(l.lists))
	}
	if len(l.ghosts) != 0 {
		bad("%d ghost lists outlived the mount", len(l.ghosts))
	}

	// Free pool: no allocated id pooled, no duplicates, and every
	// unallocated id below the fresh watermark covered.
	freeSeen := make(map[ld.BlockID]bool)
	for _, b := range l.freeIDs.Sorted() {
		if freeSeen[b] {
			bad("block id %d in free pool twice", b)
		}
		freeSeen[b] = true
		if int(b) < len(l.blocks) && l.blocks[b].allocated() {
			bad("allocated block %d in free pool", b)
		}
	}
	// The map covers every id issued, and none at or above the fresh
	// watermark is allocated (the map may hold freed ids up there: growBlocks).
	if int(l.nextFresh) > len(l.blocks) {
		bad("block map holds %d entries below fresh watermark %d", len(l.blocks), l.nextFresh)
	}
	for b := ld.BlockID(1); b < l.nextFresh && int(b) < len(l.blocks); b++ {
		if !l.blocks[b].allocated() && !freeSeen[b] {
			bad("unallocated block %d below fresh watermark %d missing from free pool", b, l.nextFresh)
		}
	}
	for b := int(l.nextFresh); b < len(l.blocks); b++ {
		if l.blocks[b].allocated() {
			bad("block %d allocated at or above fresh watermark %d", b, l.nextFresh)
		}
	}
	listSeen := make(map[ld.ListID]bool)
	for _, lid := range l.freeLists.Sorted() {
		if listSeen[lid] {
			bad("list id %d in free pool twice", lid)
		}
		listSeen[lid] = true
		if _, ok := l.lists[lid]; ok {
			bad("live list %d in free pool", lid)
		}
	}

	// The durable watermark never names a timestamp not yet issued.
	if l.durableMark > l.ts {
		bad("durable mark %d above the last issued timestamp %d", l.durableMark, l.ts)
	}

	// Segment states partition the segment space, and the pools hold
	// exactly the segments in their state: free + cooling (pendingARU and
	// held included) + live + open + quarantined = nSegments.
	var inState [segQuarantined + 1]int
	var segLiveSum int64
	for i := range l.segs {
		st := l.segs[i].state
		if st > segQuarantined {
			bad("segment %d has unknown state %d", i, st)
			continue
		}
		inState[st]++
		segLiveSum += l.segs[i].live
		if (st == segFree || st == segCooling) && l.segs[i].mapped != 0 {
			bad("segment %d in state %d holds %d blocks", i, st, l.segs[i].mapped)
		}
		if (st == segFree || st == segOpen || st == segCooling || l.segs[i].mapped == 0) && l.segs[i].names != nil {
			bad("segment %d in state %d, holding %d blocks, still holds a summary's names", i, st, l.segs[i].mapped)
		}
	}
	if segLiveSum != total {
		bad("usage table sums to %d live bytes but the block map to %d", segLiveSum, total)
	}
	pooled := func(pool string, ids []int, want uint8) {
		seen := make(map[int]bool, len(ids))
		for _, id := range ids {
			if seen[id] {
				bad("segment %d in the %s pool twice", id, pool)
			}
			seen[id] = true
			if l.segs[id].state != want {
				bad("segment %d in the %s pool but in state %d", id, pool, l.segs[id].state)
			}
		}
	}
	pooled("free", l.freeSegs, segFree)
	if !slices.IsSorted(l.freeSegs) {
		bad("free pool %v is not in address order", l.freeSegs)
	}
	pooled("cooling", l.cooling, segCooling)
	pooled("ARU-pending", l.pendingARU, segCooling)
	pooled("held", l.held, segCooling)
	for _, id := range l.held {
		if !l.inChain(id) {
			bad("segment %d held for a checkpoint but opened before the newest one's chain start", id)
		}
	}
	// The reuse rule: a segment opened since the newest checkpoint's chain
	// start holds records the checkpoint does not, so once freed it waits
	// for a newer one (held), or for the end of the unit that freed it.
	waiting := make(map[int]bool, len(l.held)+len(l.pendingARU))
	for _, ids := range [][]int{l.held, l.pendingARU} {
		for _, id := range ids {
			waiting[id] = true
		}
	}
	for i := range l.segs {
		if st := l.segs[i].state; (st == segFree || st == segCooling) && l.inChain(i) && !waiting[i] {
			bad("segment %d opened since the newest checkpoint's chain start is in state %d, neither held nor ARU-pending", i, st)
		}
	}
	if l.succ >= 0 && l.segs[l.succ].state != segFree {
		bad("designated successor %d in state %d", l.succ, l.segs[l.succ].state)
	}
	open := 0
	if l.cur != nil {
		open = 1
		if l.segs[l.cur.id].state != segOpen {
			bad("open segment %d in state %d", l.cur.id, l.segs[l.cur.id].state)
		}
		if packed := summaryBytes(l.cur.entries, l.cur.tuples); l.cur.sumSize != packed {
			bad("open segment %d charged %d summary bytes for records that pack into %d", l.cur.id, l.cur.sumSize, packed)
		}
	}
	if inState[segFree] != len(l.freeSegs) || inState[segCooling] != len(l.cooling)+len(l.pendingARU)+len(l.held) || inState[segOpen] != open {
		bad("segment states free=%d cooling=%d open=%d but pools free=%d cooling=%d+%d+%d open=%d",
			inState[segFree], inState[segCooling], inState[segOpen], len(l.freeSegs), len(l.cooling), len(l.pendingARU), len(l.held), open)
	}
	if len(l.cooling) != len(l.coolingTS) {
		bad("%d cooling segments but %d release barriers", len(l.cooling), len(l.coolingTS))
	}

	// The usage table's copy of the blocks each live segment's newest
	// summary gives data in is what the platter says; a segment no block is
	// left in needs none. A segment the mount named from the checkpoint it
	// loaded (stamped at or below namedTS, decodeCheckpoint) keeps the
	// blocks the checkpoint placed there, which no summary states, so only
	// their order is checked; one this instance sealed or decoded is held
	// to its summary. A summary that does not read or decode, or that is
	// not the image the stamp describes (rot, a degraded replica), cannot be
	// re-derived and is passed over.
	for i := range l.segs {
		s := &l.segs[i]
		if s.state == segLive && s.mapped > 0 && s.names == nil {
			bad("segment %d stamped %d holds %d blocks but no names in memory", i, s.ts, s.mapped)
		}
		if s.state != segLive || s.names == nil {
			continue
		}
		if s.ts <= l.namedTS {
			if !slices.IsSorted(s.names) || len(slices.Compact(slices.Clone(s.names))) != len(s.names) {
				bad("segment %d: the names kept in memory are not ascending without duplicates", i)
			}
			continue
		}
		si, _ := platterSummary(l.dsk, l.lay, i)
		if si == nil || si.writeTS != s.ts {
			continue
		}
		if !slices.Equal(s.names, sumNames(si.entries)) {
			bad("segment %d: the names kept in memory are not those of its summary on the platter", i)
		}
	}
	return out
}
