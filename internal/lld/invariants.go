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
	for i := 1; i < len(l.blocks); i++ {
		bi := &l.blocks[i]
		if !bi.allocated() {
			if bi.hasData() {
				bad("block %d has data but is not allocated", i)
			}
			continue
		}
		if bi.hasData() {
			if bi.seg < 0 || int(bi.seg) >= len(l.segs) {
				bad("block %d data in invalid segment %d", i, bi.seg)
				continue
			}
			total += int64(bi.stored)
			segLiveCalc[bi.seg] += int64(bi.stored)
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
		if slices.Index(l.order, lid) < 0 {
			bad("list %d missing from the list of lists", lid)
		}
	}
	for _, lid := range l.order {
		if _, ok := l.lists[lid]; !ok {
			bad("list of lists names nonexistent list %d", lid)
		}
	}

	// Free pool: no allocated id pooled, no duplicates, and every
	// unallocated id below the fresh watermark covered.
	freeSeen := make(map[ld.BlockID]bool)
	for _, b := range l.freeIDs.all() {
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
	for _, lid := range l.freeLists.all() {
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
		if st == segFree && l.segs[i].live != 0 {
			bad("free segment %d has %d live bytes", i, l.segs[i].live)
		}
		if (st == segFree || st == segOpen || st == segCooling) && l.segs[i].names != nil {
			bad("segment %d in state %d still holds a summary's names", i, st)
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
	// summary gives data in is what the platter says. A summary that does
	// not read or decode, or that is not the image the stamp describes (rot,
	// a degraded replica), cannot be re-derived and is passed over.
	for i := range l.segs {
		s := &l.segs[i]
		if s.state == segLive && s.names == nil && s.ts > l.ckptTS {
			bad("segment %d stamped %d, above the checkpoint floor %d, has no names in memory", i, s.ts, l.ckptTS)
		}
		if s.state != segLive || s.names == nil {
			continue
		}
		si := l.platterSummary(i)
		if si == nil || si.writeTS != s.ts {
			continue
		}
		if !slices.Equal(s.names, sumNames(si.entries)) {
			bad("segment %d: the names kept in memory are not those of its summary on the platter", i)
		}
	}
	return out
}

// platterSummary reads segment id's summary slots as the backend has them
// now, uncounted and without retry, and returns the newer valid one; nil if
// they do not read or decode. For checks, not for the cleaner.
func (l *LLD) platterSummary(id int) *summaryInfo {
	region := make([]byte, 2*l.lay.summarySize)
	if err := l.dsk.ReadAt(region, l.lay.sumOff(id, 0)); err != nil {
		return nil
	}
	si, err := decodeNewestSummary(region, l.lay, id)
	if err != nil {
		return nil
	}
	return si
}
