package lld

import (
	"sort"

	"repro/internal/disk"
	"repro/internal/ld"
)

// OpenPerBlockVerify is Open with the sweep's data read-back done by the
// per-block pass that verifyRecoveredData replaced: the oracle the extent
// pass is held against (extent_diff_test.go).
func OpenPerBlockVerify(dsk disk.Backend, opts Options) (*LLD, error) {
	return open(dsk, opts, (*LLD).verifyRecoveredDataPerBlock, false)
}

// OpenPerSlot is Open with every segment of a sweep over a redundant backend
// sent down the per-slot adopt-and-heal path (probeSegmentMulti), whether or
// not its replicas' copies agree: the reference the identical-copies rule is
// held against (mirrorsweep_test.go).
func OpenPerSlot(dsk disk.Backend, opts Options) (*LLD, error) {
	sweepPerSlot = true
	defer func() { sweepPerSlot = false }()
	return Open(dsk, opts)
}

// verifyRecoveredDataPerBlock is the historical pass, kept as it was: every
// mapped block read back in block-id order, one request apiece, a segment
// given up at its first lost block. It trusts no segment: the durable
// watermark bounds the pass it is held against, not the oracle.
func (l *LLD) verifyRecoveredDataPerBlock(report *RecoveryReport, _ func(int) bool) {
	v := &verifier{l: l}
	v.multi, _ = l.dsk.(disk.MultiReader)
	verify := func(bi *blockInfo) bool {
		_, err := v.block(bi) // the one request per block, heal included
		return err == nil
	}
	var lost map[int32]bool
	for i := 1; i < len(l.blocks); i++ {
		bi := &l.blocks[i]
		if !bi.allocated() || !bi.hasData() || bi.stored == 0 || bi.seg < 0 {
			continue
		}
		si := &l.segs[bi.seg]
		if si.state == segQuarantined || lost[bi.seg] {
			continue
		}
		if !verify(bi) {
			if lost == nil {
				lost = make(map[int32]bool)
			}
			lost[bi.seg] = true
		}
	}
	segs := make([]int32, 0, len(lost))
	for s := range lost {
		segs = append(segs, s)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	for _, s := range segs {
		l.segs[s].state = segQuarantined
		report.QuarantinedSegments = append(report.QuarantinedSegments,
			QuarantinedSegment{Seg: int(s), Reason: "block data lost under a surviving summary"})
	}
}

// relogFact is one restatement the cleaner logs for a victim, reduced to
// what identifies it: the tuple kind and the entity (all four arguments for
// a fence). The other arguments are the entity's current state, the same
// whoever decides to restate it.
type relogFact struct {
	kind uint8
	args [4]uint32
}

func factOf(t *tupleRec) relogFact {
	f := relogFact{kind: t.kind}
	f.args[0] = t.args[0]
	if t.kind == tFence {
		copy(f.args[:], t.args[:4])
	}
	return f
}

// refRelog is the derivation relogSummaryFacts replaced, kept as it was
// except that it collects instead of emitting: the cleaner read the victim's
// summary back, took for every id the newest timestamp the summary gives it
// in each class, and restated every field not newer than that. It is the
// reference the in-memory derivation (names and the segment's stamp) is held
// against on every victim of the torture and soak histories.
func (l *LLD) refRelog(si *summaryInfo) map[relogFact]int {
	mExist := make(map[ld.BlockID]uint64)
	mLink := make(map[ld.BlockID]uint64)
	mData := make(map[ld.BlockID]uint64)
	mList := make(map[ld.ListID]uint64)
	out := make(map[relogFact]int)
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
	for i := range si.tuples {
		t := &si.tuples[i]
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
			if uint64(t.args[2])|uint64(t.args[3])<<32 > l.ckptTS {
				out[factOf(t)]++
			}
		}
	}
	for bid, ts := range mLink {
		if ts > mExist[bid] {
			mExist[bid] = ts
		}
	}
	for bid, m := range mExist {
		if int(bid) >= len(l.blocks) || m <= l.ckptTS {
			continue
		}
		bi := &l.blocks[bid]
		if bi.existTS > m && bi.linkTS > m {
			continue
		}
		kind := uint8(tBlockFree)
		if bi.allocated() {
			kind = tBlockState
		}
		out[relogFact{kind: kind, args: [4]uint32{uint32(bid)}}]++
	}
	for lid, m := range mList {
		if m <= l.ckptTS {
			continue
		}
		li, ok := l.lists[lid]
		if ok && li.existTS > m && li.headTS > m && li.orderTS > m {
			continue
		}
		kind := uint8(tListState)
		if !ok {
			if dl, dead := l.deadLists[lid]; dead && dl > m {
				continue
			}
			kind = tDelList
		}
		out[relogFact{kind: kind, args: [4]uint32{uint32(lid)}}]++
	}
	for bid, m := range mData {
		if int(bid) >= len(l.blocks) || m <= l.ckptTS {
			continue
		}
		bi := &l.blocks[bid]
		if !bi.allocated() || bi.dataTS > m {
			continue
		}
		out[relogFact{kind: tDataAt, args: [4]uint32{uint32(bid)}}]++
	}
	return out
}

// RelogAudit holds every victim of one instance's cleaner against refRelog.
// Equal counts the victims whose restatements were the reference's, fact for
// fact. The two ways they may differ are counted apart and refused anywhere
// else:
//
//   - Superset: a consolidation checkpoint fell inside the victim's lifetime
//     (its first record is at or below the floor, its stamp above), and the
//     cleaner restated an entity the victim names only at or below the floor
//     because another field of it, assigned since, is not the victim's to
//     keep. The reference knows each id's newest mention and skips it.
//   - Covered: the reference restates an entity none of whose fields was
//     assigned above the floor — a record recovery discarded (an incomplete
//     or fenced unit) names it — and the cleaner, which compares fields and
//     not mentions, leaves it to the checkpoint that holds them all.
type RelogAudit struct {
	Victims, Equal, Superset, Covered int
	Unread                            int // victims whose summary did not read back (the power was out)

	l    *LLD
	fail func(format string, args ...any)

	pending   bool
	id        int
	t0        uint64
	want      map[relogFact]int
	straddles bool
}

// AuditRelog wraps o.CrashHook with the audit; Attach hands it the instance
// once it is open (victims cleaned inside Open go unaudited).
func AuditRelog(o *Options, fail func(format string, args ...any)) *RelogAudit {
	a := &RelogAudit{fail: fail}
	inner := o.CrashHook
	o.CrashHook = func(site string) {
		if a.l != nil {
			switch site {
			case "clean.moved":
				a.moved()
			case "clean.relogged":
				a.relogged()
			}
		}
		if inner != nil {
			inner(site)
		}
	}
	return a
}

func (a *RelogAudit) Attach(l *LLD) { a.l = l }

func (a *RelogAudit) moved() {
	l := a.l
	a.pending = false
	si := l.platterSummary(l.victim)
	if si == nil {
		a.Unread++
		return
	}
	if si.writeTS != l.segs[l.victim].ts {
		a.fail("victim %d: stamp %d in the usage table, %d on the platter", l.victim, l.segs[l.victim].ts, si.writeTS)
		return
	}
	first := si.writeTS
	for _, e := range si.entries {
		first = min(first, e.ts)
	}
	for _, t := range si.tuples {
		first = min(first, t.ts)
	}
	a.pending, a.id, a.t0 = true, l.victim, l.ts
	a.want = l.refRelog(si)
	a.straddles = first <= l.ckptTS && l.ckptTS < si.writeTS
}

func (a *RelogAudit) relogged() {
	l := a.l
	if !a.pending {
		return
	}
	a.pending = false
	// Everything stamped since clean.moved is a restatement: the cleaner
	// holds the lock. It sits in the open segment or in one the re-log
	// filled and sealed.
	got := make(map[relogFact]int)
	collect := func(tuples []tupleRec) {
		for i := range tuples {
			if t := &tuples[i]; t.ts > a.t0 {
				got[factOf(t)]++
			}
		}
	}
	if l.cur != nil {
		collect(l.cur.tuples)
	}
	for i := range l.segs {
		if s := &l.segs[i]; s.state == segLive && s.ts > a.t0 {
			si := l.platterSummary(i)
			if si == nil {
				a.Unread++
				return
			}
			collect(si.tuples)
		}
	}
	a.Victims++
	floor := l.ckptTS
	extra, covered := 0, 0
	for f, n := range a.want {
		if got[f] >= n {
			continue
		}
		ok := false
		switch f.kind {
		case tBlockState, tBlockFree:
			bi := &l.blocks[f.args[0]]
			ok = bi.existTS <= floor && bi.linkTS <= floor
		case tDataAt:
			ok = l.blocks[f.args[0]].dataTS <= floor
		case tListState:
			li := l.lists[ld.ListID(f.args[0])]
			ok = li.existTS <= floor && li.headTS <= floor && li.orderTS <= floor
		case tDelList:
			dl, dead := l.deadLists[ld.ListID(f.args[0])]
			ok = dead && dl <= floor
		}
		if !ok {
			a.fail("victim %d: the reference restates %s %v, the cleaner did not", a.id, tupleName(f.kind), f.args)
			return
		}
		covered++
	}
	for f, n := range got {
		if n > a.want[f] {
			if !a.straddles {
				a.fail("victim %d (no checkpoint inside its lifetime): the cleaner restated %s %v, the reference does not", a.id, tupleName(f.kind), f.args)
				return
			}
			extra++
		}
	}
	switch {
	case extra > 0:
		a.Superset++
	case covered > 0:
		a.Covered++
	default:
		a.Equal++
	}
}

// noHeadroom lifts the utilization limit to 1.0, so a test can fill the
// disk until the last segment is taken (buildStaleImage).
func (l *LLD) noHeadroom() {
	l.mu.Lock()
	l.utilLimit = 1.0
	l.mu.Unlock()
}
