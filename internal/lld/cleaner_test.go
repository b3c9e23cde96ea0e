package lld

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
)

// pickVictim is one rule: a segment with nothing live first, oldest stamp
// first; every other by (1-u)*age/(2u).
func TestPickVictim(t *testing.T) {
	_, l := newTestLLD(t, 4<<20, testOptions())
	dataCap := int64(l.lay.dataCap())
	live := func(frac float64, ts uint64) segInfo {
		return segInfo{state: segLive, live: int64(frac * float64(dataCap)), ts: ts}
	}
	for _, tc := range []struct {
		name string
		now  uint64
		segs []segInfo
		skip map[int]bool
		want int
	}{
		{"nothing live anywhere", 100, []segInfo{{state: segFree}, {state: segOpen}, {state: segCooling}, {state: segQuarantined}}, nil, -1},
		{"an empty segment before a cold, nearly empty one", 1000, []segInfo{live(0.05, 1), live(0, 999)}, nil, 1},
		{"the oldest empty segment first", 1000, []segInfo{live(0, 50), live(0, 20), live(0, 30)}, nil, 1},
		// 0.8*100/0.4 = 200 against 0.5*1000/1.0 = 500: fewest live bytes
		// would take the first, the rule takes the old half-full one.
		{"benefit over cost, not fewest live bytes", 1000, []segInfo{live(0.2, 901), live(0.5, 1)}, nil, 1},
		// 0.8*10/0.4 = 20 against 0.5*20/1.0 = 10.
		{"emptier wins when the ages are close", 1000, []segInfo{live(0.5, 981), live(0.2, 991)}, nil, 1},
		{"a full segment is never picked, however old", 1000, []segInfo{live(1, 1)}, nil, -1},
		{"a full segment does not hide a victim", 1000, []segInfo{live(1, 1), live(0.9, 990)}, nil, 1},
		{"skipped segments are passed over", 1000, []segInfo{live(0, 1), live(0, 2), live(0.5, 3)}, map[int]bool{0: true, 1: true}, 2},
		{"only live segments qualify", 1000, []segInfo{{state: segQuarantined, ts: 1}, {state: segCooling, ts: 2}, live(0.9, 999)}, nil, 2},
		// float64 holds 53 bits: stamps 2^60-2 and 2^60-3 are one number to
		// it, and an age of 2^60 is no sentinel an empty segment must beat.
		{"the two levels survive ages of 2^53 and more", 1 << 60, []segInfo{live(0.01, 1), live(0, 1<<60-2), live(0, 1<<60-3)}, nil, 2},
	} {
		l.ts, l.segs = tc.now, tc.segs
		if got := l.pickVictim(tc.skip); got != tc.want {
			t.Errorf("%s: picked %d, want %d", tc.name, got, tc.want)
		}
	}
}

// Ninety per cent of the writes go to a tenth of the blocks of a disk 54 %
// full, for eight laps of the log. Fewest-live-bytes keeps picking the
// segments the hot blocks just left, which the cold blocks that rode along
// with them keep two-thirds full; cost-benefit lets those age and takes
// colder, emptier ones. The history is fixed by the seed, so greedy's figure
// is a constant: recorded from this test at the commit before the victim
// rule changed (pickVictim's default, fewest live bytes, oldest on ties).
func TestVictimRuleMovesLessThanGreedyOnHotCold(t *testing.T) {
	const (
		seed         = 7
		laps         = 8
		greedyMoved  = 5600 // blocks moved over the measured laps
		userWritten  = 10800
		greedyPerOp  = float64(greedyMoved) / userWritten // 0.519
		wantAtMostOf = 0.75                               // of greedy's; measured 0.59 (3,325 moved, 0.308 a write)
	)
	opts := segIOOptions()
	_, l := newTestLLD(t, 8<<20, opts)
	perLap := l.lay.nSegments * (l.lay.dataCap() / 4096)
	n := perLap * 54 / 100
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	ids := make([]ld.BlockID, n)
	payload := make([]byte, 4096)
	prev := ld.NilBlock
	for i := range ids {
		ids[i] = mustNewBlock(t, l, lid, prev)
		prev = ids[i]
		mustWrite(t, l, ids[i], payload)
	}
	rng := rand.New(rand.NewSource(seed))
	hot := n / 10
	var base Stats
	for i := 0; i < laps*perLap; i++ {
		if i == 2*perLap {
			base = l.Stats() // two laps in: the fill's layout is gone
		}
		j := hot + rng.Intn(n-hot)
		if rng.Intn(10) < 9 {
			j = rng.Intn(hot)
		}
		payload[0] = byte(i)
		mustWrite(t, l, ids[j], payload)
	}
	s := l.Stats()
	moved, written := s.BlocksMoved-base.BlocksMoved, s.BlocksWritten-base.BlocksWritten
	if written != userWritten {
		t.Fatalf("seed %d: measured %d user writes, the recorded history has %d", seed, written, userWritten)
	}
	perOp := float64(moved) / float64(written)
	t.Logf("seed %d: %d segments, %d blocks (%d hot): %d moved for %d written = %.3f a write (greedy %.3f), %d victims",
		seed, l.lay.nSegments, n, hot, moved, written, perOp, greedyPerOp, s.SegmentsCleaned-base.SegmentsCleaned)
	if perOp > wantAtMostOf*greedyPerOp {
		t.Errorf("seed %d: %.3f blocks moved a user write, want at most %.2f of greedy's %.3f", seed, perOp, wantAtMostOf, greedyPerOp)
	}
	if s.SummaryLoads != 0 {
		t.Errorf("seed %d: %d summaries read back", seed, s.SummaryLoads)
	}
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariants: %v", viol)
	}
}

// newAuditedLLD opens a fresh instance whose every victim is held against
// the summary read-back reference (RelogAudit).
func newAuditedLLD(t *testing.T) (*disk.Disk, Options, *LLD, *RelogAudit) {
	t.Helper()
	opts := segIOOptions()
	audit := AuditRelog(&opts, t.Errorf)
	d, l := newTestLLD(t, 4<<20, opts)
	audit.Attach(l)
	return d, opts, l, audit
}

// sealOpen seals the open segment and returns its id.
func sealOpen(t *testing.T, l *LLD) int {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil {
		t.Fatal("no segment is open")
	}
	id := l.cur.id
	if err := l.sealSegment(); err != nil {
		t.Fatal(err)
	}
	return id
}

// restatedSince returns the tuples stamped after ts in the open segment.
func restatedSince(l *LLD, ts uint64) map[relogFact]int {
	out := make(map[relogFact]int)
	if l.cur != nil {
		for i := range l.cur.tuples {
			if t := &l.cur.tuples[i]; t.ts > ts {
				out[factOf(t)]++
			}
		}
	}
	return out
}

// cleanAudited cleans victim and checks that the audit found its
// restatements equal to the reference's and that they include want.
func cleanAudited(t *testing.T, l *LLD, audit *RelogAudit, victim int, want ...relogFact) {
	t.Helper()
	before, t0 := *audit, l.ts
	if err := cleanVictim(l, victim); err != nil {
		t.Fatalf("cleaning segment %d: %v", victim, err)
	}
	if audit.Victims != before.Victims+1 || audit.Equal != before.Equal+1 {
		t.Errorf("segment %d: audited %d victims, %d equal to the reference, want 1 and 1",
			victim, audit.Victims-before.Victims, audit.Equal-before.Equal)
	}
	got := restatedSince(l, t0)
	for _, f := range want {
		if got[f] != 1 {
			t.Errorf("segment %d: %s %v restated %d times, want once (restated: %v)", victim, tupleName(f.kind), f.args, got[f], got)
		}
	}
}

func fact(kind uint8, args ...uint32) relogFact {
	f := relogFact{kind: kind}
	copy(f.args[:], args)
	return f
}

// The facts only a summary holds — a freed block's tombstone, a deleted
// list's, the successor pointer a deletion rewrote, a swap's data locations,
// an abort fence — are restated from the usage table's names exactly as
// they were from the summary read back, and survive the victim.
func TestRelogFromNamesMatchesSummaryReadBack(t *testing.T) {
	t.Run("freed block and deleted list tombstones", func(t *testing.T) {
		d, opts, l, audit := newAuditedLLD(t)
		lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
		doomedList := mustNewList(t, l, lid, ld.ListHints{})
		b1 := mustNewBlock(t, l, lid, ld.NilBlock)
		b2 := mustNewBlock(t, l, lid, b1)
		mustWrite(t, l, b1, []byte("kept"))
		mustWrite(t, l, b2, []byte("freed"))
		sealOpen(t, l)
		if err := l.DeleteBlock(b2, lid, b1); err != nil {
			t.Fatal(err)
		}
		if err := l.DeleteList(doomedList, lid); err != nil {
			t.Fatal(err)
		}
		victim := sealOpen(t, l)
		cleanAudited(t, l, audit, victim,
			fact(tBlockFree, uint32(b2)), fact(tBlockState, uint32(b1)), fact(tDelList, uint32(doomedList)))

		l = reopenCrashedAfterFlush(t, d, l, opts)
		if _, err := l.Read(b2, make([]byte, 16)); err == nil {
			t.Errorf("freed block %d came back", b2)
		}
		if _, err := l.ListBlocks(doomedList); err == nil {
			t.Errorf("deleted list %d came back", doomedList)
		}
		if got := mustRead(t, l, b1); string(got) != "kept" {
			t.Errorf("block %d reads %q", b1, got)
		}
	})

	t.Run("swap re-homed block", func(t *testing.T) {
		d, opts, l, audit := newAuditedLLD(t)
		lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
		a := mustNewBlock(t, l, lid, ld.NilBlock)
		mustWrite(t, l, a, []byte("first"))
		segA := sealOpen(t, l)
		b := mustNewBlock(t, l, lid, a)
		mustWrite(t, l, b, []byte("second"))
		sealOpen(t, l)
		if err := l.SwapContents(a, b); err != nil {
			t.Fatal(err)
		}
		segSwap := sealOpen(t, l)
		// b's bytes now sit in the segment whose summary names only a.
		if int(l.blocks[b].seg) != segA {
			t.Fatalf("block %d in segment %d after the swap, want %d", b, l.blocks[b].seg, segA)
		}
		moved := l.Stats().BlocksMoved
		cleanAudited(t, l, audit, segA)
		if l.Stats().BlocksMoved != moved+1 || int(l.blocks[b].seg) == segA {
			t.Errorf("the re-homed block was not moved out of segment %d", segA)
		}
		// The swap's own summary holds a's newest data location; b's was
		// just superseded by the move.
		cleanAudited(t, l, audit, segSwap, fact(tDataAt, uint32(a)))

		l = reopenCrashedAfterFlush(t, d, l, opts)
		if got := mustRead(t, l, a); string(got) != "second" {
			t.Errorf("block %d reads %q after the swap, cleaning and recovery", a, got)
		}
		if got := mustRead(t, l, b); string(got) != "first" {
			t.Errorf("block %d reads %q after the swap, cleaning and recovery", b, got)
		}
	})

	t.Run("abort fence above the floor", func(t *testing.T) {
		opts := segIOOptions()
		audit := AuditRelog(&opts, t.Errorf)
		d, l := newTestLLD(t, 4<<20, opts)
		lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
		b := mustNewBlock(t, l, lid, ld.NilBlock)
		mustWrite(t, l, b, []byte("committed"))
		if err := l.Flush(ld.FailPower); err != nil {
			t.Fatal(err)
		}
		if err := l.BeginARU(); err != nil {
			t.Fatal(err)
		}
		mustWrite(t, l, b, []byte("never committed"))
		if err := l.Flush(ld.FailPower); err != nil {
			t.Fatal(err)
		}
		if err := l.Shutdown(false); err != nil {
			t.Fatal(err)
		}
		l, err := Open(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		audit.Attach(l)
		if l.Stats().RecoveryDiscards == 0 || l.cur == nil {
			t.Fatal("the mount discarded no unit, or logged no fence")
		}
		var fence relogFact
		for i := range l.cur.tuples {
			if tu := &l.cur.tuples[i]; tu.kind == tFence {
				fence = factOf(tu)
			}
		}
		if fence.kind != tFence {
			t.Fatal("no fence in the mount's first segment")
		}
		victim := sealOpen(t, l)
		cleanAudited(t, l, audit, victim, fence)

		l = reopenCrashedAfterFlush(t, d, l, opts)
		if got := mustRead(t, l, b); string(got) != "committed" {
			t.Errorf("block %d reads %q: the dead unit came back with its fence's segment gone", b, got)
		}
	})
}

// reopenCrashedAfterFlush makes what is logged durable, crashes, remounts
// and checks the invariants.
func reopenCrashedAfterFlush(t *testing.T, d *disk.Disk, l *LLD, opts Options) *LLD {
	t.Helper()
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}
	opts.CrashHook = nil
	l, err := Open(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariants after recovery: %v", viol)
	}
	return l
}

// The two ways the cleaner's restatements may differ from the summary
// read-back reference, each produced on purpose: both need a checkpoint
// floor, and in both what is on the platter afterwards recovers correctly.
func TestRelogDiffersFromReadBackOnlyAroundACheckpointFloor(t *testing.T) {
	consolidate := func(t *testing.T, l *LLD) {
		t.Helper()
		l.mu.Lock()
		defer l.mu.Unlock()
		if err := l.consolidate(); err != nil {
			t.Fatal(err)
		}
	}

	// A checkpoint inside the victim's lifetime: the victim names block a
	// only below the floor (the reference, which knows that, skips it), but
	// a's successor pointer was assigned after the victim was sealed, so the
	// block's fields are not all the checkpoint's and its existence, stamped
	// at or below the victim's, is restated.
	t.Run("superset", func(t *testing.T) {
		d, opts, l, audit := newAuditedLLD(t)
		lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
		a := mustNewBlock(t, l, lid, ld.NilBlock)
		mustWrite(t, l, a, []byte("a"))
		consolidate(t, l)
		victim := sealOpen(t, l)
		b := mustNewBlock(t, l, lid, a)
		mustWrite(t, l, b, []byte("b"))
		t0 := l.ts
		if err := cleanVictim(l, victim); err != nil {
			t.Fatal(err)
		}
		if audit.Victims != 1 || audit.Superset != 1 {
			t.Fatalf("audited %d victims, %d supersets, want 1 and 1", audit.Victims, audit.Superset)
		}
		if got := restatedSince(l, t0); got[fact(tBlockState, uint32(a))] != 1 || len(got) != 1 {
			t.Errorf("restated %v, want block %d's state alone", got, a)
		}
		l = reopenCrashedAfterFlush(t, d, l, opts)
		if blocks, err := l.ListBlocks(lid); err != nil || len(blocks) != 2 || blocks[0] != a || blocks[1] != b {
			t.Errorf("list %d recovered as %v, %v", lid, blocks, err)
		}
	})

	// A record recovery discarded: the victim holds an uncommitted write of
	// block b from a unit that died with the crash. Every field of b is the
	// checkpoint's; the reference restates its data location because the
	// dead record mentions it above the floor, the cleaner does not.
	t.Run("covered", func(t *testing.T) {
		opts := segIOOptions()
		audit := AuditRelog(&opts, t.Errorf)
		d, l := newTestLLD(t, 4<<20, opts)
		lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
		b := mustNewBlock(t, l, lid, ld.NilBlock)
		mustWrite(t, l, b, []byte("checkpointed"))
		consolidate(t, l)
		sealOpen(t, l)
		if err := l.BeginARU(); err != nil {
			t.Fatal(err)
		}
		mustWrite(t, l, b, []byte("never committed"))
		victim := l.cur.id
		if err := l.Flush(ld.FailPower); err != nil {
			t.Fatal(err)
		}
		if err := l.Shutdown(false); err != nil {
			t.Fatal(err)
		}
		l, err := Open(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		audit.Attach(l)
		if l.Stats().RecoveryDiscards == 0 {
			t.Fatal("the mount discarded no unit")
		}
		if s := &l.segs[victim]; s.state != segLive || s.live != 0 {
			t.Fatalf("segment %d mounted in state %d with %d live bytes", victim, s.state, s.live)
		}
		t0 := l.ts
		if err := cleanVictim(l, victim); err != nil {
			t.Fatal(err)
		}
		if audit.Victims != 1 || audit.Covered != 1 {
			t.Fatalf("audited %d victims, %d covered, want 1 and 1", audit.Victims, audit.Covered)
		}
		if got := restatedSince(l, t0); len(got) != 0 {
			t.Errorf("restated %v, want nothing", got)
		}
		l = reopenCrashedAfterFlush(t, d, l, opts)
		if got := mustRead(t, l, b); !bytes.Equal(got, []byte("checkpointed")) {
			t.Errorf("block %d reads %q", b, got)
		}
	})
}

// A victim with nothing live whose facts are all superseded costs neither a
// request nor an allocation: finding that out is two walks over the ids the
// usage table keeps for it.
func TestDeadVictimCostsNoAllocation(t *testing.T) {
	_, rec, l := newLoggedLLD(t, segIOOptions())
	victim, _ := hollowVictim(t, l)
	names, stamp := l.segs[victim].names, l.segs[victim].ts
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cleaning = true
	defer func() { l.cleaning = false }()
	// The rewrites that emptied the victim superseded its entries, but its
	// summary also holds the blocks' allocation records. Restate those
	// once: what is measured is a victim with nothing left to say.
	if err := l.relogSummaryFacts(names, stamp); err != nil {
		t.Fatal(err)
	}
	rec.take('r')
	before := l.stats.SnapshotTuples
	allocs := testing.AllocsPerRun(10, func() {
		if live := l.liveIn(victim, names); len(live) != 0 {
			t.Fatalf("segment %d has live blocks %v", victim, live)
		}
		if err := l.relogSummaryFacts(names, stamp); err != nil {
			t.Fatal(err)
		}
	})
	if reads := rec.take('r'); allocs != 0 || l.stats.SnapshotTuples != before || len(reads) != 0 {
		t.Errorf("a dead victim cost %.0f allocations, %d restatements and the reads %v",
			allocs, l.stats.SnapshotTuples-before, reads)
	}
}
