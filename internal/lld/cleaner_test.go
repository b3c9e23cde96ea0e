package lld

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
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

// TestReorganizeCleans pins the documented behavior of Reorganize: after
// rewriting cluster-hinted lists it must invoke the cleaner, so the space
// the rewrites hollowed out actually returns to the free pool.
func TestReorganizeCleans(t *testing.T) {
	o := testOptions()
	_, l := newTestLLD(t, 4<<20, o)
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{Cluster: true})
	var blocks []ld.BlockID
	for i := 0; i < 40; i++ {
		b := mustNewBlock(t, l, lid, ld.NilBlock)
		mustWrite(t, l, b, bytes.Repeat([]byte{byte(i)}, 3000))
		blocks = append(blocks, b)
	}
	// Scatter the list across segments with interleaved rewrites, then
	// seal everything so there are closed victims to clean.
	for i := 0; i < 40; i += 2 {
		mustWrite(t, l, blocks[i], bytes.Repeat([]byte{0xBB}, 3000))
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}

	before := l.Stats()
	if err := l.Reorganize(2); err != nil {
		t.Fatalf("Reorganize: %v", err)
	}
	after := l.Stats()
	if after.SegmentsCleaned <= before.SegmentsCleaned {
		t.Fatalf("Reorganize cleaned no segments (%d before, %d after); the documented trailing clean is missing",
			before.SegmentsCleaned, after.SegmentsCleaned)
	}
	// Contents survive the reorganization.
	for i, b := range blocks {
		want := byte(i)
		if i%2 == 0 {
			want = 0xBB
		}
		got := mustRead(t, l, b)
		if len(got) != 3000 || got[0] != want || got[2999] != want {
			t.Fatalf("block %d corrupted by Reorganize", i)
		}
	}
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariants: %v", viol)
	}
}

// buildStaleImage fills a small disk to physical exhaustion (the pure fill
// drains the free-segment stack, so every segment ends up carrying a
// summary), then runs a bounded deletion and rewrite burst to hollow out
// some segments and pin tombstone facts into others, and crashes it.
// Recovery of such an image finds no free segment and no open segment
// (only never-written segments recover as free) — the bootstrap state the
// cleaner's skip path exists for. The fill needs the utilization limit out
// of the way (noHeadroom); no block id is allocated after the deletions,
// so the tombstones stay the newest records for their ids.
func buildStaleImage(t *testing.T, capacity int64, opts Options) []byte {
	t.Helper()
	d, l := newTestLLD(t, capacity, opts)
	l.noHeadroom()
	rng := rand.New(rand.NewSource(9))
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	var blocks []ld.BlockID
	for i := 0; ; i++ {
		l.mu.RLock()
		drained := len(l.freeSegs) == 0
		l.mu.RUnlock()
		if drained {
			break
		}
		b, err := l.NewBlock(lid, ld.NilBlock)
		if err == nil {
			err = l.Write(b, bytes.Repeat([]byte{byte(i)}, 1024+rng.Intn(2048)))
		}
		if errors.Is(err, ld.ErrNoSpace) {
			break
		}
		if err != nil {
			t.Fatalf("fill op %d: %v", i, err)
		}
		blocks = append(blocks, b)
		if i > 10000 {
			t.Fatal("free pool never drained; geometry changed?")
		}
	}
	// The pool is a LIFO stack and cleaning feeds its top, so the bottom
	// segments may never have been popped. Rotate untouched segments to
	// the pop end (order is a heuristic; membership is the invariant) and
	// keep writing until every segment has carried a summary.
	for guard := 0; ; guard++ {
		if guard > 1000 {
			t.Fatal("could not touch every segment")
		}
		l.mu.Lock()
		untouched := 0
		for i := range l.segs {
			if l.segs[i].ts == 0 {
				untouched++
			}
		}
		if untouched == 0 {
			l.mu.Unlock()
			break
		}
		sort.SliceStable(l.freeSegs, func(a, b int) bool {
			return l.segs[l.freeSegs[a]].ts != 0 && l.segs[l.freeSegs[b]].ts == 0
		})
		l.mu.Unlock()
		b, err := l.NewBlock(lid, ld.NilBlock)
		if err == nil {
			err = l.Write(b, bytes.Repeat([]byte{byte(guard)}, 1024+rng.Intn(2048)))
			if err == nil {
				blocks = append(blocks, b)
			}
		}
		if err != nil && !errors.Is(err, ld.ErrNoSpace) {
			t.Fatalf("touch write: %v", err)
		}
	}
	// A fixed-size rewrite burst churns the disk so the cleaner relocates
	// data and strands stale, fully-superseded summaries. Every op count
	// is bounded, so the builder terminates even though each op may
	// trigger a cleaning pass.
	for i := 0; i < 60; i++ {
		j := rng.Intn(len(blocks))
		err := l.Write(blocks[j], bytes.Repeat([]byte{byte(j)}, 800+rng.Intn(2200)))
		if err != nil && !errors.Is(err, ld.ErrNoSpace) {
			t.Fatalf("rewrite %d: %v", i, err)
		}
	}
	// Restock the pool, then isolate a deletion burst in its own fresh
	// segment: its tombstones stay the newest records for their ids (the
	// ids are never reallocated), so that segment recovers zero-live yet
	// fact-bound — cleaning it must re-log the tombstones, which needs
	// room the bootstrap state does not have.
	if _, err := l.Clean(cleanHigh); err != nil {
		t.Fatalf("Clean: %v", err)
	}
	l.mu.Lock()
	if l.cur != nil {
		if err := l.sealSegment(); err != nil {
			l.mu.Unlock()
			t.Fatalf("seal: %v", err)
		}
	}
	l.mu.Unlock()
	for i := 0; i < 20; i++ {
		b := blocks[len(blocks)-1]
		blocks = blocks[:len(blocks)-1]
		if err := l.DeleteBlock(b, lid, ld.NilBlock); err != nil {
			t.Fatalf("DeleteBlock: %v", err)
		}
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	l.mu.RLock()
	for i := range l.segs {
		if l.segs[i].ts == 0 {
			l.mu.RUnlock()
			t.Fatalf("segment %d never written; fill too short for this geometry", i)
		}
	}
	ckptOff, ckptSize := l.lay.checkpointOff, l.lay.checkpointSize
	l.mu.RUnlock()
	if err := l.Shutdown(false); err != nil {
		t.Fatalf("unclean shutdown: %v", err)
	}
	img := d.Snapshot()
	// Tear both checkpoint slots (as a crash mid-checkpoint can) so that
	// recovery takes the pure one-sweep path. Every segment then recovers
	// from its summary alone, and since all carry one, none recovers free.
	ss := d.SectorSize()
	for slot := 0; slot < 2; slot++ {
		off := ckptOff + int64(slot)*ckptSize
		for i := 0; i < ss; i++ {
			img[off+int64(i)] = 0
		}
	}
	return img
}

// TestCleanBootstrapSkip is the regression test for explicit Clean on a
// space-tight disk: when no segment is free, none is open, and the
// top-ranked victim's facts cannot be re-logged for lack of room, Clean
// must set that victim aside and free a fully-superseded one — exactly as
// the watermark path does — instead of returning ErrNoSpace.
func TestCleanBootstrapSkip(t *testing.T) {
	opts := testOptions()
	const capacity = 1 << 20
	img := buildStaleImage(t, capacity, opts)

	reopen := func() *LLD {
		t.Helper()
		d := disk.New(disk.DefaultConfig(capacity))
		if err := d.Restore(img); err != nil {
			t.Fatalf("restore: %v", err)
		}
		l, err := Open(d, opts)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		l.noHeadroom()
		return l
	}

	// Probe the image: among the zero-live victims, which the victim rule ranks
	// first, find one that is fact-bound (cleaning it needs room to re-log
	// and fails with ErrNoSpace) and confirm another frees directly. Each
	// probe gets a fresh instance since cleanSegment mutates on success.
	l0 := reopen()
	l0.mu.Lock()
	if len(l0.freeSegs) != 0 || l0.cur != nil {
		l0.mu.Unlock()
		t.Fatalf("image recovered with free or open segments; not the bootstrap state")
	}
	var zeroLive []int
	for i := range l0.segs {
		if l0.segs[i].state == segLive && l0.segs[i].live == 0 {
			zeroLive = append(zeroLive, i)
		}
	}
	l0.mu.Unlock()
	factBound, freeable := -1, false
	for _, v := range zeroLive {
		li := reopen()
		li.mu.Lock()
		li.cleaning = true
		err := li.cleanSegment(v)
		li.cleaning = false
		li.mu.Unlock()
		switch {
		case errors.Is(err, ld.ErrNoSpace):
			if factBound < 0 {
				factBound = v
			}
		case err == nil:
			freeable = true
		default:
			t.Fatalf("probe of segment %d: %v", v, err)
		}
	}
	if factBound < 0 {
		t.Fatalf("no fact-bound zero-live segment among %v; workload needs tuning", zeroLive)
	}
	if !freeable {
		t.Fatalf("no directly-freeable segment among %v; workload needs tuning", zeroLive)
	}

	// The regression: when the victim the rule ranks first — the oldest
	// empty segment — is the fact-bound one, Clean must get past it (a
	// consolidation that makes its facts droppable, or setting it aside for
	// a superseded one) instead of returning its ErrNoSpace. The fact-bound
	// segment holds the deletion burst, the newest records on the disk, so
	// it ranks last: re-date it, stamp and records, to the beginning of
	// time. Every field its records assigned (anything stamped after the
	// segment sealed before it) moves with the stamp, so the cleaner still
	// finds them to be the victim's own.
	l := reopen()
	l.mu.Lock()
	var prev uint64
	for i := range l.segs {
		if ts := l.segs[i].ts; i != factBound && ts > prev {
			prev = ts
		}
	}
	redate := func(ts *uint64) {
		if *ts > prev {
			*ts = 1
		}
	}
	names := l.segs[factBound].names
	for _, b := range names.exist() {
		redate(&l.blocks[b].existTS)
		redate(&l.blocks[b].linkTS)
	}
	for _, b := range names.data() {
		redate(&l.blocks[b].dataTS)
	}
	for _, v := range names.lists() {
		if li := l.lists[ld.ListID(v)]; li != nil {
			redate(&li.existTS)
			redate(&li.headTS)
			redate(&li.orderTS)
		}
	}
	l.segs[factBound].ts = 1
	if first := l.pickVictim(nil); first != factBound {
		l.mu.Unlock()
		t.Fatalf("segment %d ranks first, want the fact-bound segment %d", first, factBound)
	}
	l.cleaning = true
	err := l.cleanSegment(factBound)
	l.cleaning = false
	l.mu.Unlock()
	if !errors.Is(err, ld.ErrNoSpace) {
		t.Fatalf("cleaning the re-dated segment %d: %v, want ErrNoSpace", factBound, err)
	}
	cleaned, err := l.Clean(cleanHigh)
	if err != nil {
		t.Fatalf("Clean on a space-tight disk: %v", err)
	}
	if cleaned == 0 {
		t.Fatal("Clean freed nothing on a disk with superseded segments")
	}
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariants after bootstrap Clean: %v", viol)
	}
	// And the disk accepts writes again afterwards.
	lid, err := l.NewList(ld.NilList, ld.ListHints{})
	if err != nil {
		t.Fatalf("NewList after bootstrap Clean: %v", err)
	}
	b, err := l.NewBlock(lid, ld.NilBlock)
	if err != nil {
		t.Fatalf("NewBlock after bootstrap Clean: %v", err)
	}
	if err := l.Write(b, []byte("recovered")); err != nil {
		t.Fatalf("Write after bootstrap Clean: %v", err)
	}
}
