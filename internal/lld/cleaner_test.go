package lld

import (
	"bytes"
	"errors"
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
		want int
	}{
		{"nothing live anywhere", 100, []segInfo{{state: segFree}, {state: segOpen}, {state: segCooling}, {state: segQuarantined}}, -1},
		{"an empty segment before a cold, nearly empty one", 1000, []segInfo{live(0.05, 1), live(0, 999)}, 1},
		{"the oldest empty segment first", 1000, []segInfo{live(0, 50), live(0, 20), live(0, 30)}, 1},
		// 0.8*100/0.4 = 200 against 0.5*1000/1.0 = 500: fewest live bytes
		// would take the first, the rule takes the old half-full one.
		{"benefit over cost, not fewest live bytes", 1000, []segInfo{live(0.2, 901), live(0.5, 1)}, 1},
		// 0.8*10/0.4 = 20 against 0.5*20/1.0 = 10.
		{"emptier wins when the ages are close", 1000, []segInfo{live(0.5, 981), live(0.2, 991)}, 1},
		{"a full segment is never picked, however old", 1000, []segInfo{live(1, 1)}, -1},
		{"a full segment does not hide a victim", 1000, []segInfo{live(1, 1), live(0.9, 990)}, 1},
		{"only live segments qualify", 1000, []segInfo{{state: segQuarantined, ts: 1}, {state: segCooling, ts: 2}, live(0.9, 999)}, 2},
		// float64 holds 53 bits: stamps 2^60-2 and 2^60-3 are one number to
		// it, and an age of 2^60 is no sentinel an empty segment must beat.
		{"the two levels survive ages of 2^53 and more", 1 << 60, []segInfo{live(0.01, 1), live(0, 1<<60-2), live(0, 1<<60-3)}, 2},
	} {
		l.ts, l.segs = tc.now, tc.segs
		if got := l.pickVictim(); got != tc.want {
			t.Errorf("%s: picked %d, want %d", tc.name, got, tc.want)
		}
	}
}

// Ninety per cent of the writes go to a tenth of the blocks of a disk 54 %
// full, for eight laps of the log. Fewest-live-bytes keeps picking the
// segments the hot blocks just left, which the cold blocks that rode along
// with them keep two-thirds full; cost-benefit lets those age and takes
// colder, emptier ones. The history is fixed by the seed, so greedy's figure
// is a constant: recorded from this test with pickVictim's old default,
// fewest live bytes, oldest on ties (5,600 of 10,800 on format v5's
// geometry; format v6's disk holds more segments, so a lap writes more).
func TestVictimRuleMovesLessThanGreedyOnHotCold(t *testing.T) {
	const (
		seed         = 7
		laps         = 8
		greedyMoved  = 6355 // blocks moved over the measured laps
		userWritten  = 11520
		greedyPerOp  = float64(greedyMoved) / userWritten // 0.552
		wantAtMostOf = 0.75                               // of greedy's; measured 0.54 (3,405 moved, 0.296 a write)
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
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariants: %v", viol)
	}
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

// A victim with nothing live costs neither a request nor an allocation:
// finding that out is one walk over the ids the usage table keeps for it.
func TestDeadVictimCostsNoAllocation(t *testing.T) {
	_, rec, l := newLoggedLLD(t, segIOOptions())
	victim, _ := hollowVictim(t, l)
	names := l.segs[victim].names
	l.mu.Lock()
	defer l.mu.Unlock()
	rec.take('r')
	allocs := testing.AllocsPerRun(10, func() {
		if live := l.liveIn(victim, names); len(live) != 0 {
			t.Fatalf("segment %d has live blocks %v", victim, live)
		}
	})
	if reads := rec.take('r'); allocs != 0 || len(reads) != 0 {
		t.Errorf("a dead victim cost %.0f allocations and the reads %v", allocs, reads)
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
// drains the free-segment pool, so every segment ends up carrying a
// summary), then runs a bounded deletion and rewrite burst to hollow out
// some segments and pin tombstone facts into others, and crashes it.
// Recovery of such an image finds no free segment and no open segment
// (only never-written segments recover as free): the cleaner has to free
// one before anything can be logged. The fill needs the utilization limit
// out of the way (noHeadroom); no block id is allocated after the
// deletions, so the tombstones stay the newest records for their ids.
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
	// Keep writing until every segment has carried a summary: the log
	// opens segments in address order, so it reaches each within a lap.
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
	// ids are never reallocated), so that segment recovers zero-live and
	// holds the only record of those deletions.
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
	lay := l.lay
	l.mu.RUnlock()
	if err := l.Shutdown(false); err != nil {
		t.Fatalf("unclean shutdown: %v", err)
	}
	img := d.Snapshot()
	// Tear both checkpoint pointer slots so that recovery takes the pure
	// one-sweep path. Every segment then recovers from its summary alone,
	// and since all carry one, none recovers free.
	for slot := 0; slot < 2; slot++ {
		clear(img[lay.pointerOff(slot) : lay.pointerOff(slot)+int64(lay.pointerSize())])
	}
	return img
}

// TestCleanBootstrapSkip is the regression test for explicit Clean on a
// space-tight disk: when no segment is free and none is open, Clean must
// free segments — a victim with nothing live needs no room to clean — and
// the disk must accept writes again, instead of returning ErrNoSpace.
func TestCleanBootstrapSkip(t *testing.T) {
	opts := testOptions()
	const capacity = 1 << 20
	img := buildStaleImage(t, capacity, opts)
	d := disk.New(disk.DefaultConfig(capacity))
	if err := d.Restore(img); err != nil {
		t.Fatalf("restore: %v", err)
	}
	l, err := Open(d, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l.noHeadroom()
	l.mu.Lock()
	bootstrap := len(l.freeSegs) == 0 && l.cur == nil
	l.mu.Unlock()
	if !bootstrap {
		t.Fatalf("image recovered with free or open segments; not the bootstrap state")
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
