package lld

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ld"
)

// buildPressuredImage fills a disk until the free-segment pool is at or
// below lowWater, with rewrites creating dead space so a cleaning pass has
// real work, then crashes it and returns the raw image.
func buildPressuredImage(t *testing.T, capacity int64, opts Options, lowWater int) []byte {
	t.Helper()
	d, l := newTestLLD(t, capacity, opts)
	rng := rand.New(rand.NewSource(42))

	var lists []ld.ListID
	for i := 0; i < 3; i++ {
		lists = append(lists, mustNewList(t, l, ld.NilList, ld.ListHints{}))
	}
	var blocks []ld.BlockID
	var owners []ld.ListID
	for i := 0; l.FreeSegments() > lowWater; i++ {
		lid := lists[rng.Intn(len(lists))]
		b := mustNewBlock(t, l, lid, ld.NilBlock)
		mustWrite(t, l, b, bytes.Repeat([]byte{byte(i)}, 512+rng.Intn(2500)))
		blocks = append(blocks, b)
		owners = append(owners, lid)
		// Rewrites hollow out earlier segments so the cleaner has victims
		// worth processing.
		if i%4 == 3 {
			j := rng.Intn(len(blocks))
			mustWrite(t, l, blocks[j], bytes.Repeat([]byte{0xDD}, 256+rng.Intn(1024)))
		}
		if i%40 == 39 {
			if err := l.Flush(ld.FailPower); err != nil {
				t.Fatalf("Flush: %v", err)
			}
		}
		if i > 100000 {
			t.Fatal("disk never filled; workload broken")
		}
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatalf("final Flush: %v", err)
	}
	if err := l.Shutdown(false); err != nil {
		t.Fatalf("unclean shutdown: %v", err)
	}
	return d.Snapshot()
}

// TestBackgroundCleanEquivalence is the tentpole acceptance test: a
// watermark pass run by the background goroutine in single-victim steps
// must leave byte-identical durable state — and identical in-memory
// state — to the same pass run synchronously under one lock hold.
func TestBackgroundCleanEquivalence(t *testing.T) {
	opts := testOptions()
	const capacity = 2 << 20
	img := buildPressuredImage(t, capacity, opts, 6)

	runPass := func(background bool) ([]byte, string) {
		t.Helper()
		d := disk.New(disk.DefaultConfig(capacity))
		if err := d.Restore(img); err != nil {
			t.Fatalf("restore: %v", err)
		}
		o := opts
		o.CleanLow = 6
		o.CleanHigh = 10
		o.BackgroundClean = background
		l, err := Open(d, o)
		if err != nil {
			t.Fatalf("open (background=%v): %v", background, err)
		}
		if background {
			l.bg.signal()
			deadline := time.Now().Add(30 * time.Second)
			for {
				l.mu.Lock()
				done := l.stats.BGCleanPasses >= 1 && !l.cleaning
				l.mu.Unlock()
				if done {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("background pass did not complete")
				}
				time.Sleep(time.Millisecond)
			}
			l.stopBGClean()
			s := l.Stats()
			if s.BGCleanErrors != 0 {
				t.Fatalf("background pass errored (%d)", s.BGCleanErrors)
			}
			if s.BGCleanSteps < 2 {
				t.Fatalf("pass ran in %d steps; expected several bounded steps", s.BGCleanSteps)
			}
		} else {
			l.mu.Lock()
			err := l.cleanInline()
			l.mu.Unlock()
			if err != nil {
				t.Fatalf("inline pass: %v", err)
			}
		}
		if s := l.Stats(); s.SegmentsCleaned == 0 {
			t.Fatalf("pass (background=%v) cleaned nothing; image not pressured enough", background)
		}
		if viol := l.CheckInvariants(); len(viol) != 0 {
			t.Fatalf("invariants (background=%v): %v", background, viol)
		}
		fp := fingerprintInternal(l)
		if err := l.Shutdown(false); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		return d.Snapshot(), fp
	}

	syncImg, syncFP := runPass(false)
	bgImg, bgFP := runPass(true)
	if syncFP != bgFP {
		t.Errorf("in-memory state diverged:\n--- sync ---\n%s\n--- background ---\n%s", syncFP, bgFP)
	}
	if !bytes.Equal(syncImg, bgImg) {
		t.Error("durable disk images differ between synchronous and background cleaning")
	}
}

// TestBackgroundCleanRestocksPool: under sustained write pressure with the
// background cleaner enabled, the pool never deadlocks and the goroutine
// actually runs (passes and steps are recorded); writers that hit
// exhaustion block and are released rather than failing.
func TestBackgroundCleanRestocksPool(t *testing.T) {
	o := testOptions()
	o.BackgroundClean = true
	_, l := newTestLLD(t, 2<<20, o)

	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	var blocks []ld.BlockID
	for i := 0; i < 48; i++ {
		blocks = append(blocks, mustNewBlock(t, l, lid, ld.NilBlock))
	}
	// Heavy rewrite churn: every round supersedes the whole working set,
	// generating dead segments the goroutine must reclaim for the writes
	// to keep succeeding.
	payload := bytes.Repeat([]byte{0xAA}, 3000)
	for round := 0; round < 60; round++ {
		for _, b := range blocks {
			mustWrite(t, l, b, payload)
		}
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	s := l.Stats()
	if s.BGCleanPasses == 0 || s.BGCleanSteps == 0 {
		t.Fatalf("background cleaner never ran: %+v", s)
	}
	if s.SegmentsCleaned == 0 {
		t.Fatal("nothing cleaned under rewrite churn")
	}
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariants: %v", viol)
	}
	if err := l.Shutdown(true); err != nil {
		t.Fatalf("clean shutdown with background cleaner: %v", err)
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
// cleaner's skip path exists for. Callers must pass UtilizationLimit 1.0;
// no block id is allocated after the deletions, so the tombstones stay
// the newest records for their ids.
func buildStaleImage(t *testing.T, capacity int64, opts Options) []byte {
	t.Helper()
	if opts.UtilizationLimit != 1.0 {
		t.Fatalf("buildStaleImage needs UtilizationLimit 1.0, got %v", opts.UtilizationLimit)
	}
	d, l := newTestLLD(t, capacity, opts)
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
	if _, err := l.Clean(opts.CleanHigh); err != nil {
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
	opts.UtilizationLimit = 1.0
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
	cleaned, err := l.Clean(opts.CleanHigh)
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

// TestBackgroundCleanShutdownMidWait: a writer blocked on an exhausted
// pool must be released with ErrShutdown when the instance shuts down
// under it, not left asleep forever.
func TestBackgroundCleanShutdownMidWait(t *testing.T) {
	opts := testOptions()
	opts.UtilizationLimit = 1.0
	const capacity = 1 << 20
	img := buildStaleImage(t, capacity, opts)

	d := disk.New(disk.DefaultConfig(capacity))
	if err := d.Restore(img); err != nil {
		t.Fatal(err)
	}
	o := opts
	o.BackgroundClean = true
	l, err := Open(d, o)
	if err != nil {
		t.Fatal(err)
	}
	lid, err := l.NewList(ld.NilList, ld.ListHints{})
	if err != nil {
		t.Fatalf("NewList: %v", err)
	}

	// Writers hammer an exhausted instance; some will block in
	// awaitFreeSegment. Shutdown must release every one of them.
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func() {
			var last error
			for i := 0; i < 200; i++ {
				b, err := l.NewBlock(lid, ld.NilBlock)
				if err != nil {
					last = err
					break
				}
				if err := l.Write(b, bytes.Repeat([]byte{1}, 2048)); err != nil {
					last = err
					break
				}
			}
			errs <- last
		}()
	}
	time.Sleep(10 * time.Millisecond)
	if err := l.Shutdown(false); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for w := 0; w < 4; w++ {
		select {
		case err := <-errs:
			if err != nil && !errors.Is(err, ld.ErrNoSpace) && !errors.Is(err, ld.ErrShutdown) {
				t.Fatalf("writer %d: unexpected error %v", w, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("writer still blocked after Shutdown")
		}
	}
}

// TestRefusedShutdownKeepsWorkers: a clean Shutdown refused with ErrARUOpen
// leaves the instance as it found it — both background workers attached —
// and once the unit ends a second Shutdown succeeds and the image mounts
// from its checkpoint.
func TestRefusedShutdownKeepsWorkers(t *testing.T) {
	o := testOptions()
	o.BackgroundClean = true
	o.BackgroundScrub = true
	d, l := newTestLLD(t, 2<<20, o)
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	b := mustNewBlock(t, l, lid, ld.NilBlock)
	mustWrite(t, l, b, []byte("before the unit"))

	if err := l.BeginARU(); err != nil {
		t.Fatalf("BeginARU: %v", err)
	}
	mustWrite(t, l, b, []byte("inside the unit"))
	if err := l.Shutdown(true); !errors.Is(err, ld.ErrARUOpen) {
		t.Fatalf("Shutdown(true) mid-ARU = %v, want ErrARUOpen", err)
	}
	l.mu.Lock()
	bg, bgScrub := l.bg, l.bgScrub
	l.mu.Unlock()
	if bg == nil || bgScrub == nil {
		t.Fatalf("refused Shutdown detached workers: cleaner attached=%v scrubber attached=%v", bg != nil, bgScrub != nil)
	}
	if err := l.EndARU(); err != nil {
		t.Fatalf("EndARU: %v", err)
	}
	if err := l.Shutdown(true); err != nil {
		t.Fatalf("Shutdown(true) after EndARU: %v", err)
	}

	l2, err := Open(d, o)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if n := l2.RecoveryReport().SweptSegments; n != 0 {
		t.Errorf("reopen swept %d segments; want a checkpoint mount", n)
	}
	if got := mustRead(t, l2, b); string(got) != "inside the unit" {
		t.Errorf("block after reopen = %q", got)
	}
	if err := l2.Shutdown(true); err != nil {
		t.Fatalf("final shutdown: %v", err)
	}
}
