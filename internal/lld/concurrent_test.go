package lld

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
)

// These tests cover what crosses commands: the id pools through allocation
// churn, restart and recovery, and the LD commands racing each other on
// one instance at GOMAXPROCS 4 (meant to run under -race). The instance
// lock is all that stands between concurrent mutators, and what it must
// give — untorn contents, the reference model's list structure, clean
// invariants, the same state after a restart — is checked here.

// TestFreePoolChurn drives heavy id recycling through the free pool —
// delete, re-allocate, DeleteList, MoveBlocks — and audits the pool
// invariants after every phase, after a checkpointed restart, and after
// crash recovery.
func TestFreePoolChurn(t *testing.T) {
	o := testOptions()
	d, l := newTestLLD(t, 4<<20, o)
	rng := rand.New(rand.NewSource(9))

	audit := func(phase string) {
		t.Helper()
		if viol := l.CheckInvariants(); len(viol) != 0 {
			t.Fatalf("%s: invariant violations: %v", phase, viol)
		}
	}

	lids := []ld.ListID{
		mustNewList(t, l, ld.NilList, ld.ListHints{}),
		mustNewList(t, l, ld.NilList, ld.ListHints{}),
		mustNewList(t, l, ld.NilList, ld.ListHints{}),
	}
	type member struct {
		lid ld.ListID
		id  ld.BlockID
	}
	var live []member
	for i := 0; i < 120; i++ {
		lid := lids[rng.Intn(len(lids))]
		b := mustNewBlock(t, l, lid, ld.NilBlock)
		mustWrite(t, l, b, bytes.Repeat([]byte{byte(i)}, 64+rng.Intn(1000)))
		live = append(live, member{lid, b})
	}
	audit("allocate")

	for i := 0; i < 60; i++ {
		j := rng.Intn(len(live))
		if err := l.DeleteBlock(live[j].id, live[j].lid, ld.NilBlock); err != nil {
			t.Fatalf("DeleteBlock: %v", err)
		}
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	audit("delete")

	for i := 0; i < 40; i++ {
		lid := lids[rng.Intn(len(lids))]
		b := mustNewBlock(t, l, lid, ld.NilBlock)
		mustWrite(t, l, b, bytes.Repeat([]byte{0xAB}, 256))
		live = append(live, member{lid, b})
	}
	audit("reallocate")

	// Move a run between lists, then delete a whole list: both paths free
	// or retag a run of blocks at once.
	src, dst := lids[0], lids[1]
	if blocks, err := l.ListBlocks(src); err == nil && len(blocks) >= 3 {
		if err := l.MoveBlocks(blocks[0], blocks[2], src, dst, ld.NilBlock, ld.NilBlock); err != nil {
			t.Fatalf("MoveBlocks: %v", err)
		}
		for i := range live {
			if live[i].lid == src && (live[i].id == blocks[0] || live[i].id == blocks[1] || live[i].id == blocks[2]) {
				live[i].lid = dst
			}
		}
	}
	audit("move")
	if err := l.DeleteList(lids[2], ld.NilList); err != nil {
		t.Fatalf("DeleteList: %v", err)
	}
	keep := live[:0]
	for _, m := range live {
		if m.lid != lids[2] {
			keep = append(keep, m)
		}
	}
	live = keep
	audit("delete list")

	// Checkpointed restart rebuilds the pools from the checkpoint loader.
	if err := l.Shutdown(true); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	l2, err := Open(d, o)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	l = l2
	audit("checkpoint reload")

	// Crash recovery rebuilds them from the summary sweep.
	for i := 0; i < 20; i++ {
		j := rng.Intn(len(live))
		mustWrite(t, l, live[j].id, bytes.Repeat([]byte{0xCD}, 512))
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	if err := l.Shutdown(false); err != nil {
		t.Fatalf("crash: %v", err)
	}
	img := d.Snapshot()
	d2 := disk.New(disk.DefaultConfig(4 << 20))
	if err := d2.Restore(img); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(d2, o)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	l = l3
	audit("crash recovery")
}

// TestConcurrentWritersModel drives concurrent writers over disjoint block
// sets (every other list Compress-hinted) in deterministic
// barrier-separated rounds: within a round the interleaving is free (that
// is what is under test, especially with -race), across rounds the final
// state is schedule-independent, so it can be checked against the msModel
// reference model — list structure, member order, and contents — and
// re-checked after a restart.
func TestConcurrentWritersModel(t *testing.T) {
	const writers = 4
	const perWriter = 6
	const rounds = 20

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	_, l := newTestLLD(t, 8<<20, testOptions())

	model := &msModel{
		lists: make(map[ld.ListID][]ld.BlockID),
		tag:   make(map[ld.BlockID]byte),
	}
	tagOf := func(w, r, i int) byte { return byte(1 + (w*89+r*31+i*7)%255) }
	lenOf := func(w, r, i int) int { return 64 + (w*509+r*257+i*101)%1900 }

	blocks := make([][]ld.BlockID, writers)
	for w := 0; w < writers; w++ {
		hints := ld.ListHints{}
		if w%2 == 1 {
			hints.Compress = true
		}
		lid := mustNewList(t, l, ld.NilList, hints)
		model.order = append(model.order, lid)
		pred := ld.NilBlock
		for i := 0; i < perWriter; i++ {
			b := mustNewBlock(t, l, lid, pred)
			pred = b
			blocks[w] = append(blocks[w], b)
			model.lists[lid] = append(model.lists[lid], b)
			model.tag[b] = tagOf(w, rounds-1, i)
		}
	}

	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i, b := range blocks[w] {
					data := bytes.Repeat([]byte{tagOf(w, r, i)}, lenOf(w, r, i))
					if err := l.Write(b, data); err != nil {
						errs <- fmt.Errorf("writer %d round %d: %w", w, r, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	if got, want := canonLD(t, l), model.canon(); got != want {
		t.Errorf("after concurrent rounds: state differs from model\n--- model ---\n%s\n--- ld ---\n%s", want, got)
	}
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariant violations: %v", viol)
	}
	if got, want := l.Stats().BlocksWritten, int64(writers*perWriter*rounds); got != want {
		t.Errorf("BlocksWritten = %d, want %d", got, want)
	}

	// The agreed-on state must also be the durable one.
	d2, l2 := restartClean(t, l)
	defer func() { _ = d2 }()
	if got, want := canonLD(t, l2), model.canon(); got != want {
		t.Errorf("after restart: state differs from model\n--- model ---\n%s\n--- ld ---\n%s", want, got)
	}
}

// restartClean shuts l down cleanly and reopens the same platter image in
// a fresh instance with the same options.
func restartClean(t *testing.T, l *LLD) (*disk.Disk, *LLD) {
	t.Helper()
	if err := l.Shutdown(true); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	d, ok := l.dsk.(*disk.Disk)
	if !ok {
		t.Fatalf("restartClean: backend is %T, not *disk.Disk", l.dsk)
	}
	l2, err := Open(d, l.opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return d, l2
}

// TestConcurrentMixedOps races writers against the commands that change a
// block's logical state — DeleteBlock, DeleteList, MoveBlocks, NewBlock —
// plus the explicit cleaner and reorganizer, and requires uniform (untorn)
// block contents and clean invariants at the end: the guarantee the block
// map's lock stripes used to give is the instance lock's alone.
func TestConcurrentMixedOps(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	_, l := newTestLLD(t, 8<<20, testOptions())

	shared := mustNewList(t, l, ld.NilList, ld.ListHints{})
	var sharedBlocks []ld.BlockID
	for i := 0; i < 9; i++ {
		sharedBlocks = append(sharedBlocks, mustNewBlock(t, l, shared, ld.NilBlock))
	}

	const hammerers = 3
	const hammerOps = 250
	var wg, cleanWG sync.WaitGroup
	fail := make(chan error, hammerers+3)

	// Hammerers: overlapping writes to the SAME blocks from different
	// goroutines; last writer wins, but every read must see one writer's
	// complete payload.
	for w := 0; w < hammerers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < hammerOps; i++ {
				b := sharedBlocks[rng.Intn(len(sharedBlocks))]
				tag := byte(1 + (w*97+i)%255)
				if err := l.Write(b, bytes.Repeat([]byte{tag}, 64+rng.Intn(2000))); err != nil {
					fail <- fmt.Errorf("hammerer %d: %w", w, err)
					return
				}
			}
		}(w)
	}

	// Churner: allocate/delete on its own list, recycling ids through the
	// free pool while the hammerers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		churn, err := l.NewList(ld.NilList, ld.ListHints{})
		if err != nil {
			fail <- err
			return
		}
		rng := rand.New(rand.NewSource(200))
		var mine []ld.BlockID
		for i := 0; i < 200; i++ {
			if len(mine) > 0 && rng.Intn(3) == 0 {
				j := rng.Intn(len(mine))
				if err := l.DeleteBlock(mine[j], churn, ld.NilBlock); err != nil {
					fail <- fmt.Errorf("churner delete: %w", err)
					return
				}
				mine[j] = mine[len(mine)-1]
				mine = mine[:len(mine)-1]
				continue
			}
			b, err := l.NewBlock(churn, ld.NilBlock)
			if err != nil {
				fail <- fmt.Errorf("churner alloc: %w", err)
				return
			}
			if err := l.Write(b, bytes.Repeat([]byte{0x55}, 64+rng.Intn(500))); err != nil {
				fail <- fmt.Errorf("churner write: %w", err)
				return
			}
			mine = append(mine, b)
		}
	}()

	// Surgeon: MoveBlocks and DeleteList retag and free whole runs while
	// the others write single blocks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			a, err := l.NewList(ld.NilList, ld.ListHints{})
			if err != nil {
				fail <- err
				return
			}
			b, err := l.NewList(ld.NilList, ld.ListHints{})
			if err != nil {
				fail <- err
				return
			}
			var run []ld.BlockID
			pred := ld.NilBlock
			for j := 0; j < 4; j++ {
				blk, err := l.NewBlock(a, pred)
				if err != nil {
					fail <- err
					return
				}
				pred = blk
				run = append(run, blk)
				if err := l.Write(blk, bytes.Repeat([]byte{0x77}, 300)); err != nil {
					fail <- err
					return
				}
			}
			if err := l.MoveBlocks(run[0], run[3], a, b, ld.NilBlock, ld.NilBlock); err != nil {
				fail <- fmt.Errorf("surgeon move: %w", err)
				return
			}
			if err := l.DeleteList(b, ld.NilList); err != nil {
				fail <- fmt.Errorf("surgeon delete list b: %w", err)
				return
			}
			if err := l.DeleteList(a, ld.NilList); err != nil {
				fail <- fmt.Errorf("surgeon delete list a: %w", err)
				return
			}
		}
	}()

	// Explicit cleaner and reorganizer compete for the instance lock.
	stopClean := make(chan struct{})
	cleanWG.Add(1)
	go func() {
		defer cleanWG.Done()
		for {
			select {
			case <-stopClean:
				return
			default:
			}
			if _, err := l.Clean(1); err != nil {
				fail <- fmt.Errorf("clean: %w", err)
				return
			}
			if err := l.Reorganize(1); err != nil {
				fail <- fmt.Errorf("reorganize: %w", err)
				return
			}
		}
	}()

	wg.Wait()
	close(stopClean)
	cleanWG.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}

	// Every shared block must hold one writer's complete payload.
	buf := make([]byte, l.MaxBlockSize())
	for _, b := range sharedBlocks {
		n, err := l.Read(b, buf)
		if err != nil {
			t.Fatalf("read %d: %v", b, err)
		}
		if n > 0 && !bytes.Equal(buf[:n], bytes.Repeat([]byte{buf[0]}, n)) {
			t.Errorf("block %d holds torn content", b)
		}
	}
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariant violations: %v", viol)
	}
}
