package lld

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
)

// captureState reads the complete logical state of an LD: the list of
// lists, each list's blocks in order, and every block's contents.
func captureState(t *testing.T, l *LLD) map[ld.ListID][]string {
	t.Helper()
	state := make(map[ld.ListID][]string)
	lists, err := l.Lists()
	if err != nil {
		t.Fatalf("Lists: %v", err)
	}
	for _, lid := range lists {
		ids, err := l.ListBlocks(lid)
		if err != nil {
			t.Fatalf("ListBlocks(%d): %v", lid, err)
		}
		var row []string
		for _, b := range ids {
			buf := make([]byte, l.MaxBlockSize())
			n, err := l.Read(b, buf)
			if err != nil {
				t.Fatalf("Read(%d): %v", b, err)
			}
			row = append(row, fmt.Sprintf("%d:%x", b, buf[:n]))
		}
		state[lid] = row
	}
	return state
}

func diffState(t *testing.T, want, got map[ld.ListID][]string, context string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d lists, want %d", context, len(got), len(want))
	}
	for lid, w := range want {
		g, ok := got[lid]
		if !ok {
			t.Fatalf("%s: list %d missing", context, lid)
		}
		if len(g) != len(w) {
			t.Fatalf("%s: list %d has %d blocks, want %d", context, lid, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: list %d block %d: %.60s..., want %.60s...", context, lid, i, g[i], w[i])
			}
		}
	}
}

// crashAndRecover simulates a host crash (in-memory state lost, disk
// intact) followed by a restart that runs the one-sweep recovery.
func crashAndRecover(t *testing.T, d *disk.Disk, l *LLD) *LLD {
	t.Helper()
	if err := l.Shutdown(false); err != nil {
		t.Fatalf("unclean shutdown: %v", err)
	}
	l2, err := Open(d, testOptions())
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	if l2.Stats().RecoverySweepSegments == 0 {
		t.Fatal("recovery did not sweep")
	}
	if viol := l2.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("recovered state violates invariants: %v", viol)
	}
	return l2
}

func TestRecoveryAfterFlush(t *testing.T) {
	d, l := newTestLLD(t, 8<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	prev := ld.NilBlock
	for i := 0; i < 25; i++ {
		b := mustNewBlock(t, l, lid, prev)
		mustWrite(t, l, b, bytes.Repeat([]byte{byte(i + 1)}, 100*(i%7)+1))
		prev = b
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, l)
	l2 := crashAndRecover(t, d, l)
	diffState(t, want, captureState(t, l2), "after flush+crash")
	if l2.Stats().RecoveryAnomalies != 0 {
		t.Fatalf("%d recovery anomalies", l2.Stats().RecoveryAnomalies)
	}
}

func TestRecoveryLosesUnflushedTail(t *testing.T) {
	d, l := newTestLLD(t, 8<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	a := mustNewBlock(t, l, lid, ld.NilBlock)
	mustWrite(t, l, a, []byte("durable"))
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, l)
	// These updates are never flushed; the paper's recovery model loses
	// anything after the last segment write.
	b := mustNewBlock(t, l, lid, a)
	mustWrite(t, l, b, []byte("volatile"))
	mustWrite(t, l, a, []byte("volatile-overwrite"))

	l2 := crashAndRecover(t, d, l)
	diffState(t, want, captureState(t, l2), "unflushed tail")
}

func TestRecoveryPartialThenMoreWrites(t *testing.T) {
	// A partial write followed by more fills and a seal of the same
	// segment: recovery must see the final image.
	d, l := newTestLLD(t, 8<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	a := mustNewBlock(t, l, lid, ld.NilBlock)
	mustWrite(t, l, a, []byte("first"))
	if err := l.Flush(ld.FailPower); err != nil { // partial
		t.Fatal(err)
	}
	prev := a
	for i := 0; i < 8; i++ { // fill past capacity: seals in place
		b := mustNewBlock(t, l, lid, prev)
		mustWrite(t, l, b, bytes.Repeat([]byte{byte(i)}, 4096))
		prev = b
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, l)
	l2 := crashAndRecover(t, d, l)
	diffState(t, want, captureState(t, l2), "partial then seal")
}

func TestARUAtomicityAcrossCrash(t *testing.T) {
	d, l := newTestLLD(t, 8<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	a := mustNewBlock(t, l, lid, ld.NilBlock)
	mustWrite(t, l, a, []byte("base"))
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, l)

	// An ARU that is flushed but never ended must roll back entirely:
	// the "create file + update directory" example of paper §2.1.
	if err := l.BeginARU(); err != nil {
		t.Fatal(err)
	}
	nb := mustNewBlock(t, l, lid, a)
	mustWrite(t, l, nb, []byte("new file block"))
	mustWrite(t, l, a, []byte("updated directory"))
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}

	l2 := crashAndRecover(t, d, l)
	diffState(t, want, captureState(t, l2), "incomplete ARU")
}

func TestARUCommitSurvivesCrash(t *testing.T) {
	d, l := newTestLLD(t, 8<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	a := mustNewBlock(t, l, lid, ld.NilBlock)
	mustWrite(t, l, a, []byte("base"))

	if err := l.BeginARU(); err != nil {
		t.Fatal(err)
	}
	nb := mustNewBlock(t, l, lid, a)
	mustWrite(t, l, nb, []byte("new file block"))
	mustWrite(t, l, a, []byte("updated directory"))
	if err := l.EndARU(); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, l)
	l2 := crashAndRecover(t, d, l)
	diffState(t, want, captureState(t, l2), "committed ARU")
}

func TestARUCommittedByLaterOperation(t *testing.T) {
	// The paper's deferral rule: an ARU whose EndARU record is followed by
	// any later committed record is applied even if recovery encounters
	// them out of segment order.
	d, l := newTestLLD(t, 8<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	if err := l.BeginARU(); err != nil {
		t.Fatal(err)
	}
	a := mustNewBlock(t, l, lid, ld.NilBlock)
	mustWrite(t, l, a, []byte("inside ARU"))
	if err := l.EndARU(); err != nil {
		t.Fatal(err)
	}
	// A later standalone committed operation.
	b := mustNewBlock(t, l, lid, a)
	mustWrite(t, l, b, []byte("after ARU"))
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, l)
	l2 := crashAndRecover(t, d, l)
	diffState(t, want, captureState(t, l2), "ARU committed by later op")
}

func TestTornSegmentWriteIsIgnored(t *testing.T) {
	d, l := newTestLLD(t, 8<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	a := mustNewBlock(t, l, lid, ld.NilBlock)
	mustWrite(t, l, a, []byte("durable state"))
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, l)

	// Now write more and crash the disk partway through the next flush.
	b := mustNewBlock(t, l, lid, a)
	mustWrite(t, l, b, bytes.Repeat([]byte{0xEE}, 4096))
	d.InjectCrashAfterSectors(3)
	if err := l.Flush(ld.FailPower); err == nil {
		t.Fatal("flush during crash should fail")
	}
	_ = l.Shutdown(false)
	d.ClearCrash()

	l2, err := Open(d, testOptions())
	if err != nil {
		t.Fatalf("open after torn write: %v", err)
	}
	diffState(t, want, captureState(t, l2), "torn segment write")
}

func TestRecoveryAfterDeleteAndReuse(t *testing.T) {
	d, l := newTestLLD(t, 8<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	var ids []ld.BlockID
	prev := ld.NilBlock
	for i := 0; i < 12; i++ {
		b := mustNewBlock(t, l, lid, prev)
		mustWrite(t, l, b, bytes.Repeat([]byte{byte(i)}, 256))
		ids = append(ids, b)
		prev = b
	}
	// Delete some in the middle, recreate (reusing numbers), delete a
	// whole list, recreate the list id.
	for _, i := range []int{3, 5, 7} {
		if err := l.DeleteBlock(ids[i], lid, ld.NilBlock); err != nil {
			t.Fatal(err)
		}
	}
	other := mustNewList(t, l, lid, ld.ListHints{})
	ob := mustNewBlock(t, l, other, ld.NilBlock)
	mustWrite(t, l, ob, []byte("other"))
	if err := l.DeleteList(other, lid); err != nil {
		t.Fatal(err)
	}
	again := mustNewList(t, l, lid, ld.ListHints{})
	ab := mustNewBlock(t, l, again, ld.NilBlock)
	mustWrite(t, l, ab, []byte("again"))

	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, l)
	l2 := crashAndRecover(t, d, l)
	diffState(t, want, captureState(t, l2), "delete and reuse")
}

func TestRecoveryAfterMoveAndSwap(t *testing.T) {
	d, l := newTestLLD(t, 8<<20, testOptions())
	a := mustNewList(t, l, ld.NilList, ld.ListHints{})
	b := mustNewList(t, l, a, ld.ListHints{})
	var as []ld.BlockID
	prev := ld.NilBlock
	for i := 0; i < 6; i++ {
		blk := mustNewBlock(t, l, a, prev)
		mustWrite(t, l, blk, []byte{byte(10 + i)})
		as = append(as, blk)
		prev = blk
	}
	if err := l.MoveBlocks(as[1], as[3], a, b, ld.NilBlock, as[0]); err != nil {
		t.Fatal(err)
	}
	if err := l.SwapContents(as[0], as[5]); err != nil {
		t.Fatal(err)
	}
	if err := l.MoveList(b, ld.NilList, a); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, l)
	l2 := crashAndRecover(t, d, l)
	diffState(t, want, captureState(t, l2), "move and swap")
}

// TestReplayPlacesListsAfterAMovedDeadList pins replay's ghost rule. A
// tMoveList for a list that a newer-than-it tDelList has already killed
// still moves the id in the list of lists, so a list logged as created after
// the dead one lands where the running instance put it; the ghost itself is
// dropped when replay ends. Without the ghost, L3 would go to the front.
func TestReplayPlacesListsAfterAMovedDeadList(t *testing.T) {
	o := testOptions()
	d := disk.New(disk.DefaultConfig(4 << 20))
	if err := Format(d, o); err != nil {
		t.Fatal(err)
	}
	lay, err := computeLayout(d.Capacity(), d.SectorSize(), o)
	if err != nil {
		t.Fatal(err)
	}
	const l1, l2, l3 = 1, 2, 3
	rec := func(kind uint8, ts uint64, args ...uint32) tupleRec {
		r := tupleRec{kind: kind, flags: tupleCommitted, ts: ts}
		copy(r.args[:], args)
		return r
	}
	tuples := []tupleRec{
		rec(tNewList, 1, l1, uint32(ld.NilList), 0),
		rec(tNewList, 2, l2, l1, 0),
		rec(tDelList, 3, l1),
		rec(tMoveList, 4, l1, l2),
		rec(tNewList, 5, l3, l1, 0),
	}
	seg := make([]byte, lay.segmentSize)
	used, err := encodeSummary(seg, lay, 0, 5, 0, true, 0, nil, tuples)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt(seg[lay.dataCap():lay.dataCap()+used], lay.sumOff(0, 0)); err != nil {
		t.Fatal(err)
	}
	l, err := Open(d, o)
	if err != nil {
		t.Fatal(err)
	}
	lists, err := l.Lists()
	if err != nil {
		t.Fatal(err)
	}
	if want := []ld.ListID{l2, l3}; !slices.Equal(lists, want) {
		t.Errorf("Lists() = %v, want %v", lists, want)
	}
	if _, err := l.ListBlocks(l1); !errors.Is(err, ld.ErrBadList) {
		t.Errorf("ListBlocks(deleted L1) = %v, want ErrBadList", err)
	}
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Errorf("invariants: %v", viol)
	}
	if n := l.Stats().RecoveryAnomalies; n != 0 {
		t.Errorf("%d recovery anomalies", n)
	}
}

func TestRecoveryAfterCleaning(t *testing.T) {
	// Fill, delete half to create fragmented segments, force cleaning,
	// then crash: the cleaner's re-logged facts must fully reconstruct.
	d, l := newTestLLD(t, 4<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{Cluster: true})
	var ids []ld.BlockID
	prev := ld.NilBlock
	data := bytes.Repeat([]byte{0xAB}, 4096)
	for i := 0; ; i++ {
		b, err := l.NewBlock(lid, prev)
		if err != nil {
			break
		}
		if err := l.Write(b, data); err != nil {
			break
		}
		ids = append(ids, b)
		prev = b
		if l.LiveBytes() > l.UsableBytes()*2/3 {
			break
		}
	}
	// Delete every other block; then overwrite to force cleaning activity.
	kept := ids[:0:0]
	for i, b := range ids {
		if i%2 == 0 {
			if err := l.DeleteBlock(b, lid, ld.NilBlock); err != nil {
				t.Fatal(err)
			}
		} else {
			kept = append(kept, b)
		}
	}
	for round := 0; round < 3; round++ {
		for i, b := range kept {
			if err := l.Write(b, bytes.Repeat([]byte{byte(round*37 + i)}, 4096)); err != nil {
				t.Fatalf("round %d write %d: %v", round, i, err)
			}
		}
	}
	if l.Stats().SegmentsCleaned == 0 {
		t.Fatal("cleaner never ran; test needs a smaller disk")
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, l)
	l2 := crashAndRecover(t, d, l)
	diffState(t, want, captureState(t, l2), "after cleaning")
}

func TestExplicitCleanPreservesState(t *testing.T) {
	d, l := newTestLLD(t, 4<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	var ids []ld.BlockID
	prev := ld.NilBlock
	for i := 0; i < 40; i++ {
		b := mustNewBlock(t, l, lid, prev)
		mustWrite(t, l, b, bytes.Repeat([]byte{byte(i)}, 2048))
		ids = append(ids, b)
		prev = b
	}
	for i := 0; i < 40; i += 2 {
		if err := l.DeleteBlock(ids[i], lid, ld.NilBlock); err != nil {
			t.Fatal(err)
		}
	}
	want := captureState(t, l)
	n, err := l.Clean(4)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing cleaned")
	}
	diffState(t, want, captureState(t, l), "state changed by cleaning")
	// And it must also survive a crash after cleaning.
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	l2 := crashAndRecover(t, d, l)
	diffState(t, want, captureState(t, l2), "crash after explicit clean")
}

func TestReorganizeImprovesSequentialLayoutAndPreservesState(t *testing.T) {
	d, l := newTestLLD(t, 8<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{Cluster: true})
	// Write blocks in an interleaved order so the log scatters them.
	var ids []ld.BlockID
	prev := ld.NilBlock
	for i := 0; i < 20; i++ {
		b := mustNewBlock(t, l, lid, prev)
		ids = append(ids, b)
		prev = b
	}
	rng := rand.New(rand.NewSource(3))
	for _, i := range rng.Perm(len(ids)) {
		mustWrite(t, l, ids[i], bytes.Repeat([]byte{byte(i)}, 4096))
	}
	want := captureState(t, l)
	if err := l.Reorganize(4); err != nil {
		t.Fatal(err)
	}
	diffState(t, want, captureState(t, l), "reorganize changed logical state")
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	l2 := crashAndRecover(t, d, l)
	diffState(t, want, captureState(t, l2), "crash after reorganize")
}

// TestQuickCrashRecoveryEquivalence is the central property test: for many
// random operation sequences, the state after flush+crash+recover equals
// the state at the flush.
func TestQuickCrashRecoveryEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			d, l := newTestLLD(t, 4<<20, testOptions())
			rng := rand.New(rand.NewSource(seed))
			var lists []ld.ListID
			inARU := false
			for step := 0; step < 300; step++ {
				switch op := rng.Intn(20); {
				case op < 2 || len(lists) == 0:
					h := ld.ListHints{Cluster: rng.Intn(2) == 0, Compress: rng.Intn(4) == 0}
					lid, err := l.NewList(ld.NilList, h)
					if err != nil {
						t.Fatal(err)
					}
					lists = append(lists, lid)
				case op < 10:
					lid := lists[rng.Intn(len(lists))]
					ids, _ := l.ListBlocks(lid)
					pred := ld.NilBlock
					if len(ids) > 0 && rng.Intn(2) == 0 {
						pred = ids[rng.Intn(len(ids))]
					}
					b, err := l.NewBlock(lid, pred)
					if err != nil {
						continue
					}
					if err := l.Write(b, bytes.Repeat([]byte{byte(rng.Intn(256))}, rng.Intn(3000))); err != nil {
						continue
					}
				case op < 13:
					lid := lists[rng.Intn(len(lists))]
					ids, _ := l.ListBlocks(lid)
					if len(ids) == 0 {
						continue
					}
					b := ids[rng.Intn(len(ids))]
					if err := l.DeleteBlock(b, lid, ld.NilBlock); err != nil {
						t.Fatal(err)
					}
				case op < 14:
					if len(lists) < 2 {
						continue
					}
					i := rng.Intn(len(lists))
					lid := lists[i]
					if err := l.DeleteList(lid, ld.NilList); err != nil {
						t.Fatal(err)
					}
					lists = append(lists[:i], lists[i+1:]...)
				case op < 16:
					lid := lists[rng.Intn(len(lists))]
					ids, _ := l.ListBlocks(lid)
					if len(ids) < 2 {
						continue
					}
					i := rng.Intn(len(ids))
					j := i + rng.Intn(len(ids)-i)
					dst := lists[rng.Intn(len(lists))]
					if dst == lid {
						continue
					}
					if err := l.MoveBlocks(ids[i], ids[j], lid, dst, ld.NilBlock, ld.NilBlock); err != nil {
						t.Fatal(err)
					}
				case op == 16:
					if inARU {
						if err := l.EndARU(); err != nil {
							t.Fatal(err)
						}
						inARU = false
					} else {
						if err := l.BeginARU(); err != nil {
							t.Fatal(err)
						}
						inARU = true
					}
				case op == 17:
					if err := l.Flush(ld.FailPower); err != nil {
						t.Fatal(err)
					}
				case op == 18:
					lid := lists[rng.Intn(len(lists))]
					ids, _ := l.ListBlocks(lid)
					if len(ids) < 2 {
						continue
					}
					a := ids[rng.Intn(len(ids))]
					b := ids[rng.Intn(len(ids))]
					if err := l.SwapContents(a, b); err != nil {
						t.Fatal(err)
					}
				case op == 19:
					if _, err := l.Clean(1); err != nil {
						t.Fatal(err)
					}
				}
			}
			if inARU {
				if err := l.EndARU(); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Flush(ld.FailPower); err != nil {
				t.Fatal(err)
			}
			want := captureState(t, l)
			l2 := crashAndRecover(t, d, l)
			diffState(t, want, captureState(t, l2), "random-ops equivalence")

			// Second-generation check: keep operating on the recovered
			// instance, flush, crash again.
			lists2, _ := l2.Lists()
			if len(lists2) > 0 {
				lid := lists2[0]
				b, err := l2.NewBlock(lid, ld.NilBlock)
				if err == nil {
					if err := l2.Write(b, []byte("gen2")); err != nil {
						t.Fatal(err)
					}
				}
				if err := l2.Flush(ld.FailPower); err != nil {
					t.Fatal(err)
				}
				want2 := captureState(t, l2)
				l3 := crashAndRecover(t, d, l2)
				diffState(t, want2, captureState(t, l3), "second generation")
			}
		})
	}
}
