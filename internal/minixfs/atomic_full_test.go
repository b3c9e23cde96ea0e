package minixfs_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/lld"
)

// atomicChurn runs ops operations of MINIX with AtomicOps on a 16-MB disk
// holding names files of 4 to 20 KB, so the cleaner runs throughout: file
// rewrites, unlink-and-recreate pairs, mkdir/rmdir and an occasional Sync.
// Every namespace operation is one atomic recovery unit. It returns the
// instance's statistics over the churn and how many operations failed.
func atomicChurn(t *testing.T, names, ops int) (st lld.Stats, failed int) {
	t.Helper()
	fs, l := newAtomicFS(t, disk.New(disk.DefaultConfig(16<<20)))
	rng := rand.New(rand.NewSource(1))
	write := func(name string) error {
		payload := make([]byte, 4096+rng.Intn(16384))
		rng.Read(payload)
		f, err := fs.Create(name)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = f.WriteAt(payload, 0)
		return err
	}
	for i := 0; i < names; i++ {
		if err := write(fmt.Sprintf("/f-%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	before := l.Stats()
	for i := 0; i < ops; i++ {
		name := fmt.Sprintf("/f-%04d", rng.Intn(names))
		var err error
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			err = write(name)
		case 5, 6:
			if err = fs.Unlink(name); err == nil {
				err = write(name)
			}
		case 7:
			dir := fmt.Sprintf("/d-%d", rng.Intn(8))
			if rng.Intn(2) == 0 {
				_ = fs.Mkdir(dir)
			} else {
				_ = fs.Rmdir(dir)
			}
		default:
			if rng.Intn(8) == 0 {
				err = fs.Sync()
			}
		}
		if err != nil {
			failed++
		}
	}
	after := l.Stats()
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariants: %v", viol)
	}
	after.SegmentsSealed -= before.SegmentsSealed
	after.SegmentsCleaned -= before.SegmentsCleaned
	after.Consolidations -= before.Consolidations
	after.ARUs -= before.ARUs
	return after, failed
}

// No checkpoint is taken inside an atomic recovery unit, so a unit that
// begins while cleaned segments are held for the next one may take it
// first. With one unit per namespace operation on a disk the cleaner keeps
// busy, that must stay a rare event, not one per unit (about 7,500 here):
// the checkpoints stay within three times the periodic ones (one every
// quarter of the disk's segments, 31 seals here; about 1.8 times them
// measured), and no operation is refused for space.
func TestAtomicOpsOnAFullDiskCheckpointRarely(t *testing.T) {
	if testing.Short() {
		t.Skip("churns a full disk")
	}
	st, failed := atomicChurn(t, 500, 8000)
	t.Logf("%d units, %d seals, %d segments cleaned, %d checkpoints", st.ARUs, st.SegmentsSealed, st.SegmentsCleaned, st.Consolidations)
	if failed != 0 {
		t.Errorf("%d operations failed", failed)
	}
	if st.SegmentsCleaned < st.SegmentsSealed/2 {
		t.Fatalf("%d segments cleaned in %d seals: the disk is not full", st.SegmentsCleaned, st.SegmentsSealed)
	}
	if limit := 3 * st.SegmentsSealed / 31; st.Consolidations > limit {
		t.Errorf("%d checkpoints in %d units and %d seals, want at most %d", st.Consolidations, st.ARUs, st.SegmentsSealed, limit)
	}
}
