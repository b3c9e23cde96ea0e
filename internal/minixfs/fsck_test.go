package minixfs_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/lld"
	"repro/internal/minixfs"
)

func newAtomicFS(t *testing.T, d *disk.Disk) (*minixfs.FS, *lld.LLD) {
	t.Helper()
	opts := lld.DefaultOptions()
	opts.SegmentSize = 128 * 1024
	if err := lld.Format(d, opts); err != nil {
		t.Fatal(err)
	}
	l, err := lld.Open(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	be, err := minixfs.FormatLD(l, 4096, minixfs.LDConfig{PerFileLists: true})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := minixfs.Mkfs(be, minixfs.Config{
		BlockSize: 4096, NInodes: 2048, CacheBytes: 512 * 1024, AtomicOps: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs, l
}

func TestFsckCleanFS(t *testing.T) {
	d := disk.New(disk.DefaultConfig(32 << 20))
	fs, _ := newAtomicFS(t, d)
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		f, err := fs.Create(fmt.Sprintf("/d/f%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(bytes.Repeat([]byte{byte(i)}, 3000), 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	for i := 0; i < 50; i += 3 {
		if err := fs.Unlink(fmt.Sprintf("/d/f%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	problems, err := fs.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("clean fs reported problems: %v", problems)
	}
}

// crashStormTrial runs a metadata-heavy storm (tiny cache so dirty
// metadata is evicted at uncorrelated times, no syncs) until a crash
// injected at sector budget fires, recovers, and returns fsck's findings.
func crashStormTrial(t *testing.T, atomic bool, crashSectors int64, seed int64) []string {
	t.Helper()
	d := disk.New(disk.DefaultConfig(32 << 20))
	opts := lld.DefaultOptions()
	opts.SegmentSize = 128 * 1024
	if err := lld.Format(d, opts); err != nil {
		t.Fatal(err)
	}
	l, err := lld.Open(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	be, err := minixfs.FormatLD(l, 4096, minixfs.LDConfig{PerFileLists: true})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := minixfs.Mkfs(be, minixfs.Config{
		BlockSize: 4096, NInodes: 4096, CacheBytes: 32 * 1024, AtomicOps: atomic,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	d.InjectCrashAfterSectors(crashSectors)
	for i := 0; i < 3000; i++ {
		name := fmt.Sprintf("/f%04d", rng.Intn(600))
		var opErr error
		switch rng.Intn(4) {
		case 0, 1, 2:
			f, err := fs.Create(name)
			opErr = err
			if err == nil {
				f.Close()
			}
		case 3:
			opErr = fs.Unlink(name)
		}
		if opErr != nil && d.Crashed() {
			break
		}
	}
	_ = l.Shutdown(false)
	d.ClearCrash()

	l2, err := lld.Open(d, opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	be2, err := minixfs.OpenLD(l2, 4096, minixfs.LDConfig{PerFileLists: true})
	if err != nil {
		t.Fatalf("backend: %v", err)
	}
	fs2, err := minixfs.Open(be2, 64*1024)
	if err != nil {
		t.Fatalf("mount: %v", err)
	}
	problems, err := fs2.Check()
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	// Regardless of consistency findings, the fs must remain usable.
	f, err := fs2.Create("/post-crash")
	if err != nil {
		t.Fatalf("post-crash create: %v", err)
	}
	f.Close()
	return problems
}

// TestFsckAfterCrashWithAtomicOps is the paper's §2.1 claim made
// executable: with namespace operations wrapped in atomic recovery units,
// a crash at ANY point leaves the metadata consistent — fsck never finds
// orphans, dangling entries, or bitmap disagreements. The control subtest
// shows the same storm WITHOUT atomic units is routinely inconsistent, so
// the assertion has teeth.
func TestFsckAfterCrashWithAtomicOps(t *testing.T) {
	const trials = 12
	t.Run("atomic", func(t *testing.T) {
		for trial := 0; trial < trials; trial++ {
			problems := crashStormTrial(t, true, int64(300+trial*137), int64(trial))
			if len(problems) != 0 {
				t.Fatalf("trial %d: inconsistent despite atomic ops:\n%v", trial, problems)
			}
		}
	})
	t.Run("control-non-atomic", func(t *testing.T) {
		inconsistent := 0
		for trial := 0; trial < trials; trial++ {
			if len(crashStormTrial(t, false, int64(300+trial*137), int64(trial))) > 0 {
				inconsistent++
			}
		}
		t.Logf("non-atomic trials inconsistent: %d/%d", inconsistent, trials)
		if inconsistent == 0 {
			t.Fatal("control never produced an inconsistency; the atomic assertion is vacuous")
		}
	})
}

// TestFsckDetectsCorruption plants inconsistencies and checks they are
// found (the checker itself must not be a rubber stamp).
func TestFsckDetectsCorruption(t *testing.T) {
	d := disk.New(disk.DefaultConfig(32 << 20))
	fs, _ := newAtomicFS(t, d)
	f, err := fs.Create("/victim")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	// Corrupt: free the victim's inode bit while the directory entry and
	// the inode itself remain — a classic orphaned-bitmap inconsistency.
	if err := fs.CorruptInodeBitmapForTest(2); err != nil {
		t.Fatal(err)
	}
	problems, err := fs.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) == 0 {
		t.Fatal("fsck missed a planted bitmap inconsistency")
	}
}

// TestAtomicOpsChurnNeverExhaustsSegments runs the benchmark's fs-small
// construction — a 400-MB disk, per-file lists with the Cluster hint,
// 16,384 i-nodes, a 6,144-KB cache — with AtomicOps on, through two rounds
// of 10,000 1-KB creates and 10,000 unlinks. A note once had such a file
// system exhaust its free segments after about 8,000 namespace operations;
// these 40,000 end with no ErrNoSpace, a clean fsck and, the files gone,
// next to nothing live: the cleaner reclaimed what the churn left dead.
func TestAtomicOpsChurnNeverExhaustsSegments(t *testing.T) {
	d := disk.New(disk.DefaultConfig(400 << 20))
	opts := lld.DefaultOptions()
	if err := lld.Format(d, opts); err != nil {
		t.Fatal(err)
	}
	l, err := lld.Open(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	be, err := minixfs.FormatLD(l, 4096, minixfs.LDConfig{PerFileLists: true, Hints: ld.ListHints{Cluster: true}})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := minixfs.Mkfs(be, minixfs.Config{BlockSize: 4096, NInodes: 16384, CacheBytes: 6144 * 1024, AtomicOps: true})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i*7 + 13)
	}
	const files = 10000
	ops := 0
	for round := 0; round < 2; round++ {
		for i := 0; i < files; i++ {
			f, err := fs.Create(fmt.Sprintf("/f%05d", i))
			if err != nil {
				t.Fatalf("round %d, after %d namespace ops: create: %v", round, ops, err)
			}
			if _, err := f.WriteAt(payload, 0); err != nil {
				t.Fatalf("round %d, after %d namespace ops: write: %v", round, ops, err)
			}
			f.Close()
			ops++
		}
		for i := 0; i < files; i++ {
			if err := fs.Unlink(fmt.Sprintf("/f%05d", i)); err != nil {
				t.Fatalf("round %d, after %d namespace ops: unlink: %v", round, ops, err)
			}
			ops++
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if problems, err := fs.Check(); err != nil || len(problems) != 0 {
		t.Fatalf("fsck: %v %v", err, problems)
	}
	st := l.Stats()
	t.Logf("%d namespace ops: %d ARUs, %d seals, %d segments cleaned, %d KB live",
		ops, st.ARUs, st.SegmentsSealed, st.SegmentsCleaned, l.LiveBytes()>>10)
	if st.SegmentsCleaned == 0 || l.LiveBytes() > 2<<20 {
		t.Errorf("%d segments cleaned, %d bytes live after every file was unlinked", st.SegmentsCleaned, l.LiveBytes())
	}
}
