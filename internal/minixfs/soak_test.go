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
	"repro/internal/uld"
)

// TestSoakGenerations runs many storm/crash/recover generations on one
// disk, with a partition small enough that the cleaner (and, if fact
// density demands it, consolidation checkpoints) must run. After every
// recovery the file system is fsck'd and all surviving files verified
// against a shadow of the last synced state.
func TestSoakGenerations(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	var cleanedTotal int64
	for _, seed := range []int64{2026, 7, 93, 1993, 555} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cleanedTotal += soakGenerations(t, seed)
		})
	}
	if cleanedTotal == 0 {
		t.Error("no seed exercised the cleaner; shrink the partition")
	}
}

// soakGenerations runs one seeded soak on LLD and returns how many
// segments the cleaner processed (the parent asserts the seeds
// collectively hit it).
func soakGenerations(t *testing.T, seed int64) int64 {
	opts := lld.DefaultOptions()
	opts.SegmentSize = 128 * 1024
	var totalCleaned int64
	soakLD(t, seed,
		func(d *disk.Disk) ld.Disk {
			if err := lld.Format(d, opts); err != nil {
				t.Fatal(err)
			}
			return openLLD(t, d, opts)
		},
		func(d *disk.Disk, prev ld.Disk) ld.Disk {
			l := prev.(*lld.LLD)
			st := l.Stats()
			totalCleaned += st.SegmentsCleaned
			_ = l.Shutdown(false)
			d.ClearCrash()
			l2 := openLLD(t, d, opts)
			if viol := l2.CheckInvariants(); len(viol) != 0 {
				t.Fatalf("invariants: %v", viol)
			}
			return l2
		})
	return totalCleaned
}

func openLLD(t *testing.T, d *disk.Disk, opts lld.Options) *lld.LLD {
	t.Helper()
	l, err := lld.Open(d, opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	return l
}

// TestSoakGenerationsULD runs the same storm/crash/recover soak on the
// update-in-place LD implementation: the FS-level guarantees (fsck-clean
// after every crash, synced files intact) must hold on both LDs.
func TestSoakGenerationsULD(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	for _, seed := range []int64{2026, 7, 93} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			soakLD(t, seed,
				func(d *disk.Disk) ld.Disk {
					if err := uld.Format(d, uld.DefaultOptions()); err != nil {
						t.Fatal(err)
					}
					return openULD(t, d)
				},
				func(d *disk.Disk, prev ld.Disk) ld.Disk {
					_ = prev.(*uld.ULD).Shutdown(false)
					d.ClearCrash()
					return openULD(t, d)
				})
		})
	}
}

// TestSoakGenerationsOffsetFiles runs the storm soak with §5.4 offset
// addressing: file blocks are located by position in the file's LD list,
// with no indirect blocks, so list-order recovery is load-bearing for
// file content.
func TestSoakGenerationsOffsetFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	opts := lld.DefaultOptions()
	opts.SegmentSize = 128 * 1024
	for _, seed := range []int64{2026, 93} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			soakLDConfig(t, seed, true,
				func(d *disk.Disk) ld.Disk {
					if err := lld.Format(d, opts); err != nil {
						t.Fatal(err)
					}
					return openLLD(t, d, opts)
				},
				func(d *disk.Disk, prev ld.Disk) ld.Disk {
					l := prev.(*lld.LLD)
					_ = l.Shutdown(false)
					d.ClearCrash()
					l2 := openLLD(t, d, opts)
					if viol := l2.CheckInvariants(); len(viol) != 0 {
						t.Fatalf("invariants: %v", viol)
					}
					return l2
				})
		})
	}
}

func openULD(t *testing.T, d *disk.Disk) *uld.ULD {
	t.Helper()
	u, err := uld.Open(d, uld.DefaultOptions())
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	return u
}

// soakLD is the implementation-agnostic generation loop: format once,
// then storm / crash / reopen / fsck / verify the durability floor.
func soakLD(t *testing.T, seed int64, format func(*disk.Disk) ld.Disk,
	reopen func(*disk.Disk, ld.Disk) ld.Disk) {
	soakLDConfig(t, seed, false, format, reopen)
}

// soakLDConfig is soakLD with the §5.4 offset-addressing mode selectable.
func soakLDConfig(t *testing.T, seed int64, offsetFiles bool, format func(*disk.Disk) ld.Disk,
	reopen func(*disk.Disk, ld.Disk) ld.Disk) {
	const generations = 10
	// Small enough that a generation's storm can empty LLD's free pool: a
	// crash mount frees every dead segment its checkpoint covers, and on 24
	// MB, with a checkpoint every quarter of the disk, no seed needed the
	// cleaner.
	d := disk.New(disk.DefaultConfig(8 << 20))
	l := format(d)
	be, err := minixfs.FormatLD(l, 4096, minixfs.LDConfig{PerFileLists: true})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := minixfs.Mkfs(be, minixfs.Config{
		BlockSize: 4096, NInodes: 1024, CacheBytes: 256 * 1024, AtomicOps: true,
		OffsetFiles: offsetFiles,
	})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	// shadow holds the state as of the last successful Sync.
	shadow := make(map[string][]byte)
	pending := make(map[string][]byte) // changes since that Sync

	names := make([]string, 40)
	for i := range names {
		names[i] = fmt.Sprintf("/soak-%02d", i)
	}

	for gen := 0; gen < generations; gen++ {
		// Storm with periodic syncs; a crash lands somewhere inside.
		d.InjectCrashAfterSectors(int64(2000 + rng.Intn(12000)))
		for i := 0; i < 1500 && !d.Crashed(); i++ {
			name := names[rng.Intn(len(names))]
			switch rng.Intn(7) {
			case 5:
				// Rename between two tracked names: both entries move in the
				// shadow bookkeeping only if the FS op succeeded.
				dst := names[rng.Intn(len(names))]
				if dst == name {
					continue
				}
				if err := fs.Rename(name, dst); err == nil {
					src, ok := pending[name]
					if !ok {
						src = shadow[name] // may be nil: renaming over nothing fails, so ok
					}
					pending[name] = nil
					pending[dst] = src
				}
			case 6:
				// Directory churn outside the tracked namespace: exercises
				// mkdir/rmdir ARUs without complicating the shadow.
				dir := fmt.Sprintf("/dir-%d", rng.Intn(6))
				if rng.Intn(2) == 0 {
					_ = fs.Mkdir(dir)
				} else {
					_ = fs.Rmdir(dir)
				}
			case 0, 1, 2:
				payload := make([]byte, rng.Intn(20000))
				rng.Read(payload)
				f, err := fs.Create(name)
				if err != nil {
					continue
				}
				if _, err := f.WriteAt(payload, 0); err != nil {
					f.Close()
					continue
				}
				f.Close()
				pending[name] = payload
			case 3:
				if err := fs.Unlink(name); err == nil {
					pending[name] = nil
				}
			case 4:
				if err := fs.Sync(); err == nil {
					for k, v := range pending {
						if v == nil {
							delete(shadow, k)
						} else {
							shadow[k] = v
						}
					}
					pending = make(map[string][]byte)
				}
			}
		}
		// Crash boundary: tear down and recover.
		l = reopen(d, l)
		be, err = minixfs.OpenLD(l, 4096, minixfs.LDConfig{PerFileLists: true})
		if err != nil {
			t.Fatalf("gen %d: backend: %v", gen, err)
		}
		fs, err = minixfs.Open(be, 256*1024)
		if err != nil {
			t.Fatalf("gen %d: mount: %v", gen, err)
		}
		problems, err := fs.Check()
		if err != nil {
			t.Fatalf("gen %d: fsck: %v", gen, err)
		}
		if len(problems) != 0 {
			t.Fatalf("gen %d: inconsistencies: %v", gen, problems)
		}
		// Durability floor: every file from the last completed Sync must be
		// intact (later changes may or may not have survived).
		checked := 0
		for name, want := range shadow {
			if _, changed := pending[name]; changed {
				continue // modified after the sync; content undetermined
			}
			f, err := fs.Open(name)
			if err != nil {
				t.Fatalf("gen %d: synced file %s missing: %v", gen, name, err)
			}
			got := make([]byte, f.Size())
			if _, err := f.ReadAt(got, 0); err != nil {
				t.Fatalf("gen %d: read %s: %v", gen, name, err)
			}
			f.Close()
			if !bytes.Equal(got, want) {
				t.Fatalf("gen %d: synced file %s corrupted (%d vs %d bytes)", gen, name, len(got), len(want))
			}
			checked++
		}
		// Rebuild the shadow from what actually survived, so the next
		// generation starts from ground truth.
		shadow = make(map[string][]byte)
		pending = make(map[string][]byte)
		infos, err := fs.ReadDir("/")
		if err != nil {
			t.Fatal(err)
		}
		for _, fi := range infos {
			if fi.IsDir {
				continue
			}
			f, err := fs.Open("/" + fi.Name)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, f.Size())
			if _, err := f.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
			f.Close()
			shadow["/"+fi.Name] = buf
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
}
