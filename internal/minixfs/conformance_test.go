package minixfs_test

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/fstest"
	"repro/internal/ld"
	"repro/internal/lld"
	"repro/internal/minixfs"
	"repro/internal/uld"
	"repro/internal/vfs"
)

// Conformance runs the shared black-box suite against every MINIX
// configuration, the same suite the FFS baseline must pass. "ld-paper" is
// MINIX LLD with WholeBlockIO, one whole block per LD request as in the
// paper; the other LD kinds store short blocks and read in batches.
func TestConformance(t *testing.T) {
	mk := func(kind string) fstest.Factory {
		return func(t *testing.T) vfs.FileSystem {
			t.Helper()
			d := disk.New(disk.DefaultConfig(64 << 20))
			cfg := minixfs.Config{BlockSize: 4096, NInodes: 2048, CacheBytes: 1 << 20}
			if kind == "bitmap" {
				be, err := minixfs.FormatBitmap(d, 4096)
				if err != nil {
					t.Fatal(err)
				}
				fs, err := minixfs.Mkfs(be, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return fs
			}
			var l ld.Disk
			if kind == "uld-perfile" {
				// The same file system code on the update-in-place LD:
				// the interface is the portability boundary (Figure 1).
				if err := uld.Format(d, uld.DefaultOptions()); err != nil {
					t.Fatal(err)
				}
				var err error
				l, err = uld.Open(d, uld.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
			} else {
				opts := lld.DefaultOptions()
				opts.SegmentSize = 256 * 1024
				if err := lld.Format(d, opts); err != nil {
					t.Fatal(err)
				}
				var err error
				l, err = lld.Open(d, opts)
				if err != nil {
					t.Fatal(err)
				}
			}
			be, err := minixfs.FormatLD(l, 4096, minixfs.LDConfig{PerFileLists: kind != "ld-single", WholeBlockIO: kind == "ld-paper"})
			if err != nil {
				t.Fatal(err)
			}
			if kind == "ld-small" {
				cfg.SmallInodes = true
			}
			fs, err := minixfs.Mkfs(be, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return fs
		}
	}
	for _, kind := range []string{"bitmap", "ld-single", "ld-perfile", "ld-paper", "ld-small", "uld-perfile"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			fstest.Conformance(t, mk(kind))
		})
	}
}
