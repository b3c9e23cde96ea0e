package minixfs

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/ld"
	"repro/internal/lld"
)

// readCounter counts the single-block Reads and the ReadBlocks batches a
// backend asks of LD.
type readCounter struct {
	ld.Disk
	reads, batches int
}

func (c *readCounter) Read(b ld.BlockID, buf []byte) (int, error) {
	c.reads++
	return c.Disk.Read(b, buf)
}

func (c *readCounter) ReadBlocks(bs []ld.BlockID, bufs [][]byte) ([]ld.BlockRead, error) {
	c.batches++
	return ld.ReadBlocks(c.Disk, bs, bufs)
}

// TestLDBackendHasOneReadPath: MINIX on LD reads through ld.ReadBlocks
// alone — the superblock probe of OpenLD and every single-block miss
// included — so each of its reads reaches LD's read-ahead along the log.
// WholeBlockIO, the paper's MINIX LLD, reads through the single-block Read
// alone. Both hold across Mkfs, create, read, unlink and a remount.
func TestLDBackendHasOneReadPath(t *testing.T) {
	bothFlags(t, func(t *testing.T, whole bool) {
		c := &readCounter{}
		r := buildShortRig(t, 16<<20, shortCfg, whole, func(l *lld.LLD) ld.Disk {
			c.Disk = l
			return c
		})
		check := func(stage string) {
			t.Helper()
			switch {
			case whole && (c.batches != 0 || c.reads == 0):
				t.Errorf("%s, WholeBlockIO: %d Reads and %d batches, want Reads only", stage, c.reads, c.batches)
			case !whole && (c.reads != 0 || c.batches == 0):
				t.Errorf("%s: %d Reads and %d batches, want batches only", stage, c.reads, c.batches)
			}
		}
		want := make(map[string][]byte)
		for i := 0; i < 40; i++ {
			name := fmt.Sprintf("/f%02d", i)
			want[name] = bytes.Repeat([]byte{byte(i + 1)}, 700+i*300)
			writeFile(t, r.fs, name, want[name])
		}
		if err := r.fs.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := r.fs.DropCaches(); err != nil {
			t.Fatal(err)
		}
		for name, p := range want {
			if got := readFile(t, r.fs, name); !bytes.Equal(got, p) {
				t.Fatalf("%s reads back wrong", name)
			}
		}
		for i := 0; i < 40; i += 3 {
			name := fmt.Sprintf("/f%02d", i)
			if err := r.fs.Unlink(name); err != nil {
				t.Fatal(err)
			}
			delete(want, name)
		}
		check("mkfs, create, read and unlink")

		if err := r.fs.Close(); err != nil {
			t.Fatal(err)
		}
		if err := r.l.Shutdown(true); err != nil {
			t.Fatal(err)
		}
		var err error
		if r.l, err = lld.Open(r.d, r.opts); err != nil {
			t.Fatal(err)
		}
		*c = readCounter{Disk: r.l}
		if r.be, err = OpenLD(c, 4096, LDConfig{PerFileLists: true, WholeBlockIO: whole}); err != nil {
			t.Fatal(err)
		}
		if r.fs, err = Open(r.be, shortCfg.CacheBytes); err != nil {
			t.Fatal(err)
		}
		for name, p := range want {
			if got := readFile(t, r.fs, name); !bytes.Equal(got, p) {
				t.Fatalf("%s reads back wrong after the remount", name)
			}
		}
		check("OpenLD and read")
	})
}
