// The paper's Figure 1: a UNIX-style file system (MINIX, one LD list per
// file or one shared data list) and a database-style one (a B-tree whose
// every put is an atomic recovery unit) share one Logical Disk. The power
// fails while a put's unit is open, after the last MINIX Sync, and both
// file systems must remount from what the platter holds.
package ldtest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/btreefs"
	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/lld"
	"repro/internal/minixfs"
)

// commitCut passes every call through to the shared LD until it is armed.
// Then the next EndARU never reaches LD: the open unit's records are
// flushed to the platter uncommitted and the power is cut.
type commitCut struct {
	ld.Disk
	d     *disk.Disk
	armed bool
}

func (c *commitCut) EndARU() error {
	if !c.armed {
		return c.Disk.EndARU()
	}
	if err := c.Disk.Flush(ld.FailPower); err != nil {
		return err
	}
	c.d.Crash()
	return disk.ErrCrashed
}

func TestFigure1TwoFileSystemsShareOneLD(t *testing.T) {
	for _, perFile := range []bool{true, false} {
		t.Run(fmt.Sprintf("PerFileLists=%v", perFile), func(t *testing.T) {
			figure1(t, minixfs.LDConfig{PerFileLists: perFile})
		})
	}
}

func figure1(t *testing.T, cfg minixfs.LDConfig) {
	d := disk.New(disk.DefaultConfig(16 << 20))
	o := lld.DefaultOptions()
	o.SegmentSize = 64 * 1024
	if err := lld.Format(d, o); err != nil {
		t.Fatal(err)
	}
	l, err := lld.Open(d, o)
	if err != nil {
		t.Fatal(err)
	}
	be, err := minixfs.FormatLD(l, 4096, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := minixfs.Mkfs(be, minixfs.Config{BlockSize: 4096, NInodes: 256})
	if err != nil {
		t.Fatal(err)
	}
	cut := &commitCut{Disk: l, d: d}
	tree, err := btreefs.Create(cut, ld.NilList) // in front of MINIX's lists
	if err != nil {
		t.Fatal(err)
	}
	if lists, err := l.Lists(); err != nil || lists[0] != tree.List() {
		t.Fatalf("list of lists %v (%v) does not start with the tree's list %d", lists, err, tree.List())
	}

	rng := rand.New(rand.NewSource(1))
	files := make(map[string][]byte)
	writeFile := func(fs *minixfs.FS, name string) {
		t.Helper()
		data := make([]byte, 500+rng.Intn(40000))
		rng.Read(data)
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
		files[name] = data
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("user:%04d", i)) }
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 300+i%500) }
	const keys = 400
	for i := 0; i < keys; i++ {
		if i%50 == 0 {
			writeFile(fs, fmt.Sprintf("/f%d", i/50))
		}
		if err := tree.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	cut.armed = true
	if err := tree.Put(key(keys), val(keys)); !errors.Is(err, disk.ErrCrashed) {
		t.Fatalf("interrupted put: %v, want the power cut", err)
	}
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}
	d.ClearCrash()

	l2, fs2, tr2 := figure1Mount(t, d, o, cfg, tree.List())
	if rep := l2.RecoveryReport(); rep.DiscardedRecords == 0 {
		t.Fatalf("the open unit left no records on the platter to discard: %+v", rep)
	}
	checkFiles(t, fs2, files)
	seen := 0
	if err := tr2.Range(nil, nil, func(k, v []byte) bool {
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		if v, err := tr2.Get(key(i)); err != nil || !bytes.Equal(v, val(i)) {
			t.Fatalf("flushed key %s: %v", key(i), err)
		}
	}
	// All of the interrupted put or none of it; LD never saw its EndARU, so
	// none.
	if _, err := tr2.Get(key(keys)); !errors.Is(err, btreefs.ErrNotFound) || tr2.Count() != keys || seen != keys {
		t.Fatalf("interrupted put survived: Get %v, count %d, range saw %d", err, tr2.Count(), seen)
	}

	// Both keep working, and a clean shutdown remounts too.
	writeFile(fs2, "/after")
	if err := tr2.Put(key(keys+1), val(keys+1)); err != nil {
		t.Fatal(err)
	}
	if err := fs2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Shutdown(true); err != nil {
		t.Fatal(err)
	}
	_, fs3, tr3 := figure1Mount(t, d, o, cfg, tree.List())
	checkFiles(t, fs3, files)
	if v, err := tr3.Get(key(keys + 1)); err != nil || !bytes.Equal(v, val(keys+1)) {
		t.Fatalf("key put before the clean shutdown: %v", err)
	}
}

// figure1Mount opens the LD on d and mounts both file systems on it; MINIX
// must come up fsck-clean.
func figure1Mount(t *testing.T, d *disk.Disk, o lld.Options, cfg minixfs.LDConfig, treeList ld.ListID) (*lld.LLD, *minixfs.FS, *btreefs.Tree) {
	t.Helper()
	l, err := lld.Open(d, o)
	if err != nil {
		t.Fatal(err)
	}
	be, err := minixfs.OpenLD(l, 4096, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := minixfs.Open(be, 0)
	if err != nil {
		t.Fatal(err)
	}
	if problems, err := fs.Check(); err != nil || len(problems) > 0 {
		t.Fatalf("fsck: %v %v", problems, err)
	}
	tree, err := btreefs.Open(l, treeList)
	if err != nil {
		t.Fatal(err)
	}
	return l, fs, tree
}

func checkFiles(t *testing.T, fs *minixfs.FS, files map[string][]byte) {
	t.Helper()
	for name, want := range files {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want)+1)
		n, err := f.ReadAt(got, 0)
		f.Close()
		if n != len(want) || !bytes.Equal(got[:n], want) {
			t.Fatalf("%s: read %d of %d bytes (%v), or they differ", name, n, len(want), err)
		}
	}
}
