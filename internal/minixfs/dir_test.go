package minixfs

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// slotModel is a directory file as MINIX's linear search writes it: an
// entry goes into the lowest free slot, or extends the file when none is
// free, and a removal zeroes the i-node number alone.
type slotModel struct{ slots [][direntSize]byte }

func (m *slotModel) add(name string, ino uint32) {
	var ent [direntSize]byte
	writeDirent(ent[:], ino, name)
	for i := range m.slots {
		if le32(m.slots[i][:]) == 0 {
			m.slots[i] = ent
			return
		}
	}
	m.slots = append(m.slots, ent)
}

func (m *slotModel) remove(name string) {
	for i := range m.slots {
		s := m.slots[i][:]
		if le32(s) != 0 && string(bytes.TrimRight(s[4:], "\x00")) == name {
			put32(s, 0)
			return
		}
	}
	panic("slotModel: no entry " + name)
}

func (m *slotModel) bytes() []byte {
	var out []byte
	for i := range m.slots {
		out = append(out, m.slots[i][:]...)
	}
	return out
}

// names lists the model's entries in slot order.
func (m *slotModel) names() []string {
	var out []string
	for i := range m.slots {
		if s := m.slots[i][:]; le32(s) != 0 {
			out = append(out, string(bytes.TrimRight(s[4:], "\x00")))
		}
	}
	return out
}

// dirFileBytes reads directory n's file through the buffer cache.
func dirFileBytes(t *testing.T, fs *FS, n uint32) []byte {
	t.Helper()
	dir, err := fs.getInode(n)
	if err != nil {
		t.Fatal(err)
	}
	bs := fs.sb.BlockSize
	nblocks := (int(dir.Size) + bs - 1) / bs
	var out []byte
	for b := 0; b < nblocks; b++ {
		_, e, err := fs.dirBlock(n, &dir, b, nblocks)
		if err != nil || e == nil {
			t.Fatalf("directory block %d: %v (hole %v)", b, err, e == nil)
		}
		out = append(out, e.data[:min(bs, int(dir.Size)-b*bs)]...)
	}
	return out
}

// checkDcache compares directory n's cached names, slots and low-free mark
// with a dcache loaded afresh from the directory's blocks, and leaves the
// cached one in place. A mark may trail the fresh one, which is the lowest
// free slot, only across slots in use: both find the same free slot first.
func checkDcache(t *testing.T, fs *FS, n uint32, m *slotModel) {
	t.Helper()
	cached, ok := fs.dcache[n]
	if !ok {
		return
	}
	delete(fs.dcache, n)
	dir, err := fs.getInode(n)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := fs.loadDcache(n, &dir)
	if err != nil {
		t.Fatal(err)
	}
	fs.dcache[n] = cached
	if !maps.Equal(cached.names, fresh.names) {
		t.Fatalf("cached entries %v, a fresh load reads %v", cached.names, fresh.names)
	}
	if cached.lowFree > fresh.lowFree {
		t.Fatalf("low-free mark %d above the lowest free slot %d", cached.lowFree, fresh.lowFree)
	}
	for s := cached.lowFree; s < fresh.lowFree; s++ {
		if le32(m.slots[s][:]) == 0 {
			t.Fatalf("low-free mark %d, fresh %d, but slot %d between them is free", cached.lowFree, fresh.lowFree, s)
		}
	}
}

// A seeded create/unlink/rename churn in one directory, its caches dropped
// at random points: after every operation the directory's bytes are what
// the lowest-free-slot scan writes, slot reuse included, and the dcache's
// slots and mark agree with a fresh load of those bytes.
func TestDirSlotsMatchTheLinearScan(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs *FS) {
		rng := rand.New(rand.NewSource(7))
		var m slotModel
		live := map[string]bool{}
		name := func() string {
			k := rng.Intn(400)
			if k%3 == 0 {
				return fmt.Sprintf("a-longer-name-number-%03d", k)
			}
			return fmt.Sprintf("f%03d", k)
		}
		for op := 0; op < 1500; op++ {
			nm := name()
			switch r := rng.Intn(10); {
			case r < 5 && !live[nm]:
				writeFile(t, fs, "/"+nm, nil)
				fi, err := fs.Stat("/" + nm)
				if err != nil {
					t.Fatal(err)
				}
				m.add(nm, fi.Inode)
				live[nm] = true
			case r < 8 && live[nm]:
				if err := fs.Unlink("/" + nm); err != nil {
					t.Fatal(err)
				}
				m.remove(nm)
				delete(live, nm)
			case live[nm]:
				to := name()
				if live[to] {
					continue
				}
				fi, err := fs.Stat("/" + nm)
				if err != nil {
					t.Fatal(err)
				}
				if err := fs.Rename("/"+nm, "/"+to); err != nil {
					t.Fatal(err)
				}
				m.add(to, fi.Inode)
				m.remove(nm)
				delete(live, nm)
				live[to] = true
			default:
				continue
			}
			if rng.Intn(40) == 0 {
				if err := fs.DropCaches(); err != nil {
					t.Fatal(err)
				}
			}
			checkDcache(t, fs, rootIno, &m)
			if got := dirFileBytes(t, fs, rootIno); !bytes.Equal(got, m.bytes()) {
				t.Fatalf("op %d: directory holds %d bytes unlike the linear scan's %d", op, len(got), len(m.bytes()))
			}
		}
		if len(live) < 50 {
			t.Fatalf("churn left %d names: too few to span directory blocks", len(live))
		}
	})
}

// ReadDir lists a directory in slot order, as MINIX reads it, so two file
// systems built alike list alike.
func TestReadDirListsInSlotOrder(t *testing.T) {
	build := func() (*FS, *slotModel) {
		fs := newFS(t, "ld-perfile", 32<<20)
		m := &slotModel{}
		for i := 0; i < 300; i++ {
			nm := fmt.Sprintf("file-%03d", (i*37)%300)
			writeFile(t, fs, "/"+nm, nil)
			m.add(nm, 1)
		}
		for i := 0; i < 300; i += 3 {
			nm := fmt.Sprintf("file-%03d", i)
			if err := fs.Unlink("/" + nm); err != nil {
				t.Fatal(err)
			}
			m.remove(nm)
		}
		for i := 0; i < 40; i++ {
			nm := fmt.Sprintf("again-%03d", i)
			writeFile(t, fs, "/"+nm, nil)
			m.add(nm, 1)
		}
		return fs, m
	}
	list := func(fs *FS) []string {
		infos, err := fs.ReadDir("/")
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, fi := range infos {
			out = append(out, fi.Name)
		}
		return out
	}
	fs1, m := build()
	fs2, _ := build()
	a, b := list(fs1), list(fs2)
	if !slices.Equal(a, b) {
		t.Fatalf("two file systems built alike list differently:\n%v\n%v", a, b)
	}
	if want := m.names(); !slices.Equal(a, want) {
		t.Fatalf("ReadDir lists\n%v\nnot in slot order\n%v", a, want)
	}
}
