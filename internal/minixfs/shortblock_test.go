package minixfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/lld"
	"repro/internal/vfs"
)

// shortRig is MINIX on lld with the test holding every layer: the disk for
// its request counters, lld for stored sizes and the reservation, the
// backend for its reserved set.
type shortRig struct {
	d    *disk.Disk
	opts lld.Options
	l    *lld.LLD
	be   *LDBackend
	fs   *FS
}

var shortCfg = Config{BlockSize: 4096, NInodes: 512, CacheBytes: 256 * 1024}

func newShortRig(t *testing.T, capacity int64, whole bool) *shortRig {
	t.Helper()
	return buildShortRig(t, capacity, shortCfg, whole, func(l *lld.LLD) ld.Disk { return l })
}

// buildShortRig formats everything afresh; top is what the backend is given
// to talk to, lld itself or a test's wrapper around it.
func buildShortRig(t *testing.T, capacity int64, cfg Config, whole bool, top func(*lld.LLD) ld.Disk) *shortRig {
	t.Helper()
	r := &shortRig{d: disk.New(disk.DefaultConfig(capacity)), opts: lld.DefaultOptions()}
	r.opts.SegmentSize = 128 * 1024
	r.opts.SummarySize = 8 * 1024
	if err := lld.Format(r.d, r.opts); err != nil {
		t.Fatal(err)
	}
	var err error
	if r.l, err = lld.Open(r.d, r.opts); err != nil {
		t.Fatal(err)
	}
	if r.be, err = FormatLD(top(r.l), 4096, LDConfig{PerFileLists: true, WholeBlockIO: whole}); err != nil {
		t.Fatal(err)
	}
	if r.fs, err = Mkfs(r.be, cfg); err != nil {
		t.Fatal(err)
	}
	return r
}

// remount stops lld, cleanly or as a crash would, and mounts everything again.
func (r *shortRig) remount(t *testing.T, clean, whole bool) {
	t.Helper()
	if err := r.l.Shutdown(clean); err != nil {
		t.Fatal(err)
	}
	var err error
	if r.l, err = lld.Open(r.d, r.opts); err != nil {
		t.Fatal(err)
	}
	if r.be, err = OpenLD(r.l, 4096, LDConfig{PerFileLists: true, WholeBlockIO: whole}); err != nil {
		t.Fatal(err)
	}
	if r.fs, err = Open(r.be, shortCfg.CacheBytes); err != nil {
		t.Fatal(err)
	}
}

func (r *shortRig) fsck(t *testing.T) {
	t.Helper()
	problems, err := r.fs.Check()
	if err != nil || len(problems) > 0 {
		t.Fatalf("fsck: %v %v", err, problems)
	}
}

func flagName(whole bool) string {
	if whole {
		return "whole"
	}
	return "short"
}

func bothFlags(t *testing.T, f func(t *testing.T, whole bool)) {
	for _, whole := range []bool{false, true} {
		t.Run(flagName(whole), func(t *testing.T) { f(t, whole) })
	}
}

// TestShortQuantumIsWholeSectors: a stored block must be a whole number of
// sectors of the disks this repository models, or blocks stop starting on
// sector boundaries in the log.
func TestShortQuantumIsWholeSectors(t *testing.T) {
	if ss := disk.DefaultConfig(64 << 20).SectorSize; shortQuantum%ss != 0 {
		t.Fatalf("shortQuantum %d is not a multiple of the %d-byte sector", shortQuantum, ss)
	}
}

// TestShortBlockRoundTrip writes blocks whose content ends at every length
// 0…4096 — a non-zero prefix with a zero tail, and a zero head closed by one
// non-zero byte; 0 is the all-zero block, 4096 the full one — and reads
// each back alone and in a batch. LD holds the content rounded up to the
// quantum, or the whole block under WholeBlockIO.
func TestShortBlockRoundTrip(t *testing.T) {
	bothFlags(t, func(t *testing.T, whole bool) {
		r := newShortRig(t, 32<<20, whole)
		hs := make([]Handle, 2)
		for i := range hs {
			var err error
			if hs[i], err = r.be.Alloc(uint32(r.be.metaList), NilHandle); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(1))
		want := [][]byte{make([]byte, 4096), make([]byte, 4096)}
		got := [][]byte{make([]byte, 4096), make([]byte, 4096)}
		for c := 0; c <= 4096; c++ {
			clear(want[0])
			clear(want[1])
			for i := 0; i < c; i++ {
				want[0][i] = byte(1 + rng.Intn(255))
			}
			if c > 0 {
				want[1][c-1] = 0xFF
			}
			stored := (c + shortQuantum - 1) / shortQuantum * shortQuantum
			if whole {
				stored = 4096
			}
			for i, h := range hs {
				if err := r.be.WriteBlock(h, want[i]); err != nil {
					t.Fatalf("len %d: write: %v", c, err)
				}
				if n, err := r.l.BlockSize(ld.BlockID(h)); err != nil || n != stored {
					t.Fatalf("len %d: LD holds %d bytes (%v), want %d", c, n, err, stored)
				}
				for j := range got[i] {
					got[i][j] = 0xEE // a short read must zero-fill, not leave what was there
				}
				if err := r.be.ReadBlock(h, got[i]); err != nil || !bytes.Equal(got[i], want[i]) {
					t.Fatalf("len %d: ReadBlock differs (%v)", c, err)
				}
				for j := range got[i] {
					got[i][j] = 0xEE
				}
			}
			for i, err := range r.be.ReadBlocks(hs, got) {
				if err != nil || !bytes.Equal(got[i], want[i]) {
					t.Fatalf("len %d: ReadBlocks entry %d differs (%v)", c, i, err)
				}
			}
			if c%512 == 0 {
				// Push the blocks to the platter now and then, so that
				// reads come from both the open segment and the device.
				if err := r.be.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// TestSmallInodeBlockKeepsItsSize: a buffer below the quantum is the
// paper's 64-byte i-node block; it is neither padded up nor trimmed, and
// being stored whole it needs no reservation.
func TestSmallInodeBlockKeepsItsSize(t *testing.T) {
	bothFlags(t, func(t *testing.T, whole bool) {
		r := newShortRig(t, 32<<20, whole)
		base := r.l.ReservedBytes() // what mkfs's own short blocks hold
		h, err := r.be.Alloc(uint32(r.be.metaList), NilHandle)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range [][]byte{bytes.Repeat([]byte{7}, 64), make([]byte, 64)} {
			if err := r.be.WriteBlock(h, p); err != nil {
				t.Fatal(err)
			}
			if n, _ := r.l.BlockSize(ld.BlockID(h)); n != 64 {
				t.Fatalf("64-byte block stored as %d bytes", n)
			}
			got := bytes.Repeat([]byte{0xEE}, 64)
			if err := r.be.ReadBlock(h, got); err != nil || !bytes.Equal(got, p) {
				t.Fatalf("64-byte block read back wrong (%v)", err)
			}
			if r.be.reserved[h] || r.l.ReservedBytes() != base {
				t.Fatalf("a block stored whole holds a reservation (%d bytes, %d before it)", r.l.ReservedBytes(), base)
			}
		}
	})
}

// TestShortTailGrowsAndShrinks: a file grown 1 KB → 4 KB, truncated and
// grown again reads back exactly from the cache, from the disk, and after a
// crash; the file system checks clean at every step.
func TestShortTailGrowsAndShrinks(t *testing.T) {
	bothFlags(t, func(t *testing.T, whole bool) {
		r := newShortRig(t, 32<<20, whole)
		rng := rand.New(rand.NewSource(2))
		var model []byte
		f, err := r.fs.Create("/tail")
		if err != nil {
			t.Fatal(err)
		}
		verify := func(step string) {
			t.Helper()
			if got := readFile(t, r.fs, "/tail"); !bytes.Equal(got, model) {
				t.Fatalf("%s: file differs (%d bytes, want %d)", step, len(got), len(model))
			}
			r.fsck(t)
		}
		grow := func(to int) {
			t.Helper()
			p := make([]byte, to-len(model))
			rng.Read(p)
			if _, err := f.WriteAt(p, int64(len(model))); err != nil {
				t.Fatal(err)
			}
			model = append(model, p...)
		}
		for _, step := range []struct {
			name string
			do   func()
		}{
			{"1 KB", func() { grow(1024) }},
			{"4 KB", func() { grow(4096) }},
			{"truncated to 700 B", func() {
				if err := f.Truncate(700); err != nil {
					t.Fatal(err)
				}
				model = model[:700]
			}},
			{"grown to 9 KB", func() { grow(9 * 1024) }},
			{"truncated to 5 KB", func() {
				if err := f.Truncate(5 * 1024); err != nil {
					t.Fatal(err)
				}
				model = model[:5*1024]
			}},
			{"grown to 6 KB", func() { grow(6 * 1024) }},
		} {
			step.do()
			verify(step.name + ", cached")
			if err := r.fs.DropCaches(); err != nil {
				t.Fatal(err)
			}
			verify(step.name + ", from disk")
			// DropCaches synced; a crash now loses nothing.
			r.remount(t, false, whole)
			verify(step.name + ", after a crash")
			if f, err = r.fs.Open("/tail"); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestSmallFilesCostWhatTheyHold pins the point of short blocks on the
// request log: 100 1-KB files cost 1 KB of log each, not 4 — measured
// against the same run storing whole blocks, whose metadata is no smaller —
// and reading one back from the platter is one 2-sector request.
func TestSmallFilesCostWhatTheyHold(t *testing.T) {
	const n, size = 100, 1024
	payload := bytes.Repeat([]byte{0x5A}, size)
	run := func(whole bool) *shortRig {
		r := newShortRig(t, 32<<20, whole)
		before := r.l.Stats().UserBytesWritten
		for i := 0; i < n; i++ {
			writeFile(t, r.fs, fmt.Sprintf("/f%03d", i), payload)
		}
		if err := r.fs.Sync(); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d bytes written to LD", flagName(whole), r.l.Stats().UserBytesWritten-before)
		return r
	}
	wholeRig, r := run(true), run(false)
	saved := wholeRig.l.Stats().UserBytesWritten - r.l.Stats().UserBytesWritten
	if least := int64(n * (4096 - size)); saved < least {
		t.Fatalf("short blocks saved %d bytes of log, want at least %d", saved, least)
	}

	// Off the platter: remount, so nothing is in lld's open segment, and
	// resolve the name first, so the i-node and directory are cached.
	r.remount(t, true, false)
	f := open(t, r.fs, "/f042")
	defer f.Close()
	before := r.d.Stats()
	got := make([]byte, size)
	if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read back wrong (%v)", err)
	}
	after := r.d.Stats()
	if reqs, secs := after.Reads-before.Reads, after.SectorsRead-before.SectorsRead; reqs != 1 || secs != size/512 {
		t.Fatalf("reading a 1-KB file took %d requests, %d sectors; want 1 request of %d sectors", reqs, secs, size/512)
	}
}

// ldSpy sits between the backend and lld and keeps, for every block, what a
// reviewer of the reservation invariant needs: whether MINIX allocated it
// as data or as static metadata (either way under a reservation), and how
// long its last write was.
type ldSpy struct {
	ld.Disk
	meta    ld.ListID           // the first list made: FormatLD's metadata list
	data    map[ld.BlockID]bool // NewBlock off the metadata list
	static  map[ld.BlockID]bool // NewBlock on it: superblock, i-node bitmap and table
	written map[ld.BlockID]int  // length of the last write
	refuse  bool                // Reserve reports ErrNoSpace
}

func (s *ldSpy) NewList(pred ld.ListID, hints ld.ListHints) (ld.ListID, error) {
	lid, err := s.Disk.NewList(pred, hints)
	if err == nil && s.meta == ld.NilList {
		s.meta = lid
	}
	return lid, err
}

func (s *ldSpy) NewBlock(lid ld.ListID, pred ld.BlockID) (ld.BlockID, error) {
	b, err := s.Disk.NewBlock(lid, pred)
	switch {
	case err != nil:
	case lid == s.meta:
		s.static[b] = true
	default:
		s.data[b] = true
	}
	return b, err
}

func (s *ldSpy) Write(b ld.BlockID, p []byte) error {
	err := s.Disk.Write(b, p)
	if err == nil {
		s.written[b] = len(p)
	}
	return err
}

func (s *ldSpy) forget(b ld.BlockID) {
	delete(s.data, b)
	delete(s.written, b)
}

func (s *ldSpy) DeleteBlock(b ld.BlockID, lid ld.ListID, hint ld.BlockID) error {
	err := s.Disk.DeleteBlock(b, lid, hint)
	if err == nil {
		s.forget(b)
	}
	return err
}

func (s *ldSpy) DeleteList(lid ld.ListID, hint ld.ListID) error {
	blocks, _ := s.Disk.ListBlocks(lid)
	err := s.Disk.DeleteList(lid, hint)
	if err == nil {
		for _, b := range blocks {
			s.forget(b)
		}
	}
	return err
}

func (s *ldSpy) Reserve(n int) error {
	if s.refuse {
		return ld.ErrNoSpace
	}
	return s.Disk.Reserve(n)
}

// owed counts the blocks that must hold a reservation: blocks not yet
// written, and blocks whose last write was short.
func (s *ldSpy) owed() int {
	n := 0
	for _, allocated := range []map[ld.BlockID]bool{s.data, s.static} {
		for b := range allocated {
			if _, ok := s.written[b]; !ok {
				n++
			}
		}
	}
	for _, l := range s.written {
		if l < 4096 {
			n++
		}
	}
	return n
}

func newSpyRig(t *testing.T, capacity int64) (*shortRig, *ldSpy) {
	t.Helper()
	spy := &ldSpy{data: map[ld.BlockID]bool{}, static: map[ld.BlockID]bool{}, written: map[ld.BlockID]int{}}
	r := buildShortRig(t, capacity, shortCfg, false, func(l *lld.LLD) ld.Disk {
		spy.Disk = l
		return spy
	})
	return r, spy
}

// TestReservationInvariant: whatever the file system does, after every
// operation lld's reservation is exactly one maximum-size block for every
// block allocated and not yet written and for every block the backend last
// wrote short — a file's tail, a half-filled directory block, a young
// i-node block — and nothing for any other. Unlinking every file leaves only
// what the metadata that outlives them (static blocks, the root directory)
// holds.
func TestReservationInvariant(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			r, spy := newSpyRig(t, 64<<20)
			rng := rand.New(rand.NewSource(seed))
			check := func(op string) {
				t.Helper()
				want := int64(spy.owed()) * int64(r.l.MaxBlockSize())
				if got := r.l.ReservedBytes(); got != want || len(r.be.reserved) != spy.owed() {
					t.Fatalf("after %s: %d bytes reserved for %d handles, want %d for %d", op, got, len(r.be.reserved), want, spy.owed())
				}
			}
			check("mkfs")
			live := map[string]int{} // name -> size
			names := func() []string {
				var out []string
				for i := 0; i < 24; i++ {
					if _, ok := live[fmt.Sprintf("/r%02d", i)]; ok {
						out = append(out, fmt.Sprintf("/r%02d", i))
					}
				}
				return out
			}
			for step := 0; step < 600; step++ {
				have := names()
				op := rng.Intn(6)
				if len(have) == 0 {
					op = 0
				}
				var name string
				if op > 0 {
					name = have[rng.Intn(len(have))]
				}
				switch op {
				case 0: // create, sometimes over an existing file
					name = fmt.Sprintf("/r%02d", rng.Intn(24))
					f, err := r.fs.Create(name)
					if err != nil {
						t.Fatal(err)
					}
					f.Close()
					live[name] = 0
				case 1: // append a few bytes or a few blocks
					n := 1 + rng.Intn(3000)
					if rng.Intn(4) == 0 {
						n = 4096 * (1 + rng.Intn(9))
					}
					p := make([]byte, n)
					rng.Read(p)
					f := open(t, r.fs, name)
					if _, err := f.WriteAt(p, int64(live[name])); err != nil {
						t.Fatal(err)
					}
					f.Close()
					live[name] += n
				case 2: // overwrite inside the file, zeros included
					if live[name] == 0 {
						continue
					}
					off := rng.Intn(live[name])
					p := make([]byte, 1+rng.Intn(live[name]-off))
					if rng.Intn(2) == 0 {
						rng.Read(p)
					}
					f := open(t, r.fs, name)
					if _, err := f.WriteAt(p, int64(off)); err != nil {
						t.Fatal(err)
					}
					f.Close()
				case 3: // truncate
					to := 0
					if live[name] > 0 {
						to = rng.Intn(live[name])
					}
					f := open(t, r.fs, name)
					if err := f.Truncate(int64(to)); err != nil {
						t.Fatal(err)
					}
					f.Close()
					live[name] = to
				case 4: // unlink
					if err := r.fs.Unlink(name); err != nil {
						t.Fatal(err)
					}
					delete(live, name)
				case 5: // push everything to LD
					if err := r.fs.Sync(); err != nil {
						t.Fatal(err)
					}
				}
				check(fmt.Sprintf("step %d (op %d on %s)", step, op, name))
			}
			for _, name := range names() {
				if err := r.fs.Unlink(name); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.fs.Sync(); err != nil {
				t.Fatal(err)
			}
			check("unlinking everything")
			for b := range spy.data {
				// What is left of the data blocks is the root directory's.
				if l, ok := spy.written[b]; !ok || r.be.reserved[Handle(b)] != (l < 4096) {
					t.Fatalf("data block %d left behind: written %v/%d, reserved %v", b, ok, l, r.be.reserved[Handle(b)])
				}
			}
			root, _ := r.fs.getInode(rootIno)
			rootBlocks, _ := r.l.ListBlocks(ld.ListID(root.List))
			if len(spy.data) != len(rootBlocks) {
				t.Fatalf("%d data blocks outlive their files, the root directory has %d", len(spy.data), len(rootBlocks))
			}
			r.fsck(t)
		})
	}
}

// TestReservationsAreVolatile documents what a remount does: the backend's
// reserved set and lld's count both start empty, exactly as they always
// have for blocks allocated and never written, and a short block's first
// rewrite takes its reservation again.
func TestReservationsAreVolatile(t *testing.T) {
	r := newShortRig(t, 32<<20, false)
	writeFile(t, r.fs, "/tail", bytes.Repeat([]byte{9}, 1000))
	if err := r.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(r.be.reserved) == 0 || r.l.ReservedBytes() == 0 {
		t.Fatal("a short tail holds no reservation")
	}
	r.remount(t, true, false)
	if len(r.be.reserved) != 0 || r.l.ReservedBytes() != 0 {
		t.Fatalf("reservations survived a remount: %d handles, %d bytes", len(r.be.reserved), r.l.ReservedBytes())
	}
	f := open(t, r.fs, "/tail")
	if _, err := f.WriteAt([]byte{1, 2, 3}, 1000); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := r.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	ino, _ := r.fs.getInode(mustResolve(t, r.fs, "/tail"))
	if h := ino.Zones[0]; !r.be.reserved[h] {
		t.Fatalf("rewritten tail %d took no reservation (reserved: %v)", h, r.be.reserved)
	}
	if got, want := r.l.ReservedBytes(), int64(len(r.be.reserved))*int64(r.l.MaxBlockSize()); got != want {
		t.Fatalf("%d bytes reserved, want %d", got, want)
	}
}

func mustResolve(t *testing.T, fs *FS, path string) uint32 {
	t.Helper()
	n, err := fs.resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRefusedReservationWritesWhole: a short block LD will not reserve room
// for is written whole, so that the space is claimed, or the write fails,
// now.
func TestRefusedReservationWritesWhole(t *testing.T) {
	r, spy := newSpyRig(t, 32<<20)
	h, err := r.be.Alloc(uint32(r.be.metaList), NilHandle)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 4096)
	copy(p, "short")
	spy.refuse = true
	if err := r.be.WriteBlock(h, p); err != nil {
		t.Fatal(err)
	}
	if n, _ := r.l.BlockSize(ld.BlockID(h)); n != 4096 {
		t.Fatalf("block stored as %d bytes with its reservation refused, want 4096", n)
	}
	if r.be.reserved[h] {
		t.Fatal("block recorded as reserved though Reserve was refused")
	}
	spy.refuse = false
	if err := r.be.WriteBlock(h, p); err != nil {
		t.Fatal(err)
	}
	if n, _ := r.l.BlockSize(ld.BlockID(h)); n != 512 || !r.be.reserved[h] {
		t.Fatalf("block stored as %d bytes, reserved %v; want 512, true", n, r.be.reserved[h])
	}
	got := make([]byte, 4096)
	if err := r.be.ReadBlock(h, got); err != nil || !bytes.Equal(got, p) {
		t.Fatalf("read back wrong (%v)", err)
	}
}

// TestFullDiskRefusesAtWriteNotAtSync fills an LD to its utilization limit
// with 1-KB files, behind a cache big enough that every block reaches LD at
// the Sync that follows, when no unreserved room is left. The file that
// does not fit is refused where the application can see it, at WriteAt or
// Create; every tail that was accepted can grow to a full block, even with
// new files taking, between the first half of the tails and the second,
// whatever room LD will still grant; and no Sync fails: each short block's
// reservation was room for the rest of it, and no other writer could have
// it. Run twice: with the names made and synced beforehand, and with each
// file made as it is filled, so that every i-node block the files need is
// first written at the Sync of a full disk — which it survives because the
// block has held a reservation since mkfs allocated it.
func TestFullDiskRefusesAtWriteNotAtSync(t *testing.T) {
	for _, namesFirst := range []bool{true, false} {
		t.Run(fmt.Sprint("namesFirst=", namesFirst), func(t *testing.T) { fullDiskRefusesAtWrite(t, namesFirst) })
	}
}

func fullDiskRefusesAtWrite(t *testing.T, namesFirst bool) {
	r := buildShortRig(t, 6<<20, Config{BlockSize: 4096, NInodes: 2048, CacheBytes: 8 << 20}, false,
		func(l *lld.LLD) ld.Disk { return l })
	const nNames = 1600
	name := func(i int) string { return fmt.Sprintf("/k%04d", i) }
	if namesFirst {
		for i := 0; i < nNames; i++ {
			f, err := r.fs.Create(name(i))
			if err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
		if err := r.fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	kb := bytes.Repeat([]byte{0xC3}, 1024)
	rest := bytes.Repeat([]byte{0x3C}, 4096-1024)
	write := func(f vfs.File, p []byte, off int64) error {
		defer f.Close()
		_, err := f.WriteAt(p, off)
		return err
	}
	mk := r.fs.Create
	if namesFirst {
		mk = r.fs.Open
	}
	filled := 0
	fill := func() {
		t.Helper()
		for ; filled < nNames; filled++ {
			f, err := mk(name(filled))
			if err == nil {
				err = write(f, kb, 0)
			}
			if err != nil {
				if !errors.Is(err, ld.ErrNoSpace) {
					t.Fatalf("%s refused with %v, want ErrNoSpace", name(filled), err)
				}
				break
			}
		}
		if filled == nNames {
			t.Fatal("the disk never filled")
		}
		if err := r.fs.Sync(); err != nil {
			t.Fatalf("sync of the full disk (%d files): %v", filled, err)
		}
	}
	grow := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := write(open(t, r.fs, name(i)), rest, 1024); err != nil {
				t.Fatalf("growing the tail of %s: %v", name(i), err)
			}
		}
		if err := r.fs.Sync(); err != nil {
			t.Fatalf("sync after growing tails %d to %d: %v", from, to, err)
		}
	}

	fill()
	first := filled
	t.Logf("%d 1-KB files fit; %d bytes reserved", first, r.l.ReservedBytes())
	if first < 500 {
		t.Fatalf("only %d files fit", first)
	}
	grow(0, first/2)
	fill() // whole blocks free their reservations: a few more files fit
	t.Logf("%d more fit once half the tails were whole blocks", filled-first)
	grow(first/2, filled)

	want := append(append([]byte(nil), kb...), rest...)
	for i := 0; i < filled; i++ {
		if got := readFile(t, r.fs, name(i)); !bytes.Equal(got, want) {
			t.Fatalf("%s differs after growing", name(i))
		}
	}
	r.fsck(t)
}
