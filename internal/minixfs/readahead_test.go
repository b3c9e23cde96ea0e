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

// countingBackend records what the file system asks of its backend: how
// many blocks it read in all, and the size of every ReadBlocks batch.
type countingBackend struct {
	Backend
	blocks  int   // blocks read, by ReadBlock or in a batch
	batches []int // len(hs) of each ReadBlocks call
}

func (c *countingBackend) ReadBlock(h Handle, p []byte) error {
	c.blocks++
	return c.Backend.ReadBlock(h, p)
}

func (c *countingBackend) ReadBlocks(hs []Handle, bufs [][]byte) []error {
	c.blocks += len(hs)
	c.batches = append(c.batches, len(hs))
	return c.Backend.ReadBlocks(hs, bufs)
}

func (c *countingBackend) reset() { c.blocks, c.batches = 0, nil }

// singles counts the batches of one block: on LD a miss with nothing to
// fetch beside it is a batch too, such as a cold lookup's one-block root
// directory.
func (c *countingBackend) singles() int {
	n := 0
	for _, b := range c.batches {
		if b == 1 {
			n++
		}
	}
	return n
}

type readRig struct {
	fs *FS
	be *countingBackend
	d  *disk.Disk
}

// readKinds are the configurations the read path is tested on; "ld-paper"
// is MINIX LLD as the paper built it (WholeBlockIO).
var readKinds = []string{"bitmap", "ld", "ld-offset", "ld-atomic", "ld-paper"}

func newReadRig(t *testing.T, kind string, cacheBytes int) *readRig {
	t.Helper()
	return newReadRigInodes(t, kind, cacheBytes, 256)
}

func newReadRigInodes(t *testing.T, kind string, cacheBytes int, nInodes uint32) *readRig {
	t.Helper()
	d := disk.New(disk.DefaultConfig(32 << 20))
	cfg := Config{BlockSize: 4096, NInodes: nInodes, CacheBytes: cacheBytes}
	var be Backend
	if kind == "bitmap" {
		b, err := FormatBitmap(d, 4096)
		if err != nil {
			t.Fatal(err)
		}
		be = b
	} else {
		opts := lld.DefaultOptions()
		opts.SegmentSize = 128 * 1024
		opts.SummarySize = 8 * 1024
		if err := lld.Format(d, opts); err != nil {
			t.Fatal(err)
		}
		l, err := lld.Open(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := FormatLD(l, 4096, LDConfig{PerFileLists: true, WholeBlockIO: kind == "ld-paper"})
		if err != nil {
			t.Fatal(err)
		}
		be = b
		cfg.OffsetFiles = kind == "ld-offset"
		cfg.AtomicOps = kind == "ld-atomic"
	}
	cb := &countingBackend{Backend: be}
	fs, err := Mkfs(cb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &readRig{fs: fs, be: cb, d: d}
}

// window is the batch size a sequential miss asks for on this rig.
func (r *readRig) window() int { return r.be.BatchWindow(true) }

// stamped returns n blocks of data in which every block is unlike any other.
func stamped(seed int64, blocks int) []byte {
	p := make([]byte, blocks*4096)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// cold writes data to path, pushes it to the backend and empties the cache,
// so that the reads that follow all come off the disk.
func (r *readRig) cold(t *testing.T, path string, data []byte) {
	t.Helper()
	writeFile(t, r.fs, path, data)
	if err := r.fs.DropCaches(); err != nil {
		t.Fatal(err)
	}
	r.be.reset()
}

func open(t *testing.T, fs *FS, path string) vfs.File {
	t.Helper()
	f, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// readChunks reads the chunks of f named by order and checks them against
// want.
func readChunks(t *testing.T, f vfs.File, want []byte, chunk int, order []int) {
	t.Helper()
	buf := make([]byte, chunk)
	for _, k := range order {
		off := k * chunk
		n, err := f.ReadAt(buf, int64(off))
		if err != nil {
			t.Fatalf("read chunk %d: %v", k, err)
		}
		end := off + chunk
		if end > len(want) {
			end = len(want)
		}
		if !bytes.Equal(buf[:n], want[off:end]) {
			t.Fatalf("chunk %d: wrong bytes (n=%d)", k, n)
		}
	}
}

func seq(n int) []int {
	o := make([]int, n)
	for i := range o {
		o[i] = i
	}
	return o
}

// TestSequentialReadIsBatched: a file read in order costs about
// blocks/window backend batches, every block comes off the backend once,
// and each of those is booked as one miss or one read-ahead block.
func TestSequentialReadIsBatched(t *testing.T) {
	const blocks = 256
	data := stamped(1, blocks)
	misses := map[string]int64{}
	for _, kind := range readKinds {
		t.Run(kind, func(t *testing.T) {
			r := newReadRig(t, kind, 4<<20)
			r.cold(t, "/f", data)
			s0 := r.fs.Stats()
			f := open(t, r.fs, "/f")
			readChunks(t, f, data, 8192, seq(blocks/2))
			s := r.fs.Stats()
			miss, ahead := s.CacheMisses-s0.CacheMisses, s.ReadaheadBlocks-s0.ReadaheadBlocks
			misses[kind] = miss + ahead
			if miss+ahead != int64(r.be.blocks) {
				t.Errorf("%d misses + %d read ahead, but the backend read %d blocks", miss, ahead, r.be.blocks)
			}
			if int(miss+ahead) < blocks || int(miss+ahead) > blocks+4 {
				t.Errorf("%d blocks fetched for a %d-block file", miss+ahead, blocks)
			}
			if kind == "ld-paper" {
				if len(r.be.batches) != 0 || ahead != 0 {
					t.Fatalf("WholeBlockIO issued batches %v, read ahead %d", r.be.batches, ahead)
				}
				return
			}
			w := r.window()
			if got, want := len(r.be.batches), blocks/w; got < want || got > want+2 {
				t.Errorf("%d batches for %d blocks at window %d, want about %d", got, blocks, w, want)
			}
			wantSingles := 1 // the root directory, fetched like a file on LD
			if kind == "bitmap" {
				wantSingles = 0 // MINIX searches a directory one block at a time
			}
			if r.be.singles() != wantSingles {
				t.Errorf("batches %v: want %d of one block", r.be.batches, wantSingles)
			}
			fileBatches := len(r.be.batches) - r.be.singles()
			if got := s.ReadaheadBatches - s0.ReadaheadBatches; got != int64(fileBatches) {
				t.Errorf("ReadaheadBatches %d, backend saw %d of the file's", got, fileBatches)
			}
			if want := int64(blocks - 2*fileBatches); ahead != want {
				t.Errorf("read ahead %d blocks, want %d (all but the two each batch was asked for)", ahead, want)
			}
			// Read ahead, then hit: the second pass over a file that
			// fits the cache touches the backend no more.
			r.be.reset()
			readChunks(t, f, data, 8192, seq(32))
			if r.be.blocks != 0 {
				t.Errorf("re-read of cached blocks read %d blocks", r.be.blocks)
			}
		})
	}
	// The accounting identity of the PR: what the per-block path booked as
	// misses is now misses plus read-ahead, block for block.
	if misses["ld"] != misses["ld-paper"] {
		t.Errorf("batched path fetched %d blocks, per-block path %d", misses["ld"], misses["ld-paper"])
	}
}

// TestRandomReadFetchesOnlyWhatItDemands: on LD a random read is one batch
// of the blocks asked for. The bitmap backend keeps MINIX's own policy.
func TestRandomReadFetchesOnlyWhatItDemands(t *testing.T) {
	const blocks = 256
	data := stamped(2, blocks)
	// Every chunk once, no chunk straight after its predecessor, and not
	// chunk 0 first: nothing here is a sequential read.
	order := make([]int, blocks/2)
	for i := range order {
		order[i] = (5 + 37*i) % len(order)
	}
	for _, kind := range readKinds {
		t.Run(kind, func(t *testing.T) {
			r := newReadRig(t, kind, 4<<20)
			r.cold(t, "/f", data)
			s0 := r.fs.Stats()
			readChunks(t, open(t, r.fs, "/f"), data, 8192, order)
			ahead := r.fs.Stats().ReadaheadBlocks - s0.ReadaheadBlocks
			if kind == "bitmap" {
				if ahead == 0 {
					t.Error("MINIX reads ahead on every miss; this run read nothing ahead")
				}
				return
			}
			for _, n := range r.be.batches {
				if n > 2 {
					t.Fatalf("a random 8-KB read fetched %d blocks", n)
				}
			}
			if ahead != 0 {
				t.Errorf("random read read %d blocks ahead", ahead)
			}
			// One batch a read, and one of one block for the cold lookup's
			// root directory.
			if kind != "ld-paper" && (len(r.be.batches) != blocks/2+1 || r.be.singles() != 1) {
				t.Errorf("batches %v for %d two-block reads", r.be.batches, blocks/2)
			}
		})
	}
}

// TestReadaheadNeverReplacesADirtyBlock: blocks rewritten in the cache and
// not yet written back sit inside the window of a sequential read; the
// read returns them, and they still reach the disk.
func TestReadaheadNeverReplacesADirtyBlock(t *testing.T) {
	const blocks = 64
	for _, kind := range readKinds {
		t.Run(kind, func(t *testing.T) {
			r := newReadRig(t, kind, 1<<20)
			data := stamped(4, blocks)
			r.cold(t, "/f", data)
			f := open(t, r.fs, "/f")
			fresh := stamped(5, 2)
			// A whole block (installed without a read) and a part of one.
			copy(data[5*4096:], fresh[:4096])
			if _, err := f.WriteAt(fresh[:4096], 5*4096); err != nil {
				t.Fatal(err)
			}
			copy(data[9*4096+100:], fresh[4096:4096+1000])
			if _, err := f.WriteAt(fresh[4096:4096+1000], 9*4096+100); err != nil {
				t.Fatal(err)
			}
			readChunks(t, open(t, r.fs, "/f"), data, 8192, seq(blocks/2))
			if err := r.fs.DropCaches(); err != nil {
				t.Fatal(err)
			}
			readChunks(t, open(t, r.fs, "/f"), data, 8192, seq(blocks/2))
		})
	}
}

// TestReadaheadStopsAtHolesAndEOF: nothing is fetched for a hole or past
// the end of the file, and a file that ends inside a block reads right.
func TestReadaheadStopsAtHolesAndEOF(t *testing.T) {
	for _, kind := range readKinds {
		if kind == "ld-offset" {
			continue // offset addressing fills holes with blocks
		}
		t.Run(kind, func(t *testing.T) {
			r := newReadRig(t, kind, 1<<20)
			want := make([]byte, 13*4096-700)
			f, err := r.fs.Create("/sparse")
			if err != nil {
				t.Fatal(err)
			}
			head, tail := stamped(6, 4), stamped(7, 3)[:3*4096-700]
			copy(want, head)
			copy(want[10*4096:], tail)
			if _, err := f.WriteAt(head, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(tail, 10*4096); err != nil {
				t.Fatal(err)
			}
			if err := r.fs.DropCaches(); err != nil {
				t.Fatal(err)
			}
			r.be.reset()
			readChunks(t, open(t, r.fs, "/sparse"), want, 8192, seq(7))
			// 7 data blocks, the i-node block and the root directory's.
			if r.be.blocks > 7+3 {
				t.Errorf("backend read %d blocks of a file that has 7", r.be.blocks)
			}
			for _, n := range r.be.batches {
				if n > 4 {
					t.Errorf("a batch of %d blocks crossed a hole or the end of the file", n)
				}
			}
		})
	}
}

// TestTruncateBetweenReads: blocks read ahead and then freed by a truncate
// do not come back when the file grows again over reused handles.
func TestTruncateBetweenReads(t *testing.T) {
	const blocks = 48
	for _, kind := range readKinds {
		t.Run(kind, func(t *testing.T) {
			r := newReadRig(t, kind, 1<<20)
			data := stamped(8, blocks)
			r.cold(t, "/f", data)
			f := open(t, r.fs, "/f")
			readChunks(t, f, data, 8192, seq(1)) // reads the window ahead
			if err := f.Truncate(3 * 4096); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 8192)
			if n, err := f.ReadAt(buf, 8192); err != nil || n != 4096 || !bytes.Equal(buf[:n], data[8192:3*4096]) {
				t.Fatalf("read across the new end: n=%d err=%v", n, err)
			}
			grown := stamped(9, blocks)
			copy(grown, data[:3*4096])
			if _, err := f.WriteAt(grown[3*4096:], 3*4096); err != nil {
				t.Fatal(err)
			}
			readChunks(t, open(t, r.fs, "/f"), grown, 8192, seq(blocks/2))
			if err := r.fs.DropCaches(); err != nil {
				t.Fatal(err)
			}
			readChunks(t, open(t, r.fs, "/f"), grown, 8192, seq(blocks/2))
		})
	}
}

// TestTwoHandlesInterleaved: each handle keeps its own place, so two
// readers of one file are both sequential, and the second finds what the
// first read ahead.
func TestTwoHandlesInterleaved(t *testing.T) {
	const blocks = 128
	data := stamped(10, blocks)
	for _, kind := range readKinds {
		t.Run(kind, func(t *testing.T) {
			r := newReadRig(t, kind, 1<<20)
			r.cold(t, "/f", data)
			a, b := open(t, r.fs, "/f"), open(t, r.fs, "/f")
			for k := 0; k < blocks/2; k++ {
				readChunks(t, a, data, 8192, []int{k})
				readChunks(t, b, data, 8192, []int{k})
			}
			if r.be.blocks > blocks+4 {
				t.Errorf("two readers cost %d block reads for %d blocks", r.be.blocks, blocks)
			}
			if w := r.window(); w > 1 && len(r.be.batches) > blocks/w+2 {
				t.Errorf("%d batches, want about %d: interleaving broke sequential detection", len(r.be.batches), blocks/w)
			}
		})
	}
}

// TestTinyCacheClampsTheWindow: with an 8-block cache a batch is at most
// two blocks, and reads larger than the cache still return the right bytes.
func TestTinyCacheClampsTheWindow(t *testing.T) {
	const blocks = 64
	data := stamped(11, blocks)
	for _, kind := range readKinds {
		t.Run(kind, func(t *testing.T) {
			r := newReadRig(t, kind, 8*4096)
			r.cold(t, "/f", data)
			f := open(t, r.fs, "/f")
			readChunks(t, f, data, 8192, seq(blocks/2))
			readChunks(t, f, data, 64*1024, seq(blocks/16))
			readChunks(t, f, data, 4096, seq(blocks))
			for _, n := range r.be.batches {
				if n > 2 {
					t.Fatalf("batch of %d blocks in an 8-block cache", n)
				}
			}
		})
	}
}

// platterOffset finds the one place on the disk that holds blk.
func platterOffset(t *testing.T, d *disk.Disk, blk []byte) int64 {
	t.Helper()
	img := d.Snapshot()
	off := bytes.Index(img, blk)
	if off < 0 || bytes.Contains(img[off+1:], blk) {
		t.Fatal("block is not on the platter exactly once")
	}
	return int64(off)
}

// TestCorruptBlockInABatch: a rotten block that was only read ahead costs
// nothing until it is asked for; asked for, it fails with the error the
// per-block path reports, and its neighbours stay readable.
func TestCorruptBlockInABatch(t *testing.T) {
	const blocks = 64
	data := stamped(12, blocks)
	for _, tc := range []struct {
		name   string
		rotten int // file block
	}{
		{"prefetched", 11},
		{"demanded", 0},
		{"second-demanded", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The same damage on the batched and on the per-block path.
			var errs [2]error
			for i, kind := range []string{"ld", "ld-paper"} {
				r := newReadRig(t, kind, 1<<20)
				r.cold(t, "/f", data)
				blk := data[tc.rotten*4096 : (tc.rotten+1)*4096]
				r.d.CorruptRange(platterOffset(t, r.d, blk)+100, 64, 0xff)
				f := open(t, r.fs, "/f")
				buf := make([]byte, 8192)
				for k := 0; k < blocks/2; k++ {
					n, err := f.ReadAt(buf, int64(k)*8192)
					if k == tc.rotten/2 {
						if err == nil {
							t.Fatalf("%s: chunk %d read a rotten block without error", kind, k)
						}
						errs[i] = err
						if want := (tc.rotten % 2) * 4096; n != want {
							t.Errorf("%s: %d bytes before the error, want %d", kind, n, want)
						}
						continue
					}
					if err != nil || !bytes.Equal(buf[:n], data[k*8192:(k+1)*8192]) {
						t.Fatalf("%s: neighbour chunk %d: n=%d err=%v", kind, k, n, err)
					}
				}
			}
			var ce *lld.CorruptError
			if !errors.As(errs[0], &ce) || !errors.Is(errs[0], ld.ErrCorrupt) {
				t.Errorf("batched path: %v is not a *lld.CorruptError", errs[0])
			}
			if errs[0].Error() != errs[1].Error() {
				t.Errorf("batched path reports %q, per-block path %q", errs[0], errs[1])
			}
		})
	}
}

// TestShutdownUnderABatch: a backend that fails every entry of a batch
// surfaces as the per-block error of the demanded block.
func TestShutdownUnderABatch(t *testing.T) {
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
	be, err := FormatLD(l, 4096, LDConfig{PerFileLists: true})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Mkfs(be, Config{BlockSize: 4096, NInodes: 64, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	data := stamped(13, 16)
	writeFile(t, fs, "/f", data)
	if err := fs.DropCaches(); err != nil {
		t.Fatal(err)
	}
	f := open(t, fs, "/f")
	if _, err := f.ReadAt(make([]byte, 100), 0); err != nil { // i-node and directory now cached
		t.Fatal(err)
	}
	if err := fs.DropCaches(); err != nil {
		t.Fatal(err)
	}
	if err := l.Shutdown(true); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(make([]byte, 8192), 0); !errors.Is(err, ld.ErrShutdown) {
		t.Fatalf("read on a shut-down disk: %v, want ErrShutdown", err)
	}
}

// TestDirectoryScanIsBatched: a directory scan is an in-order read of the
// directory file, so on LD a cold lookup fetches every directory block in
// one batch, each still read once; a scan that finds its first block cached
// stops its batch at the next cached one, so a dirty directory block is
// never replaced by its copy on disk. MINIX proper and the paper's MINIX
// LLD search a directory one block at a time.
func TestDirectoryScanIsBatched(t *testing.T) {
	const files = 4096 / direntSize * 5 // five directory blocks
	name := func(i int) string { return fmt.Sprintf("/n%03d", i) }
	for _, kind := range readKinds {
		t.Run(kind, func(t *testing.T) {
			r := newReadRigInodes(t, kind, 4<<20, 1024)
			for i := 0; i < files; i++ {
				f, err := r.fs.Create(name(i))
				if err != nil {
					t.Fatal(err)
				}
				f.Close()
			}
			if err := r.fs.DropCaches(); err != nil {
				t.Fatal(err)
			}
			r.be.reset()
			if _, err := r.fs.Stat(name(files - 1)); err != nil {
				t.Fatal(err)
			}
			dirBlocks := files * direntSize / 4096
			var want []int
			if kind != "bitmap" && kind != "ld-paper" {
				want = []int{dirBlocks}
			}
			if len(r.be.batches) != len(want) || len(want) == 1 && r.be.batches[0] != want[0] {
				t.Fatalf("a cold lookup in a %d-block directory issued batches %v, want %v", dirBlocks, r.be.batches, want)
			}
			if max := dirBlocks + 3; r.be.blocks > max { // and the root and the file's i-node blocks
				t.Fatalf("lookup read %d blocks, want at most %d", r.be.blocks, max)
			}
			// Dirty the last directory block, evict the others from a
			// cold cache, and scan again: the batch must stop short of it.
			if err := r.fs.Unlink(name(files - 1)); err != nil {
				t.Fatal(err)
			}
			root, _ := r.fs.getInode(rootIno)
			for b := 0; b < dirBlocks-1; b++ {
				h, _ := r.fs.bmap(rootIno, &root, b, false)
				r.fs.cache.drop(h)
			}
			delete(r.fs.dcache, rootIno)
			r.be.reset()
			if _, err := r.fs.Stat(name(files - 1)); !errors.Is(err, vfs.ErrNotExist) {
				t.Fatalf("unlinked name still found (%v): a stale directory block replaced the dirty one", err)
			}
			if len(want) == 1 && (len(r.be.batches) != 1 || r.be.batches[0] != dirBlocks-1) {
				t.Fatalf("rescan issued batches %v, want one of %d (up to the cached block)", r.be.batches, dirBlocks-1)
			}
		})
	}
}
