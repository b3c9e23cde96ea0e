package minixfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// writeRecorder calls check on every block the file system writes while
// check is set.
type writeRecorder struct {
	Backend
	check func(h Handle, p []byte)
}

func (w *writeRecorder) WriteBlock(h Handle, p []byte) error {
	if w.check != nil {
		w.check(h, p)
	}
	return w.Backend.WriteBlock(h, p)
}

// newWriteRig is a read rig whose writes pass through a writeRecorder.
func newWriteRig(t *testing.T, kind string, cacheBlocks int) (*readRig, *writeRecorder) {
	t.Helper()
	r := newReadRig(t, kind, cacheBlocks*4096)
	rec := &writeRecorder{Backend: r.be.Backend}
	r.be.Backend = rec
	return r, rec
}

// entryOf is the cache entry of h, which a write-back is about to write.
func entryOf(t *testing.T, c *bufCache, h Handle) *bufEntry {
	t.Helper()
	el, ok := c.entries[h]
	if !ok {
		t.Fatalf("block %d written back from outside the cache", h)
	}
	return el.Value.(*bufEntry)
}

// lruBack fails unless h is the cache's least recently used block: the
// block per-block LRU write-back writes.
func lruBack(t *testing.T, c *bufCache, h Handle) {
	t.Helper()
	if back := c.lru.Back().Value.(*bufEntry).h; back != h {
		t.Fatalf("wrote block %d while the LRU victim is %d", h, back)
	}
}

// dirtyBelow reports whether a dirty block of e's file with a lower file
// index than e's is cached (a scan; the cache's own index avoids one).
func dirtyBelow(c *bufCache, e *bufEntry) bool {
	for _, el := range c.entries {
		o := el.Value.(*bufEntry)
		if o != e && o.dirty && o.at >= 0 && o.ino == e.ino && o.idx < e.idx {
			return true
		}
	}
	return false
}

// checkIndex fails unless every entry in the per-file dirty index is a
// cached, dirty block of that file at the position it records.
func checkIndex(t *testing.T, c *bufCache) {
	t.Helper()
	for ino, fd := range c.byFile {
		if fd.Len() == 0 {
			t.Fatalf("i-node %d: empty dirty index kept", ino)
		}
		for i, e := range *fd {
			el, ok := c.entries[e.h]
			if !ok || el.Value.(*bufEntry) != e || !e.dirty || e.ino != ino || int(e.at) != i {
				t.Fatalf("i-node %d: index slot %d holds block %d (cached %v, dirty %v, i-node %d, at %d)",
					ino, i, e.h, ok, e.dirty, e.ino, e.at)
			}
		}
	}
}

// stampBlock is a block filled with tag, its file index in front.
func stampBlock(tag byte, idx int) []byte {
	p := bytes.Repeat([]byte{tag}, 4096)
	put32(p, uint32(idx))
	return p
}

// stampOf returns the tag and file index p was stamped with, or ok false.
func stampOf(p []byte) (tag byte, idx int, ok bool) {
	if len(p) != 4096 {
		return 0, 0, false
	}
	tag, idx = p[4], int(le32(p))
	return tag, idx, bytes.Equal(p, stampBlock(tag, idx))
}

// writeBlocks writes the blocks of f named by order, each stamped with tag.
func writeBlocks(t *testing.T, r *readRig, path string, tag byte, order []int) {
	t.Helper()
	f := open(t, r.fs, path)
	defer f.Close()
	for _, i := range order {
		if _, err := f.WriteAt(stampBlock(tag, i), int64(i)*4096); err != nil {
			t.Fatalf("write block %d of %s: %v", i, path, err)
		}
		checkIndex(t, r.fs.cache)
	}
}

// ascendingRuns is how many ascending runs seq falls into.
func ascendingRuns(seq []int) int {
	runs := 0
	for i := range seq {
		if i == 0 || seq[i] < seq[i-1] {
			runs++
		}
	}
	return runs
}

// rewriteAtRandom writes a 256-block file in order, empties the cache and
// rewrites every block once in a random order through a 64-block cache,
// with per-block LRU write-back if lru is set. It returns the file indices
// of the file's blocks in the order the evictions wrote them, with check
// also called on every write; the file must read back as last written.
func rewriteAtRandom(t *testing.T, kind string, lru bool, check func(c *bufCache, h Handle)) []int {
	t.Helper()
	const blocks = 256
	r, rec := newWriteRig(t, kind, 64)
	writeFile(t, r.fs, "/f", bytes.Repeat([]byte{1}, blocks*4096))
	if err := r.fs.DropCaches(); err != nil {
		t.Fatal(err)
	}
	ino := mustResolve(t, r.fs, "/f")
	c := r.fs.cache
	if lru {
		c.inFileOrder = false
	}
	var order []int
	rec.check = func(h Handle, p []byte) {
		if tag, idx, ok := stampOf(p); ok && tag == 2 {
			order = append(order, idx)
			if e := entryOf(t, c, h); c.inFileOrder && (e.ino != ino || int(e.idx) != idx) {
				t.Fatalf("block %d indexed as i-node %d block %d, holds block %d of i-node %d", h, e.ino, e.idx, idx, ino)
			}
		}
		check(c, h)
	}
	writeBlocks(t, r, "/f", 2, rand.New(rand.NewSource(7)).Perm(blocks))
	rec.check = nil
	if err := r.fs.DropCaches(); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, r.fs, "/f")
	for i := 0; i < blocks; i++ {
		if !bytes.Equal(got[i*4096:(i+1)*4096], stampBlock(2, i)) {
			t.Fatalf("block %d does not read back as last written", i)
		}
	}
	if len(order) < blocks/2 {
		t.Fatalf("only %d of %d rewritten blocks reached the backend before the sync", len(order), blocks)
	}
	return order
}

// TestRandomRewriteWritesBackInFileOrder: on LD, a file rewritten at random
// reaches the backend in runs that ascend by file index — no block is
// written while a dirty block of its file with a lower index waits in the
// cache — so lld logs the file in list order again. Per-block LRU
// write-back of the same rewrite falls into more than four times as many
// runs.
func TestRandomRewriteWritesBackInFileOrder(t *testing.T) {
	for _, kind := range []string{"ld", "ld-offset"} {
		t.Run(kind, func(t *testing.T) {
			order := rewriteAtRandom(t, kind, false, func(c *bufCache, h Handle) {
				if e := entryOf(t, c, h); e.at >= 0 && dirtyBelow(c, e) {
					t.Fatalf("block %d (file index %d) written before a dirty block below it", h, e.idx)
				}
			})
			lru := rewriteAtRandom(t, kind, true, func(*bufCache, Handle) {})
			runs, lruRuns := ascendingRuns(order), ascendingRuns(lru)
			t.Logf("%d blocks in %d ascending runs; per-block LRU: %d blocks in %d runs", len(order), runs, len(lru), lruRuns)
			if 4*runs > lruRuns {
				t.Errorf("%d ascending runs against LRU's %d", runs, lruRuns)
			}
		})
	}
}

// TestPaperBackendsWriteBackInLRUOrder: MINIX on its bitmap (which updates
// in place) and MINIX LLD as the paper built it (WholeBlockIO) write each
// dirty block back as it leaves the LRU end of the cache.
func TestPaperBackendsWriteBackInLRUOrder(t *testing.T) {
	for _, kind := range []string{"bitmap", "ld-paper"} {
		t.Run(kind, func(t *testing.T) {
			rewriteAtRandom(t, kind, false, func(c *bufCache, h Handle) {
				if c.inFileOrder {
					t.Fatal("the backend asks for file-order write-back")
				}
				lruBack(t, c, h)
			})
		})
	}
}

// TestInOrderWriteKeepsLRUOrder: a file written in order, allocating as it
// goes, reaches the backend in exactly the per-block LRU order: its blocks
// leave the cache lowest index first, so writing in file order adds none.
func TestInOrderWriteKeepsLRUOrder(t *testing.T) {
	for _, kind := range []string{"ld", "ld-offset"} {
		t.Run(kind, func(t *testing.T) {
			r, rec := newWriteRig(t, kind, 64)
			if _, err := r.fs.Create("/f"); err != nil {
				t.Fatal(err)
			}
			writes := 0
			rec.check = func(h Handle, p []byte) {
				lruBack(t, r.fs.cache, h)
				writes++
			}
			writeBlocks(t, r, "/f", 2, seq(512))
			if writes < 400 {
				t.Fatalf("%d write-backs for 512 blocks through a 64-block cache", writes)
			}
		})
	}
}

// TestDroppedBlocksAreNeverWrittenBack: a dirty block the cache drops —
// its file unlinked or truncated — leaves its file's dirty index with it,
// so no later write-back in file order writes it, not even for a new file
// that reuses the i-node number and the block numbers.
func TestDroppedBlocksAreNeverWrittenBack(t *testing.T) {
	const unlinked, truncated = 0xD5, 0xD6 // the tags of blocks dropped dirty
	r, rec := newWriteRig(t, "ld", 64)
	dropped := map[byte]bool{}
	rec.check = func(h Handle, p []byte) {
		if tag, idx, ok := stampOf(p); ok && dropped[tag] {
			t.Fatalf("block %d, dropped with tag %#x, written to block %d", idx, tag, h)
		}
	}

	// Unlink, then a file on the same i-node.
	writeFile(t, r.fs, "/a", nil)
	ino := mustResolve(t, r.fs, "/a")
	writeBlocks(t, r, "/a", unlinked, rand.New(rand.NewSource(1)).Perm(40))
	if err := r.fs.Unlink("/a"); err != nil {
		t.Fatal(err)
	}
	dropped[unlinked] = true
	checkIndex(t, r.fs.cache)
	writeFile(t, r.fs, "/b", nil)
	if got := mustResolve(t, r.fs, "/b"); got != ino {
		t.Fatalf("/b is i-node %d, /a was %d", got, ino)
	}
	writeBlocks(t, r, "/b", 2, reversed(200))

	// Truncate: blocks 8 and up are dropped dirty, then written afresh,
	// highest first, so each eviction writes the file's dirty blocks
	// below the victim.
	writeFile(t, r.fs, "/c", nil)
	perm := rand.New(rand.NewSource(2)).Perm(40)
	for _, i := range perm {
		tag := byte(truncated)
		if i < 8 {
			tag = 3
		}
		writeBlocks(t, r, "/c", tag, []int{i})
	}
	f := open(t, r.fs, "/c")
	if err := f.Truncate(8 * 4096); err != nil {
		t.Fatal(err)
	}
	f.Close()
	dropped[truncated] = true
	checkIndex(t, r.fs.cache)
	writeBlocks(t, r, "/c", 4, reversed(200)[:192])
	rec.check = nil
	if err := r.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(r.fs.cache.byFile) != 0 {
		t.Fatalf("%d files still indexed dirty after a sync", len(r.fs.cache.byFile))
	}
	got := readFile(t, r.fs, "/c")
	for i := 0; i < 200; i++ {
		tag := byte(4)
		if i < 8 {
			tag = 3
		}
		if !bytes.Equal(got[i*4096:(i+1)*4096], stampBlock(tag, i)) {
			t.Fatalf("/c block %d does not read back as last written", i)
		}
	}
}

// TestAtomicUnitEvictsOnlyItsVictim: an eviction inside an atomic unit
// writes only the block LRU evicts, even where its file has dirty blocks
// below it, so the unit takes in no block it did not touch.
func TestAtomicUnitEvictsOnlyItsVictim(t *testing.T) {
	r, rec := newWriteRig(t, "ld-atomic", 64)
	c := r.fs.cache
	for i := 0; i < 40; i++ {
		if err := r.fs.Mkdir(fmt.Sprintf("/d%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(t, r.fs, "/f", nil)
	writeBlocks(t, r, "/f", 2, rand.New(rand.NewSource(3)).Perm(60))
	inUnit, wouldOrder := 0, 0
	rec.check = func(h Handle, p []byte) {
		if !c.trackTouched {
			return
		}
		lruBack(t, c, h)
		inUnit++
		if e := entryOf(t, c, h); e.at >= 0 && dirtyBelow(c, e) {
			wouldOrder++
		}
	}
	// Each create gives its directory its first block, evicting one.
	for i := 0; i < 40; i++ {
		writeFile(t, r.fs, fmt.Sprintf("/d%d/x", i), nil)
	}
	t.Logf("%d write-backs inside units, %d of them with dirty blocks below the victim", inUnit, wouldOrder)
	if wouldOrder == 0 {
		t.Fatal("no eviction inside a unit had its file's dirty blocks below it: the test shows nothing")
	}
}

// reversed is n-1, ..., 1, 0.
func reversed(n int) []int {
	o := seq(n)
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		o[i], o[j] = o[j], o[i]
	}
	return o
}
