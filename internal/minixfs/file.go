package minixfs

import (
	"repro/internal/vfs"
)

// file implements vfs.File over one i-node.
type file struct {
	fs     *FS
	n      uint32
	closed bool
	// next is where the last ReadAt ended: a ReadAt that starts there (0
	// on a fresh handle) is reading the file in order. start is where the
	// reading in order began.
	next, start int64
}

func (f *file) check() error {
	if f.closed {
		return vfs.ErrClosed
	}
	return f.fs.checkOpen()
}

// Size implements vfs.File.
func (f *file) Size() int64 {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	ino, err := f.fs.getInode(f.n)
	if err != nil {
		return 0
	}
	return int64(ino.Size)
}

// ReadAt implements vfs.File.
func (f *file) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	ino, err := f.fs.getInode(f.n)
	if err != nil {
		return 0, err
	}
	size := int64(ino.Size)
	if off >= size {
		return 0, nil
	}
	if max := size - off; int64(len(p)) > max {
		p = p[:max]
	}
	bs := int64(f.fs.sb.BlockSize)
	inOrder := off == f.next
	if !inOrder {
		f.start = off
	}
	f.next = off + int64(len(p))
	last := int((f.next - 1) / bs)
	read := 0
	for read < len(p) {
		idx := int((off + int64(read)) / bs)
		inBlk := int((off + int64(read)) % bs)
		n := f.fs.sb.BlockSize - inBlk
		if n > len(p)-read {
			n = len(p) - read
		}
		h, err := f.fs.bmap(f.n, &ino, idx, false)
		if err != nil {
			return read, err
		}
		if h == NilHandle {
			// Hole: reads as zeros.
			for i := 0; i < n; i++ {
				p[read+i] = 0
			}
			read += n
			continue
		}
		if !f.fs.cache.contains(h) {
			run := 0
			if inOrder {
				run = int((off+int64(read)-f.start)/bs) + 1
			}
			f.fs.fetch(f.n, &ino, idx, last, run)
		}
		e, err := f.fs.cache.get(h, f.fs.sb.BlockSize)
		if err != nil {
			return read, err
		}
		copy(p[read:read+n], e.data[inBlk:])
		read += n
	}
	f.fs.stats.BytesRead += int64(read)
	return read, nil
}

// fetch serves a read miss on file block idx of a ReadAt that demands the
// blocks through last and has come run blocks into reading the file in
// order (Backend.BatchWindow): one Backend.ReadBlocks for the file blocks
// from idx to the end of the demand or of the backend's window, whichever
// is further. The batch stops at a hole, at end of file and at the first
// block already cached, so a dirty block is never replaced by its stale
// copy on disk. A batch of one block is a batch too: reading the next small
// file then continues the stream LD reads ahead along. What was read is
// installed in the cache; the caller's cache.get finds it there, or reads
// the block alone and reports its error.
func (fs *FS) fetch(n uint32, ino *inode, idx, last, run int) {
	w := fs.be.BatchWindow(run)
	if w == 0 {
		return
	}
	bs := fs.sb.BlockSize
	end := idx + w
	if end <= last {
		end = last + 1
	}
	// A batch is at most a quarter of the cache, so that installing it
	// evicts none of its own blocks before they are used.
	if lim := idx + fs.cache.capacity/bs/4; end > lim {
		end = lim
	}
	if eof := (int(ino.Size) + bs - 1) / bs; end > eof {
		end = eof
	}
	hs := make([]Handle, 0, end-idx)
	for i := idx; i < end; i++ {
		h, err := fs.bmap(n, ino, i, false)
		if err != nil || h == NilHandle || i > idx && fs.cache.contains(h) {
			break
		}
		hs = append(hs, h)
	}
	if len(hs) == 0 {
		return
	}
	bufs := make([][]byte, len(hs))
	for i := range bufs {
		bufs[i] = make([]byte, bs)
	}
	errs := fs.be.ReadBlocks(hs, bufs)
	demanded := last + 1 - idx
	if len(hs) > demanded {
		fs.stats.ReadaheadBatches++
	}
	for i, h := range hs {
		if errs[i] != nil {
			continue
		}
		if err := fs.cache.fill(h, bufs[i], i < demanded); err != nil {
			return
		}
		if i >= demanded {
			fs.stats.ReadaheadBlocks++
		}
	}
}

// WriteAt implements vfs.File.
func (f *file) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	ino, err := f.fs.getInode(f.n)
	if err != nil {
		return 0, err
	}
	bs := int64(f.fs.sb.BlockSize)
	if (off+int64(len(p))+bs-1)/bs > int64(f.fs.maxFileBlocks()) {
		return 0, vfs.ErrInvalid
	}
	written := 0
	for written < len(p) {
		idx := int((off + int64(written)) / bs)
		inBlk := int((off + int64(written)) % bs)
		nn := f.fs.sb.BlockSize - inBlk
		if nn > len(p)-written {
			nn = len(p) - written
		}
		h, err := f.fs.bmap(f.n, &ino, idx, true)
		if err != nil {
			return written, err
		}
		if inBlk == 0 && nn == f.fs.sb.BlockSize {
			// Full-block overwrite: no need to read first.
			blk := make([]byte, f.fs.sb.BlockSize)
			copy(blk, p[written:written+nn])
			if err := f.fs.cache.install(h, blk, true); err != nil {
				return written, err
			}
		} else {
			e, err := f.fs.cache.get(h, f.fs.sb.BlockSize)
			if err != nil {
				return written, err
			}
			copy(e.data[inBlk:], p[written:written+nn])
			f.fs.cache.markDirty(h)
		}
		written += nn
	}
	end := off + int64(written)
	if end > int64(ino.Size) {
		ino.Size = uint32(end)
	}
	ino.MTime = f.fs.be.Now()
	if err := f.fs.putInode(f.n, &ino); err != nil {
		return written, err
	}
	f.fs.stats.BytesWritten += int64(written)
	return written, nil
}

// Truncate implements vfs.File.
func (f *file) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return err
	}
	ino, err := f.fs.getInode(f.n)
	if err != nil {
		return err
	}
	if err := f.fs.atomicBegin(); err != nil {
		return err
	}
	return f.fs.atomicEnd(f.fs.truncateInode(f.n, &ino, size))
}

// Sync implements vfs.File. MINIX has no per-file sync; on the LD backend
// a finer-grained implementation could use FlushList, but the paper's
// MINIX maps fsync to sync.
func (f *file) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return err
	}
	return f.fs.cache.syncAll()
}

// Close implements vfs.File.
func (f *file) Close() error {
	f.closed = true
	return nil
}
