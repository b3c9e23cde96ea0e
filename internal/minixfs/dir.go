package minixfs

import (
	"bytes"

	"repro/internal/vfs"
)

// Directories are files of fixed 32-byte entries: a 4-byte i-node number
// (0 = free slot) followed by a NUL-padded name of up to 27 bytes, scanned
// linearly as in MINIX. An in-memory name cache (dcache) accelerates
// repeated lookups; it carries no persistent state and is rebuilt on
// demand.

// dirBlock returns block b of directory n, which has nblocks; a hole has
// NilHandle and no entry. A directory scan is an in-order read of the
// directory file, so where LD keeps the directory on a list of its own its
// miss is served as ReadAt's is: one fetch, with the rest of the directory
// as the demand. On the bitmap backend (no lists) MINIX searches a directory
// one block at a time — its read-ahead serves file reads — and those are the
// paper's baseline rows.
func (fs *FS) dirBlock(n uint32, dir *inode, b, nblocks int) (Handle, *bufEntry, error) {
	h, err := fs.bmap(n, dir, b, false)
	if err != nil || h == NilHandle {
		return NilHandle, nil, err
	}
	if dir.List != 0 && !fs.cache.contains(h) {
		fs.fetch(n, dir, b, nblocks-1, true)
	}
	e, err := fs.cache.get(h, fs.sb.BlockSize)
	return h, e, err
}

// loadDcache fills the name cache for directory n if absent.
func (fs *FS) loadDcache(n uint32, dir *inode) (map[string]uint32, error) {
	if m, ok := fs.dcache[n]; ok {
		return m, nil
	}
	m := make(map[string]uint32)
	bs := fs.sb.BlockSize
	nblocks := int((int64(dir.Size) + int64(bs) - 1) / int64(bs))
	buf := make([]byte, bs)
	for b := 0; b < nblocks; b++ {
		_, e, err := fs.dirBlock(n, dir, b, nblocks)
		if err != nil {
			return nil, err
		}
		if e == nil {
			continue
		}
		copy(buf, e.data)
		limit := bs
		if rem := int(int64(dir.Size) - int64(b)*int64(bs)); rem < limit {
			limit = rem
		}
		for off := 0; off+direntSize <= limit; off += direntSize {
			ino := le32(buf[off:])
			if ino == 0 {
				continue
			}
			name := string(bytes.TrimRight(buf[off+4:off+direntSize], "\x00"))
			m[name] = ino
		}
	}
	fs.dcache[n] = m
	return m, nil
}

// dirLookup finds name in directory n.
func (fs *FS) dirLookup(n uint32, dir *inode, name string) (uint32, error) {
	m, err := fs.loadDcache(n, dir)
	if err != nil {
		return 0, err
	}
	ino, ok := m[name]
	if !ok {
		return 0, vfs.ErrNotExist
	}
	return ino, nil
}

// dirAdd inserts an entry, reusing a free slot or extending the directory.
func (fs *FS) dirAdd(n uint32, dir *inode, name string, target uint32) error {
	if len(name) > maxNameLen {
		return vfs.ErrNameTooLong
	}
	m, err := fs.loadDcache(n, dir)
	if err != nil {
		return err
	}
	bs := fs.sb.BlockSize
	nblocks := int((int64(dir.Size) + int64(bs) - 1) / int64(bs))
	// Scan for a free slot.
	for b := 0; b < nblocks; b++ {
		h, e, err := fs.dirBlock(n, dir, b, nblocks)
		if err != nil {
			return err
		}
		if e == nil {
			continue
		}
		limit := bs
		if rem := int(int64(dir.Size) - int64(b)*int64(bs)); rem < limit {
			limit = rem
		}
		for off := 0; off+direntSize <= limit; off += direntSize {
			if le32(e.data[off:]) == 0 {
				writeDirent(e.data[off:], target, name)
				fs.cache.markDirty(h)
				m[name] = target
				dir.MTime = fs.be.Now()
				return fs.putInode(n, dir)
			}
		}
	}
	// Extend the directory by one entry.
	idx := int(int64(dir.Size) / int64(bs))
	off := int(int64(dir.Size) % int64(bs))
	h, err := fs.bmap(n, dir, idx, true)
	if err != nil {
		return err
	}
	var e *bufEntry
	if off == 0 {
		// Fresh block: install without reading.
		if err := fs.cache.install(h, make([]byte, bs), true); err != nil {
			return err
		}
		e, err = fs.cache.get(h, bs)
	} else {
		e, err = fs.cache.get(h, bs)
	}
	if err != nil {
		return err
	}
	writeDirent(e.data[off:], target, name)
	fs.cache.markDirty(h)
	m[name] = target
	dir.Size += direntSize
	dir.MTime = fs.be.Now()
	return fs.putInode(n, dir)
}

func writeDirent(p []byte, ino uint32, name string) {
	put32(p[0:], ino)
	nb := p[4:direntSize]
	for i := range nb {
		nb[i] = 0
	}
	copy(nb, name)
}

// dirRemove deletes an entry by name.
func (fs *FS) dirRemove(n uint32, dir *inode, name string) error {
	m, err := fs.loadDcache(n, dir)
	if err != nil {
		return err
	}
	if _, ok := m[name]; !ok {
		return vfs.ErrNotExist
	}
	bs := fs.sb.BlockSize
	nblocks := int((int64(dir.Size) + int64(bs) - 1) / int64(bs))
	for b := 0; b < nblocks; b++ {
		h, e, err := fs.dirBlock(n, dir, b, nblocks)
		if err != nil {
			return err
		}
		if e == nil {
			continue
		}
		limit := bs
		if rem := int(int64(dir.Size) - int64(b)*int64(bs)); rem < limit {
			limit = rem
		}
		for off := 0; off+direntSize <= limit; off += direntSize {
			if le32(e.data[off:]) == 0 {
				continue
			}
			got := string(bytes.TrimRight(e.data[off+4:off+direntSize], "\x00"))
			if got == name {
				put32(e.data[off:], 0)
				fs.cache.markDirty(h)
				delete(m, name)
				dir.MTime = fs.be.Now()
				return fs.putInode(n, dir)
			}
		}
	}
	// The dcache said it existed but the scan missed it: inconsistent.
	delete(fs.dcache, n)
	return vfs.ErrNotExist
}

// dirEmpty reports whether directory n has no entries.
func (fs *FS) dirEmpty(n uint32, dir *inode) (bool, error) {
	m, err := fs.loadDcache(n, dir)
	if err != nil {
		return false, err
	}
	return len(m) == 0, nil
}

// dirList returns the directory's entries with their metadata.
func (fs *FS) dirList(n uint32, dir *inode) ([]vfs.FileInfo, error) {
	m, err := fs.loadDcache(n, dir)
	if err != nil {
		return nil, err
	}
	out := make([]vfs.FileInfo, 0, len(m))
	for name, ino := range m {
		child, err := fs.getInode(ino)
		if err != nil {
			return nil, err
		}
		out = append(out, vfs.FileInfo{
			Name:  name,
			Size:  int64(child.Size),
			IsDir: child.Mode == modeDir,
			Inode: ino,
			Links: int(child.Links),
			MTime: child.MTime,
		})
	}
	return out, nil
}
