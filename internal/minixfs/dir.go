package minixfs

import (
	"bytes"
	"cmp"
	"slices"

	"repro/internal/vfs"
)

// Directories are files of fixed 32-byte entries: a 4-byte i-node number
// (0 = free slot) followed by a NUL-padded name of up to 27 bytes, scanned
// linearly as in MINIX. An in-memory name cache (dcache) accelerates
// repeated lookups and records each entry's slot; it carries no persistent
// state and is rebuilt on demand.

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
		fs.fetch(n, dir, b, nblocks-1, b+1)
	}
	e, err := fs.cache.get(h, fs.sb.BlockSize)
	return h, e, err
}

// dirEntry is what the dcache keeps of one entry: the i-node it names and
// its slot, the entry's index among the directory's 32-byte entries.
type dirEntry struct {
	ino, slot uint32
}

// dirCache is the name cache of one directory: every entry by name, and a
// low-free mark below which no slot is free, so that dirAdd decodes entries
// only from the mark on and dirRemove only the one it removes.
type dirCache struct {
	names   map[string]dirEntry
	lowFree uint32
}

// dirSlots returns the slots of directory block b that lie below the
// directory's end: entries do not straddle blocks, so block b holds slots
// b*per up to b*per+n.
func (fs *FS) dirSlots(dir *inode, b int) (per, n int) {
	bs := fs.sb.BlockSize
	per = bs / direntSize
	limit := bs
	if rem := int(int64(dir.Size) - int64(b)*int64(bs)); rem < limit {
		limit = rem
	}
	return per, limit / direntSize
}

// loadDcache fills the name cache for directory n if absent.
func (fs *FS) loadDcache(n uint32, dir *inode) (*dirCache, error) {
	if dc, ok := fs.dcache[n]; ok {
		return dc, nil
	}
	bs := fs.sb.BlockSize
	nblocks := int((int64(dir.Size) + int64(bs) - 1) / int64(bs))
	dc := &dirCache{names: make(map[string]dirEntry), lowFree: uint32(dir.Size / direntSize)}
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
		per, slots := fs.dirSlots(dir, b)
		for i := 0; i < slots; i++ {
			p := buf[i*direntSize:]
			slot := uint32(b*per + i)
			ino := le32(p)
			if ino == 0 {
				dc.lowFree = min(dc.lowFree, slot)
				continue
			}
			name := string(bytes.TrimRight(p[4:direntSize], "\x00"))
			dc.names[name] = dirEntry{ino: ino, slot: slot}
		}
	}
	fs.dcache[n] = dc
	return dc, nil
}

// dirLookup finds name in directory n.
func (fs *FS) dirLookup(n uint32, dir *inode, name string) (uint32, error) {
	dc, err := fs.loadDcache(n, dir)
	if err != nil {
		return 0, err
	}
	ent, ok := dc.names[name]
	if !ok {
		return 0, vfs.ErrNotExist
	}
	return ent.ino, nil
}

// dirAdd inserts an entry into the lowest free slot, or extends the
// directory when none is free. It visits the directory's blocks in order up
// to the one it writes, as MINIX's linear search does, so the buffer cache
// sees the same fetches and the same recency order; only slots at or above
// the low-free mark are decoded.
func (fs *FS) dirAdd(n uint32, dir *inode, name string, target uint32) error {
	if len(name) > maxNameLen {
		return vfs.ErrNameTooLong
	}
	dc, err := fs.loadDcache(n, dir)
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
		per, slots := fs.dirSlots(dir, b)
		for i := max(int(dc.lowFree)-b*per, 0); i < slots; i++ {
			if le32(e.data[i*direntSize:]) == 0 {
				writeDirent(e.data[i*direntSize:], target, name)
				fs.cache.markDirty(h)
				dc.add(name, target, uint32(b*per+i))
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
	dc.add(name, target, uint32(idx*(bs/direntSize)+off/direntSize))
	dir.Size += direntSize
	dir.MTime = fs.be.Now()
	return fs.putInode(n, dir)
}

// add records name in slot, the lowest free one: no slot below the next is
// free.
func (dc *dirCache) add(name string, ino, slot uint32) {
	dc.names[name] = dirEntry{ino: ino, slot: slot}
	dc.lowFree = slot + 1
}

func writeDirent(p []byte, ino uint32, name string) {
	put32(p[0:], ino)
	nb := p[4:direntSize]
	for i := range nb {
		nb[i] = 0
	}
	copy(nb, name)
}

// dirRemove deletes an entry by name: the dcache gives its slot, and the
// blocks up to the slot's are visited in order, as MINIX's search for the
// name does.
func (fs *FS) dirRemove(n uint32, dir *inode, name string) error {
	dc, err := fs.loadDcache(n, dir)
	if err != nil {
		return err
	}
	ent, ok := dc.names[name]
	if !ok {
		return vfs.ErrNotExist
	}
	bs := fs.sb.BlockSize
	nblocks := int((int64(dir.Size) + int64(bs) - 1) / int64(bs))
	per := bs / direntSize
	target := int(ent.slot) / per
	for b := 0; b <= target && b < nblocks; b++ {
		h, e, err := fs.dirBlock(n, dir, b, nblocks)
		if err != nil {
			return err
		}
		if b < target || e == nil {
			continue
		}
		_, slots := fs.dirSlots(dir, b)
		i := int(ent.slot) % per
		p := e.data[i*direntSize:]
		if i < slots && le32(p) == ent.ino && string(bytes.TrimRight(p[4:direntSize], "\x00")) == name {
			put32(p, 0)
			fs.cache.markDirty(h)
			delete(dc.names, name)
			dc.lowFree = min(dc.lowFree, ent.slot)
			dir.MTime = fs.be.Now()
			return fs.putInode(n, dir)
		}
	}
	// The dcache places the entry where the directory has none: inconsistent.
	delete(fs.dcache, n)
	return vfs.ErrNotExist
}

// dirEmpty reports whether directory n has no entries.
func (fs *FS) dirEmpty(n uint32, dir *inode) (bool, error) {
	dc, err := fs.loadDcache(n, dir)
	if err != nil {
		return false, err
	}
	return len(dc.names) == 0, nil
}

// dirNamed is one entry of a directory listing.
type dirNamed struct {
	name string
	dirEntry
}

// inSlotOrder returns the directory's entries in slot order, the order
// MINIX reads them from the directory file.
func (dc *dirCache) inSlotOrder() []dirNamed {
	out := make([]dirNamed, 0, len(dc.names))
	for name, ent := range dc.names {
		out = append(out, dirNamed{name, ent})
	}
	slices.SortFunc(out, func(a, b dirNamed) int { return cmp.Compare(a.slot, b.slot) })
	return out
}

// dirList returns the directory's entries with their metadata, in slot
// order.
func (fs *FS) dirList(n uint32, dir *inode) ([]vfs.FileInfo, error) {
	dc, err := fs.loadDcache(n, dir)
	if err != nil {
		return nil, err
	}
	ents := dc.inSlotOrder()
	out := make([]vfs.FileInfo, 0, len(ents))
	for _, ent := range ents {
		child, err := fs.getInode(ent.ino)
		if err != nil {
			return nil, err
		}
		out = append(out, vfs.FileInfo{
			Name:  ent.name,
			Size:  int64(child.Size),
			IsDir: child.Mode == modeDir,
			Inode: ent.ino,
			Links: int(child.Links),
			MTime: child.MTime,
		})
	}
	return out, nil
}
