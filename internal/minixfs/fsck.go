package minixfs

import (
	"fmt"
)

// Check is the file system consistency checker — the fsck whose necessity
// the paper's atomic recovery units remove (§2.1). It verifies:
//
//   - the directory tree is acyclic and every entry names an allocated
//     i-node of a sane mode;
//   - every allocated i-node is referenced by exactly Links directory
//     entries, and unreferenced i-nodes are not marked allocated;
//   - the i-node bitmap agrees with the i-node table;
//   - file sizes are representable and every mapped zone is readable;
//   - (bitmap backend) no zone is mapped by two files.
//
// It returns a description of every inconsistency found; an empty slice
// means the file system is consistent.
func (fs *FS) Check() ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkOpen(); err != nil {
		return nil, err
	}
	var problems []string
	bad := func(format string, args ...interface{}) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	// Pass 1: walk the tree counting references and visiting directories.
	refs := make(map[uint32]int)
	visitedDir := make(map[uint32]bool)
	zoneOwner := make(map[Handle]uint32)
	type dirent struct {
		ino  uint32
		path string
	}
	queue := []dirent{{rootIno, "/"}}
	refs[rootIno] = 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if visitedDir[cur.ino] {
			bad("directory %s (inode %d) reachable twice: cycle or double link", cur.path, cur.ino)
			continue
		}
		visitedDir[cur.ino] = true
		dir, err := fs.getInode(cur.ino)
		if err != nil {
			return nil, err
		}
		if dir.Mode != modeDir {
			bad("%s (inode %d) referenced as a directory but has mode %d", cur.path, cur.ino, dir.Mode)
			continue
		}
		if err := fs.checkZones(cur.ino, &dir, cur.path, zoneOwner, bad); err != nil {
			return nil, err
		}
		// Bypass the dcache: read the raw entries.
		delete(fs.dcache, cur.ino)
		dc, err := fs.loadDcache(cur.ino, &dir)
		if err != nil {
			return nil, err
		}
		for _, ent := range dc.inSlotOrder() {
			name, ino := ent.name, ent.ino
			if ino == 0 || ino > fs.sb.NInodes {
				bad("%s%s: entry names invalid inode %d", cur.path, name, ino)
				continue
			}
			child, err := fs.getInode(ino)
			if err != nil {
				return nil, err
			}
			switch child.Mode {
			case modeFree:
				bad("%s%s: entry names free inode %d", cur.path, name, ino)
			case modeDir:
				refs[ino]++
				queue = append(queue, dirent{ino, cur.path + name + "/"})
			case modeFile:
				refs[ino]++
				if err := fs.checkZones(ino, &child, cur.path+name, zoneOwner, bad); err != nil {
					return nil, err
				}
			default:
				bad("%s%s: inode %d has unknown mode %d", cur.path, name, ino, child.Mode)
			}
		}
	}

	// Pass 2: i-node table vs references vs bitmap.
	for n := uint32(1); n <= fs.sb.NInodes; n++ {
		ino, err := fs.getInode(n)
		if err != nil {
			return nil, err
		}
		inUse, err := fs.inoBitSet(n)
		if err != nil {
			return nil, err
		}
		allocated := ino.Mode != modeFree
		if allocated != inUse {
			bad("inode %d: mode %d but bitmap says in-use=%v", n, ino.Mode, inUse)
		}
		if allocated {
			if refs[n] == 0 {
				bad("inode %d (mode %d): allocated but unreachable (orphan)", n, ino.Mode)
			} else if int(ino.Links) != refs[n] {
				bad("inode %d: link count %d but %d references", n, ino.Links, refs[n])
			}
			if int64(ino.Size) > int64(fs.maxFileBlocks())*int64(fs.sb.BlockSize) {
				bad("inode %d: size %d not representable", n, ino.Size)
			}
		} else if refs[n] > 0 {
			// Already reported as an entry naming a free inode.
			_ = n
		}
	}
	return problems, nil
}

// checkZones verifies a file's mapped blocks are readable and (on backends
// with physical zones) not shared with another file.
func (fs *FS) checkZones(n uint32, ino *inode, path string, zoneOwner map[Handle]uint32, bad func(string, ...interface{})) error {
	bs := int64(fs.sb.BlockSize)
	nblocks := int((int64(ino.Size) + bs - 1) / bs)
	for i := 0; i < nblocks; i++ {
		h, err := fs.bmap(n, ino, i, false)
		if err != nil {
			return err
		}
		if h == NilHandle {
			continue // hole
		}
		if owner, dup := zoneOwner[h]; dup {
			bad("%s: zone %d (block %d) also mapped by inode %d", path, h, i, owner)
			continue
		}
		zoneOwner[h] = n
		// Readability: a stale handle (e.g. freed in LD) errors here.
		if _, err := fs.cache.get(h, 1); err != nil {
			bad("%s: zone %d (block %d) unreadable: %v", path, h, i, err)
		}
	}
	return nil
}

// inoBitSet reads i-node n's bit in the i-node bitmap.
func (fs *FS) inoBitSet(n uint32) (bool, error) {
	bs := fs.sb.BlockSize
	idx := n - 1
	b := idx / uint32(bs*8)
	e, err := fs.cache.get(fs.sb.IbmBase+b, bs)
	if err != nil {
		return false, err
	}
	return e.data[(idx/8)%uint32(bs)]&(1<<(idx%8)) != 0, nil
}

// CorruptInodeBitmapForTest clears i-node n's bitmap bit without touching
// anything else, planting an inconsistency for checker tests.
func (fs *FS) CorruptInodeBitmapForTest(n uint32) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.freeIno(n)
}
