package minixfs

import (
	"fmt"
	"sync"

	"repro/internal/vfs"
)

const fsMagic = 0x4D4E5846 // "MNXF"

// Config selects the file-system parameters at mkfs time.
type Config struct {
	// BlockSize is the data block size; the paper's measurements use 4 KB.
	BlockSize int
	// NInodes bounds the number of files. Zero picks 16 Ki.
	NInodes uint32
	// SmallInodes gives every i-node its own 64-byte block instead of
	// packing i-nodes into full blocks — the multiple-block-size
	// experiment of §4.1/§4.2 (sensible only on the LD backend).
	SmallInodes bool
	// CacheBytes sizes the buffer cache; the paper uses a static 6,144-KB
	// cache. Zero picks that value.
	CacheBytes int
	// AtomicOps wraps every namespace operation (create, unlink, mkdir,
	// rmdir, rename, truncate) in an LD atomic recovery unit and writes
	// the touched metadata through inside it — the paper's §2.1 use of
	// ARUs ("treat the creation of a file and the update of its directory
	// as a single operation. This eliminates the need for consistency
	// checks such as those performed by fsck"). Requires an LD backend;
	// the bitmap backend ignores it.
	AtomicOps bool
	// OffsetFiles addresses file blocks by their offset in the file's LD
	// list instead of through zone pointers — the paper's §5.4 offset
	// addressing, which "eliminates the need for indirect blocks".
	// Requires an LD backend with per-file lists.
	OffsetFiles bool
}

func (c *Config) fill() {
	if c.BlockSize == 0 {
		c.BlockSize = 4096
	}
	if c.NInodes == 0 {
		c.NInodes = 16 * 1024
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 6144 * 1024
	}
}

// superblock is the file system's own metadata block.
type superblock struct {
	BlockSize   int
	NInodes     uint32
	SmallInodes bool
	AtomicOps   bool
	OffsetFiles bool
	SuperBlk    Handle
	IbmBase     Handle
	IbmBlocks   uint32
	InodeBase   Handle
}

func (sb *superblock) encode(p []byte) {
	put32(p[0:], fsMagic)
	put32(p[4:], uint32(sb.BlockSize))
	put32(p[8:], sb.NInodes)
	if sb.SmallInodes {
		p[12] = 1
	} else {
		p[12] = 0
	}
	if sb.AtomicOps {
		p[13] = 1
	} else {
		p[13] = 0
	}
	if sb.OffsetFiles {
		p[14] = 1
	} else {
		p[14] = 0
	}
	put32(p[16:], sb.IbmBase)
	put32(p[20:], sb.IbmBlocks)
	put32(p[24:], sb.InodeBase)
}

func (sb *superblock) decode(p []byte) error {
	if le32(p[0:]) != fsMagic {
		return fmt.Errorf("minixfs: bad superblock magic")
	}
	sb.BlockSize = int(le32(p[4:]))
	sb.NInodes = le32(p[8:])
	sb.SmallInodes = p[12] == 1
	sb.AtomicOps = p[13] == 1
	sb.OffsetFiles = p[14] == 1
	sb.IbmBase = le32(p[16:])
	sb.IbmBlocks = le32(p[20:])
	sb.InodeBase = le32(p[24:])
	return nil
}

// Stats counts file-system level events.
type Stats struct {
	Creates, Unlinks, Opens int64
	BytesRead, BytesWritten int64
	CacheHits, CacheMisses  int64
	// ReadaheadBlocks counts blocks fetched past what a read demanded,
	// ReadaheadBatches the backend batches that carried any. A demanded
	// block is a cache miss however it was fetched.
	ReadaheadBlocks, ReadaheadBatches int64
}

// FS is the MINIX file system. It implements vfs.FileSystem.
type FS struct {
	mu    sync.Mutex
	be    Backend
	sb    superblock
	cache *bufCache
	// dcache accelerates name lookups: dir inode -> its names, each with
	// its i-node and slot (dir.go).
	dcache    map[uint32]*dirCache
	atomicOps bool
	stats     Stats
	closed    bool
}

var _ vfs.FileSystem = (*FS)(nil)

// Mkfs formats a file system onto a freshly formatted backend and returns
// it mounted.
func Mkfs(be Backend, cfg Config) (*FS, error) {
	cfg.fill()
	if cfg.BlockSize != be.BlockSize() {
		return nil, fmt.Errorf("minixfs: config block size %d != backend %d", cfg.BlockSize, be.BlockSize())
	}
	bs := cfg.BlockSize
	ibmBlocks := (int(cfg.NInodes) + 8*bs - 1) / (8 * bs)
	var inodeBlocks int
	if cfg.SmallInodes {
		inodeBlocks = int(cfg.NInodes)
	} else {
		perBlock := bs / inodeSize
		inodeBlocks = (int(cfg.NInodes) + perBlock - 1) / perBlock
	}
	first, err := be.AllocStatic(1 + ibmBlocks + inodeBlocks)
	if err != nil {
		return nil, err
	}
	fs := &FS{
		be:        be,
		atomicOps: cfg.AtomicOps,
		sb: superblock{
			BlockSize:   bs,
			NInodes:     cfg.NInodes,
			SmallInodes: cfg.SmallInodes,
			AtomicOps:   cfg.AtomicOps,
			OffsetFiles: cfg.OffsetFiles,
			SuperBlk:    first,
			IbmBase:     first + 1,
			IbmBlocks:   uint32(ibmBlocks),
			InodeBase:   first + 1 + uint32(ibmBlocks),
		},
		cache:  newBufCache(be, cfg.CacheBytes),
		dcache: make(map[uint32]*dirCache),
	}
	// Write the superblock and zero the i-node bitmap.
	buf := make([]byte, bs)
	fs.sb.encode(buf)
	if err := be.WriteBlock(first, buf); err != nil {
		return nil, err
	}
	zero := make([]byte, bs)
	for i := 0; i < ibmBlocks; i++ {
		if err := be.WriteBlock(fs.sb.IbmBase+uint32(i), zero); err != nil {
			return nil, err
		}
	}
	// Root directory.
	n, err := fs.allocIno()
	if err != nil {
		return nil, err
	}
	if n != rootIno {
		return nil, fmt.Errorf("minixfs: root allocated inode %d", n)
	}
	rootList, err := be.NewFileList(0)
	if err != nil {
		return nil, err
	}
	root := inode{Mode: modeDir, Links: 1, MTime: be.Now(), List: rootList}
	if err := fs.putInode(rootIno, &root); err != nil {
		return nil, err
	}
	if err := fs.cache.syncAll(); err != nil {
		return nil, err
	}
	return fs, nil
}

// Open mounts an existing file system. cacheBytes sizes the buffer cache
// (zero picks the paper's 6,144 KB).
func Open(be Backend, cacheBytes int) (*FS, error) {
	if cacheBytes == 0 {
		cacheBytes = 6144 * 1024
	}
	fs := &FS{
		be:     be,
		cache:  newBufCache(be, cacheBytes),
		dcache: make(map[uint32]*dirCache),
	}
	buf := make([]byte, be.BlockSize())
	if err := be.ReadBlock(be.FirstStatic(), buf); err != nil {
		return nil, err
	}
	if err := fs.sb.decode(buf); err != nil {
		return nil, err
	}
	fs.sb.SuperBlk = be.FirstStatic()
	fs.atomicOps = fs.sb.AtomicOps
	if fs.sb.BlockSize != be.BlockSize() {
		return nil, fmt.Errorf("minixfs: superblock block size %d != backend %d", fs.sb.BlockSize, be.BlockSize())
	}
	return fs, nil
}

// Stats returns a snapshot of the statistics counters.
func (fs *FS) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	s := fs.stats
	s.CacheHits = fs.cache.hits
	s.CacheMisses = fs.cache.misses
	return s
}

func (fs *FS) checkOpen() error {
	if fs.closed {
		return vfs.ErrClosed
	}
	return nil
}

// atomicBegin opens a recovery unit for a namespace operation and starts
// tracking the metadata blocks it dirties. Callers hold fs.mu.
func (fs *FS) atomicBegin() error {
	if !fs.atomicOps {
		return nil
	}
	if err := fs.be.BeginARU(); err != nil {
		return err
	}
	fs.cache.beginTrack()
	return nil
}

// atomicEnd writes the touched metadata through inside the unit and closes
// it, preserving the operation's own error.
func (fs *FS) atomicEnd(opErr error) error {
	if !fs.atomicOps {
		return opErr
	}
	flushErr := fs.cache.endTrackFlush()
	aruErr := fs.be.EndARU()
	if opErr != nil {
		return opErr
	}
	if flushErr != nil {
		return flushErr
	}
	return aruErr
}

// resolve walks an absolute path to an i-node number.
func (fs *FS) resolve(path string) (uint32, error) {
	parts, err := vfs.SplitPath(path)
	if err != nil {
		return 0, err
	}
	cur := uint32(rootIno)
	for _, name := range parts {
		ino, err := fs.getInode(cur)
		if err != nil {
			return 0, err
		}
		if ino.Mode != modeDir {
			return 0, vfs.ErrNotDir
		}
		next, err := fs.dirLookup(cur, &ino, name)
		if err != nil {
			return 0, err
		}
		cur = next
	}
	return cur, nil
}

// resolveParent walks to the parent directory of path and returns its
// i-node number plus the final component.
func (fs *FS) resolveParent(path string) (uint32, string, error) {
	parts, err := vfs.SplitPath(path)
	if err != nil {
		return 0, "", err
	}
	if len(parts) == 0 {
		return 0, "", vfs.ErrInvalid
	}
	name := parts[len(parts)-1]
	if len(name) > maxNameLen {
		return 0, "", vfs.ErrNameTooLong
	}
	cur := uint32(rootIno)
	for _, comp := range parts[:len(parts)-1] {
		ino, err := fs.getInode(cur)
		if err != nil {
			return 0, "", err
		}
		if ino.Mode != modeDir {
			return 0, "", vfs.ErrNotDir
		}
		next, err := fs.dirLookup(cur, &ino, comp)
		if err != nil {
			return 0, "", err
		}
		cur = next
	}
	return cur, name, nil
}

// Create implements vfs.FileSystem. With AtomicOps the creation of the
// file and the update of its directory are one atomic recovery unit — the
// paper's motivating ARU example (§2.1).
func (fs *FS) Create(path string) (vfs.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkOpen(); err != nil {
		return nil, err
	}
	dirIno, name, err := fs.resolveParent(path)
	if err != nil {
		return nil, err
	}
	if err := fs.atomicBegin(); err != nil {
		return nil, err
	}
	f, err := fs.createLocked(dirIno, name)
	if err2 := fs.atomicEnd(err); err2 != nil {
		return nil, err2
	}
	return f, nil
}

func (fs *FS) createLocked(dirIno uint32, name string) (vfs.File, error) {
	dir, err := fs.getInode(dirIno)
	if err != nil {
		return nil, err
	}
	if dir.Mode != modeDir {
		return nil, vfs.ErrNotDir
	}
	if existing, err := fs.dirLookup(dirIno, &dir, name); err == nil {
		// Truncate an existing regular file.
		ino, err := fs.getInode(existing)
		if err != nil {
			return nil, err
		}
		if ino.Mode == modeDir {
			return nil, vfs.ErrIsDir
		}
		if err := fs.truncateInode(existing, &ino, 0); err != nil {
			return nil, err
		}
		return &file{fs: fs, n: existing}, nil
	}
	n, err := fs.allocIno()
	if err != nil {
		return nil, err
	}
	// With per-file lists, place the new file's list near the directory's
	// (inter-list clustering); the directory's own list works as the
	// predecessor hint.
	list, err := fs.be.NewFileList(dir.List)
	if err != nil {
		fs.freeIno(n)
		return nil, err
	}
	ino := inode{Mode: modeFile, Links: 1, MTime: fs.be.Now(), List: list}
	if err := fs.putInode(n, &ino); err != nil {
		return nil, err
	}
	if err := fs.dirAdd(dirIno, &dir, name, n); err != nil {
		return nil, err
	}
	fs.stats.Creates++
	return &file{fs: fs, n: n}, nil
}

// Open implements vfs.FileSystem.
func (fs *FS) Open(path string) (vfs.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkOpen(); err != nil {
		return nil, err
	}
	n, err := fs.resolve(path)
	if err != nil {
		return nil, err
	}
	ino, err := fs.getInode(n)
	if err != nil {
		return nil, err
	}
	if ino.Mode == modeDir {
		return nil, vfs.ErrIsDir
	}
	fs.stats.Opens++
	return &file{fs: fs, n: n}, nil
}

// Unlink implements vfs.FileSystem.
func (fs *FS) Unlink(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkOpen(); err != nil {
		return err
	}
	dirIno, name, err := fs.resolveParent(path)
	if err != nil {
		return err
	}
	dir, err := fs.getInode(dirIno)
	if err != nil {
		return err
	}
	n, err := fs.dirLookup(dirIno, &dir, name)
	if err != nil {
		return err
	}
	ino, err := fs.getInode(n)
	if err != nil {
		return err
	}
	if ino.Mode == modeDir {
		return vfs.ErrIsDir
	}
	if err := fs.atomicBegin(); err != nil {
		return err
	}
	return fs.atomicEnd(fs.unlinkLocked(dirIno, &dir, name, n, &ino))
}

func (fs *FS) unlinkLocked(dirIno uint32, dir *inode, name string, n uint32, ino *inode) error {
	if err := fs.dirRemove(dirIno, dir, name); err != nil {
		return err
	}
	ino.Links--
	if ino.Links == 0 {
		if err := fs.freeAllBlocks(ino, true); err != nil {
			return err
		}
		ino.Mode = modeFree
		if err := fs.putInode(n, ino); err != nil {
			return err
		}
		if err := fs.freeIno(n); err != nil {
			return err
		}
	} else if err := fs.putInode(n, ino); err != nil {
		return err
	}
	fs.stats.Unlinks++
	return nil
}

// Mkdir implements vfs.FileSystem.
func (fs *FS) Mkdir(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkOpen(); err != nil {
		return err
	}
	dirIno, name, err := fs.resolveParent(path)
	if err != nil {
		return err
	}
	dir, err := fs.getInode(dirIno)
	if err != nil {
		return err
	}
	if dir.Mode != modeDir {
		return vfs.ErrNotDir
	}
	if _, err := fs.dirLookup(dirIno, &dir, name); err == nil {
		return vfs.ErrExist
	}
	if err := fs.atomicBegin(); err != nil {
		return err
	}
	return fs.atomicEnd(fs.mkdirLocked(dirIno, &dir, name))
}

func (fs *FS) mkdirLocked(dirIno uint32, dir *inode, name string) error {
	n, err := fs.allocIno()
	if err != nil {
		return err
	}
	list, err := fs.be.NewFileList(dir.List)
	if err != nil {
		fs.freeIno(n)
		return err
	}
	ino := inode{Mode: modeDir, Links: 1, MTime: fs.be.Now(), List: list}
	if err := fs.putInode(n, &ino); err != nil {
		return err
	}
	return fs.dirAdd(dirIno, dir, name, n)
}

// Rmdir implements vfs.FileSystem.
func (fs *FS) Rmdir(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkOpen(); err != nil {
		return err
	}
	dirIno, name, err := fs.resolveParent(path)
	if err != nil {
		return err
	}
	dir, err := fs.getInode(dirIno)
	if err != nil {
		return err
	}
	n, err := fs.dirLookup(dirIno, &dir, name)
	if err != nil {
		return err
	}
	ino, err := fs.getInode(n)
	if err != nil {
		return err
	}
	if ino.Mode != modeDir {
		return vfs.ErrNotDir
	}
	empty, err := fs.dirEmpty(n, &ino)
	if err != nil {
		return err
	}
	if !empty {
		return vfs.ErrNotEmpty
	}
	if err := fs.atomicBegin(); err != nil {
		return err
	}
	return fs.atomicEnd(fs.rmdirLocked(dirIno, &dir, name, n, &ino))
}

func (fs *FS) rmdirLocked(dirIno uint32, dir *inode, name string, n uint32, ino *inode) error {
	if err := fs.dirRemove(dirIno, dir, name); err != nil {
		return err
	}
	if err := fs.freeAllBlocks(ino, true); err != nil {
		return err
	}
	ino.Mode = modeFree
	if err := fs.putInode(n, ino); err != nil {
		return err
	}
	delete(fs.dcache, n)
	return fs.freeIno(n)
}

// ReadDir implements vfs.FileSystem.
func (fs *FS) ReadDir(path string) ([]vfs.FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkOpen(); err != nil {
		return nil, err
	}
	n, err := fs.resolve(path)
	if err != nil {
		return nil, err
	}
	ino, err := fs.getInode(n)
	if err != nil {
		return nil, err
	}
	if ino.Mode != modeDir {
		return nil, vfs.ErrNotDir
	}
	return fs.dirList(n, &ino)
}

// Rename implements vfs.FileSystem.
func (fs *FS) Rename(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkOpen(); err != nil {
		return err
	}
	oldDir, oldName, err := fs.resolveParent(oldPath)
	if err != nil {
		return err
	}
	newDir, newName, err := fs.resolveParent(newPath)
	if err != nil {
		return err
	}
	od, err := fs.getInode(oldDir)
	if err != nil {
		return err
	}
	n, err := fs.dirLookup(oldDir, &od, oldName)
	if err != nil {
		return err
	}
	nd, err := fs.getInode(newDir)
	if err != nil {
		return err
	}
	if existing, err := fs.dirLookup(newDir, &nd, newName); err == nil {
		if existing == n {
			return nil
		}
		return vfs.ErrExist
	}
	if err := fs.atomicBegin(); err != nil {
		return err
	}
	return fs.atomicEnd(fs.renameLocked(oldDir, oldName, newDir, &nd, newName, n))
}

func (fs *FS) renameLocked(oldDir uint32, oldName string, newDir uint32, nd *inode, newName string, n uint32) error {
	if err := fs.dirAdd(newDir, nd, newName, n); err != nil {
		return err
	}
	od, err := fs.getInode(oldDir) // re-read: dirAdd may have grown it
	if err != nil {
		return err
	}
	return fs.dirRemove(oldDir, &od, oldName)
}

// Stat implements vfs.FileSystem.
func (fs *FS) Stat(path string) (vfs.FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkOpen(); err != nil {
		return vfs.FileInfo{}, err
	}
	n, err := fs.resolve(path)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	ino, err := fs.getInode(n)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	parts, _ := vfs.SplitPath(path)
	name := "/"
	if len(parts) > 0 {
		name = parts[len(parts)-1]
	}
	return vfs.FileInfo{
		Name:  name,
		Size:  int64(ino.Size),
		IsDir: ino.Mode == modeDir,
		Inode: n,
		Links: int(ino.Links),
		MTime: ino.MTime,
	}, nil
}

// Sync implements vfs.FileSystem: write back all dirty cached blocks and
// flush the backend (on LD, this is the segment Flush of §4.1).
func (fs *FS) Sync() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkOpen(); err != nil {
		return err
	}
	return fs.cache.syncAll()
}

// DropCaches implements vfs.FileSystem.
func (fs *FS) DropCaches() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkOpen(); err != nil {
		return err
	}
	fs.dcache = make(map[uint32]*dirCache)
	return fs.cache.dropAll()
}

// Close implements vfs.FileSystem.
func (fs *FS) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil
	}
	if err := fs.cache.syncAll(); err != nil {
		return err
	}
	fs.closed = true
	return nil
}
