package minixfs

import (
	"container/heap"
	"container/list"
	"sort"
)

// bufCache is the MINIX buffer cache: a fixed-capacity LRU of blocks with
// write-behind. Dirty blocks reach the disk on eviction or Sync, matching
// the paper's observation that "MINIX keeps recently used data and i-node
// blocks in a buffer cache, which is flushed when an application calls
// sync". The experiments use a static 6,144-KB cache (§4.2).
type bufCache struct {
	be       Backend
	capacity int // bytes

	entries map[Handle]*list.Element
	lru     *list.List // front = most recent
	size    int

	hits, misses int64

	// trackTouched records every handle dirtied while an atomic operation
	// is open, so the file system can write exactly those through inside
	// the recovery unit.
	trackTouched bool
	touched      map[Handle]bool

	// inFileOrder is the backend's write-back rule
	// (Backend.WriteBackInFileOrder): evicting a dirty data block first
	// writes its file's dirty blocks that come before it, lowest index
	// first. byFile indexes those blocks: per i-node, a min-heap by file
	// index of the dirty data blocks WriteAt has named (fileBlock).
	inFileOrder bool
	byFile      map[uint32]*fileDirty
}

type bufEntry struct {
	h     Handle
	data  []byte
	dirty bool
	// missed marks a block a batch fetched for a lookup that has not
	// happened yet: that lookup is a miss, not a hit.
	missed bool
	// While the block is in its file's dirty index, ino and idx place it in
	// its file and at is its position in byFile[ino]; at is -1 otherwise.
	// 32 bits each keep the entry in the allocator's 48-byte class.
	ino uint32
	idx int32
	at  int32
}

func newBufCache(be Backend, capacity int) *bufCache {
	return &bufCache{
		be:          be,
		capacity:    capacity,
		entries:     make(map[Handle]*list.Element),
		lru:         list.New(),
		inFileOrder: be.WriteBackInFileOrder(),
	}
}

// get returns the cache entry for h with at least size bytes, reading from
// the backend on a miss. Cached entries are grown (and backfilled) if a
// larger view is requested.
func (c *bufCache) get(h Handle, size int) (*bufEntry, error) {
	if el, ok := c.entries[h]; ok {
		e := el.Value.(*bufEntry)
		if len(e.data) >= size {
			c.lru.MoveToFront(el)
			if e.missed {
				e.missed = false
				c.misses++
			} else {
				c.hits++
			}
			return e, nil
		}
		// Grow: refetch the larger extent, preserving the dirty prefix.
		grown := make([]byte, size)
		if err := c.be.ReadBlock(h, grown); err != nil {
			return nil, err
		}
		copy(grown, e.data)
		c.size += size - len(e.data)
		e.data = grown
		c.lru.MoveToFront(el)
		c.hits++
		return e, nil
	}
	c.misses++
	data := make([]byte, size)
	if err := c.be.ReadBlock(h, data); err != nil {
		return nil, err
	}
	e := &bufEntry{h: h, data: data, at: -1}
	c.entries[h] = c.lru.PushFront(e)
	c.size += size
	if err := c.evict(); err != nil {
		return nil, err
	}
	return e, nil
}

// install puts fresh contents for h into the cache without reading the
// backend (used when the whole block is being overwritten).
func (c *bufCache) install(h Handle, data []byte, dirty bool) error {
	if el, ok := c.entries[h]; ok {
		e := el.Value.(*bufEntry)
		c.size += len(data) - len(e.data)
		e.data = data
		e.dirty = e.dirty || dirty
		if dirty && c.trackTouched {
			c.touched[h] = true
		}
		c.lru.MoveToFront(el)
		return c.evict()
	}
	e := &bufEntry{h: h, data: data, dirty: dirty, at: -1}
	c.entries[h] = c.lru.PushFront(e)
	c.size += len(data)
	if dirty && c.trackTouched {
		c.touched[h] = true
	}
	return c.evict()
}

// fill puts what a batch just read from the backend into the cache, clean.
// A copy already cached may be dirty and always wins. demanded says the
// caller is about to look the block up (see bufEntry.missed).
func (c *bufCache) fill(h Handle, data []byte, demanded bool) error {
	if c.contains(h) {
		return nil
	}
	c.entries[h] = c.lru.PushFront(&bufEntry{h: h, data: data, missed: demanded, at: -1})
	c.size += len(data)
	return c.evict()
}

// markDirty flags a cached entry as modified.
func (c *bufCache) markDirty(h Handle) {
	if el, ok := c.entries[h]; ok {
		el.Value.(*bufEntry).dirty = true
		if c.trackTouched {
			c.touched[h] = true
		}
	}
}

// fileBlock names the cached block h as block idx of i-node ino. WriteAt
// calls it on each data block it dirties, so that writing back in file
// order finds the block in its file's index.
func (c *bufCache) fileBlock(h Handle, ino uint32, idx int) {
	el, ok := c.entries[h]
	if !c.inFileOrder || !ok {
		return
	}
	e := el.Value.(*bufEntry)
	if !e.dirty || e.at >= 0 {
		return
	}
	e.ino, e.idx = ino, int32(idx)
	if c.byFile == nil {
		c.byFile = make(map[uint32]*fileDirty)
	}
	fd := c.byFile[ino]
	if fd == nil {
		fd = new(fileDirty)
		c.byFile[ino] = fd
	}
	heap.Push(fd, e)
}

// unindex takes e out of its file's dirty index.
func (c *bufCache) unindex(e *bufEntry) {
	fd := c.byFile[e.ino]
	heap.Remove(fd, int(e.at))
	if fd.Len() == 0 {
		delete(c.byFile, e.ino)
	}
	if len(c.byFile) == 0 {
		c.byFile = nil // a map keeps its peak size; a clean cache holds none
	}
}

// writeOut writes e to the backend and marks it clean.
func (c *bufCache) writeOut(e *bufEntry) error {
	if err := c.be.WriteBlock(e.h, e.data); err != nil {
		return err
	}
	e.dirty = false
	if e.at >= 0 {
		c.unindex(e)
	}
	return nil
}

// writeBack writes the dirty victim e. In file order its file's dirty
// blocks with a lower index go first, lowest first, so a file rewritten
// at random reaches the backend in ascending runs and a file written in
// order in the order LRU would give. Inside an atomic unit only the victim
// is written: the unit must not take in blocks it did not touch.
func (c *bufCache) writeBack(e *bufEntry) error {
	if e.at >= 0 && !c.trackTouched {
		fd := c.byFile[e.ino]
		for (*fd)[0] != e {
			if err := c.writeOut((*fd)[0]); err != nil {
				return err
			}
		}
	}
	return c.writeOut(e)
}

// beginTrack starts recording dirtied handles.
func (c *bufCache) beginTrack() {
	c.trackTouched = true
	c.touched = make(map[Handle]bool)
}

// endTrackFlush stops recording and writes the touched dirty blocks
// through to the backend (without flushing the backend itself: atomic
// recovery units provide atomicity; durability still comes from Sync).
func (c *bufCache) endTrackFlush() error {
	c.trackTouched = false
	for h := range c.touched {
		el, ok := c.entries[h]
		if !ok {
			continue // evicted: already written through
		}
		e := el.Value.(*bufEntry)
		if !e.dirty {
			continue
		}
		if err := c.writeOut(e); err != nil {
			return err
		}
	}
	c.touched = nil
	return nil
}

// contains reports whether h is cached.
func (c *bufCache) contains(h Handle) bool {
	_, ok := c.entries[h]
	return ok
}

// drop removes h from the cache, discarding its contents. Callers must
// ensure it is clean or obsolete (e.g. the block was freed).
func (c *bufCache) drop(h Handle) {
	if el, ok := c.entries[h]; ok {
		e := el.Value.(*bufEntry)
		if e.at >= 0 {
			c.unindex(e)
		}
		c.size -= len(e.data)
		c.lru.Remove(el)
		delete(c.entries, h)
	}
}

// evict writes back and discards least-recently-used entries until the
// cache fits its capacity.
func (c *bufCache) evict() error {
	for c.size > c.capacity && c.lru.Len() > 1 {
		el := c.lru.Back()
		e := el.Value.(*bufEntry)
		if e.dirty {
			if err := c.writeBack(e); err != nil {
				return err
			}
		}
		c.size -= len(e.data)
		c.lru.Remove(el)
		delete(c.entries, e.h)
	}
	return nil
}

// syncAll writes every dirty block back, in ascending handle order so that
// the bitmap backend sees mostly-monotonic arm movement, then flushes the
// backend.
func (c *bufCache) syncAll() error {
	var dirty []*bufEntry
	for _, el := range c.entries {
		e := el.Value.(*bufEntry)
		if e.dirty {
			dirty = append(dirty, e)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].h < dirty[j].h })
	for _, e := range dirty {
		if err := c.writeOut(e); err != nil {
			return err
		}
	}
	return c.be.Flush()
}

// dropAll empties the cache after syncing, for the between-phase cache
// flush of the paper's experiments.
func (c *bufCache) dropAll() error {
	if err := c.syncAll(); err != nil {
		return err
	}
	c.entries = make(map[Handle]*list.Element)
	c.lru = list.New()
	c.size = 0
	return nil
}

// fileDirty is one file's dirty data blocks, a min-heap by file index
// (container/heap).
type fileDirty []*bufEntry

func (f fileDirty) Len() int           { return len(f) }
func (f fileDirty) Less(i, j int) bool { return f[i].idx < f[j].idx }
func (f fileDirty) Swap(i, j int) {
	f[i], f[j] = f[j], f[i]
	f[i].at, f[j].at = int32(i), int32(j)
}
func (f *fileDirty) Push(x any) {
	e := x.(*bufEntry)
	e.at = int32(len(*f))
	*f = append(*f, e)
}
func (f *fileDirty) Pop() any {
	old := *f
	e := old[len(old)-1]
	old[len(old)-1] = nil
	e.at = -1
	*f = old[:len(old)-1]
	return e
}
