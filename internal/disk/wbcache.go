package disk

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Volatile write-cache model. Real drives acknowledge WriteAt from a
// volatile on-board cache and destage to the platter lazily, in whatever
// order suits the arm; on power loss an arbitrary subset of the cached
// sectors has reached the media and the sector in flight may be torn
// mid-write. WBCache wraps a *Disk with exactly that behavior so the
// torture harness (internal/torture) can drive recovery through the
// adversarial states in-order whole-sector crash injection can never
// reach:
//
//   - WriteAt lands in the cache and returns at once; the bytes reach
//     the platter only on Sync, on a WriteAtNVRAM barrier, or (a
//     PRNG-chosen subset) at power loss.
//   - Sync drains the cache to the platter — the write-barrier surface
//     (Syncer) a caller needs before it may destroy the last durable
//     copy of anything.
//   - WriteAtNVRAM remains a write-through barrier: the cache is
//     drained first and the NVRAM bytes are applied atomically, so the
//     §5.3 battery-backed path keeps its ordering guarantee.
//   - At power loss a PRNG seeded from the rail decides per cached
//     sector whether it persisted (reordering: the decision is keyed by
//     sector number, not issue order) and whether the boundary sector
//     of the in-flight write tore, persisting only a byte prefix.
//
// Every cache belongs to a PowerRail — the shared power domain. Caches
// composing one logical store (mirror replicas, stripe legs) share a
// rail so a simulated power loss hits all of them in the same instant,
// each persisting an independently-chosen subset of its dirty sectors
// (the RAID write-hole, reproduced honestly).

// Syncer is the optional write-barrier surface of a Backend: Sync
// returns once every previously acknowledged write has reached stable
// storage. Backends with no volatile cache satisfy the contract
// trivially by doing nothing; composite backends (mdisk) forward it to
// every child that offers it.
type Syncer interface {
	Sync() error
}

// WBStats counts write-cache events since the cache was created.
type WBStats struct {
	CachedWrites    int64 // WriteAt calls absorbed by the cache
	CachedSectors   int64 // sectors accepted into the cache
	FlushedSectors  int64 // sectors destaged to the platter by Sync/barriers
	Syncs           int64 // explicit Sync drains (incl. NVRAM barriers)
	PowerLosses     int64 // power-loss events observed
	PersistedAtLoss int64 // dirty sectors the loss PRNG let reach the platter
	DroppedAtLoss   int64 // dirty sectors discarded by the loss
	TornAtLoss      int64 // boundary sectors persisted only partially
}

// PowerRail is the power domain shared by one or more WBCaches. It
// owns the crash-injection budget (sectors accepted across all attached
// caches until the simulated power loss) and the master seed every
// per-cache persistence decision derives from, so a (seed, budget) pair
// replays the identical platter state.
type PowerRail struct {
	mu     sync.Mutex
	caches []*WBCache

	armed    atomic.Bool
	budget   atomic.Int64 // sectors until loss, valid while armed
	accepted atomic.Int64 // total sectors accepted by attached caches
	lost     atomic.Bool
	seed     int64 // guarded by mu
}

// NewRail returns an unarmed power rail.
func NewRail() *PowerRail { return &PowerRail{} }

// Arm schedules a power loss after n more sectors have been accepted by
// the rail's caches (writes in flight when the budget runs out are cut,
// and their boundary sector may tear). seed drives every persistence
// decision of the eventual loss.
func (r *PowerRail) Arm(n int64, seed int64) {
	r.mu.Lock()
	r.seed = seed
	r.budget.Store(n)
	r.armed.Store(n >= 0)
	r.mu.Unlock()
}

// Disarm cancels a pending injection.
func (r *PowerRail) Disarm() { r.armed.Store(false) }

// Lost reports whether the rail's power is currently out.
func (r *PowerRail) Lost() bool { return r.lost.Load() }

// Accepted returns the total sectors accepted by all attached caches
// since the rail was created — the coordinate space of sector-granular
// crash points.
func (r *PowerRail) Accepted() int64 { return r.accepted.Load() }

// allow charges n sectors against the budget. It returns how many of
// them the caller may accept (possibly 0) and whether the power loss
// triggers immediately after accepting them.
func (r *PowerRail) allow(n int64) (allowed int64, trip bool) {
	if r.lost.Load() {
		return 0, false
	}
	r.accepted.Add(n)
	if !r.armed.Load() {
		return n, false
	}
	rem := r.budget.Add(-n)
	if rem >= 0 {
		return n, false
	}
	allowed = n + rem
	if allowed < 0 {
		allowed = 0 // another writer crossed the budget first
	}
	return allowed, true
}

// PowerLoss cuts the rail's power immediately: every attached cache
// discards or persists its dirty sectors per the seeded PRNG and all
// subsequent I/O fails with ErrCrashed until Restart. Safe to call more
// than once; later calls are no-ops.
func (r *PowerRail) PowerLoss(seed int64) {
	r.mu.Lock()
	r.seed = seed
	r.mu.Unlock()
	r.trip(nil, -1, nil)
}

// trip performs the loss. tripper (when non-nil) is the cache whose
// in-flight write crossed the budget; tearOff/tearData describe the
// boundary sector that may persist partially.
func (r *PowerRail) trip(tripper *WBCache, tearOff int64, tearData []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lost.Load() {
		return
	}
	r.lost.Store(true)
	r.armed.Store(false)
	for i, c := range r.caches {
		to, td := int64(-1), []byte(nil)
		if c == tripper {
			to, td = tearOff, tearData
		}
		c.powerLoss(mix64(r.seed, int64(i)), to, td)
	}
}

// Restart restores power: caches come back empty (they are volatile)
// and accept I/O again. Platter contents are whatever the loss left.
func (r *PowerRail) Restart() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lost.Store(false)
	r.armed.Store(false)
	for _, c := range r.caches {
		c.restart()
	}
}

// SyncAll drains every attached cache — the harness's "device fsync".
func (r *PowerRail) SyncAll() error {
	r.mu.Lock()
	caches := append([]*WBCache(nil), r.caches...)
	r.mu.Unlock()
	for _, c := range caches {
		if err := c.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// WBCache is a Backend that interposes a volatile write cache between
// its callers and a *Disk platter. See the package comment above.
type WBCache struct {
	d    *Disk
	rail *PowerRail

	mu    sync.Mutex
	dirty map[int64][]byte // sector number -> pending contents (one sector each)
	lost  bool

	stats WBStats
}

// NewWBCache wraps d in a volatile write cache attached to rail.
func NewWBCache(d *Disk, rail *PowerRail) *WBCache {
	c := &WBCache{d: d, rail: rail, dirty: make(map[int64][]byte)}
	rail.mu.Lock()
	rail.caches = append(rail.caches, c)
	rail.mu.Unlock()
	return c
}

// Disk returns the wrapped platter, for fault injection and inspection.
func (c *WBCache) Disk() *Disk { return c.d }

// Stats returns a copy of the cache counters.
func (c *WBCache) Stats() WBStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// DirtySectors reports how many sectors are cached but not yet on the
// platter.
func (c *WBCache) DirtySectors() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.dirty)
}

// ReadAt implements Backend: platter bytes overlaid with the cache, so
// callers always read their own acknowledged writes.
func (c *WBCache) ReadAt(p []byte, off int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lost {
		return ErrCrashed
	}
	if err := c.d.checkAccess(off, len(p)); err != nil {
		return err
	}
	if len(p) == 0 {
		return nil
	}
	if err := c.d.ReadAt(p, off); err != nil {
		return err
	}
	ss := int64(c.d.SectorSize())
	first := off / ss
	for i := int64(0); i < int64(len(p))/ss; i++ {
		if b, ok := c.dirty[first+i]; ok {
			copy(p[i*ss:(i+1)*ss], b)
		}
	}
	return nil
}

// WriteAt implements Backend: the sectors land in the cache and the
// call returns immediately. Durability comes only from Sync, a
// WriteAtNVRAM barrier, or the power-loss PRNG's mercy.
func (c *WBCache) WriteAt(p []byte, off int64) error {
	c.mu.Lock()
	if c.lost {
		c.mu.Unlock()
		return ErrCrashed
	}
	if err := c.d.checkAccess(off, len(p)); err != nil {
		c.mu.Unlock()
		return err
	}
	if len(p) == 0 {
		c.mu.Unlock()
		return nil
	}
	ss := int64(c.d.SectorSize())
	first := off / ss
	count := int64(len(p)) / ss
	allowed, trip := c.rail.allow(count)
	for i := int64(0); i < allowed; i++ {
		buf := c.dirty[first+i]
		if buf == nil {
			buf = make([]byte, ss)
			c.dirty[first+i] = buf
		}
		copy(buf, p[i*ss:(i+1)*ss])
	}
	c.stats.CachedWrites++
	c.stats.CachedSectors += allowed
	c.mu.Unlock()
	if trip {
		// The write in flight when the budget ran out: its boundary
		// sector may tear, persisting only a byte prefix.
		var tearOff int64 = -1
		var tearData []byte
		if allowed < count {
			sector := first + allowed
			if n := tearBytes(c.railSeed(), sector, int(ss)); n > 0 {
				tearOff = sector * ss
				tearData = append([]byte(nil), p[allowed*ss:allowed*ss+int64(n)]...)
			}
		}
		c.rail.trip(c, tearOff, tearData)
		return ErrCrashed
	}
	return nil
}

func (c *WBCache) railSeed() int64 {
	c.rail.mu.Lock()
	defer c.rail.mu.Unlock()
	return c.rail.seed
}

// WriteAtNVRAM implements Backend as a write-through barrier: all
// previously cached sectors are destaged first, then the NVRAM bytes
// are applied atomically. Power loss at the barrier is all-or-nothing.
func (c *WBCache) WriteAtNVRAM(p []byte, off int64) error {
	c.mu.Lock()
	if c.lost {
		c.mu.Unlock()
		return ErrCrashed
	}
	if err := c.d.checkAccess(off, len(p)); err != nil {
		c.mu.Unlock()
		return err
	}
	count := int64(len(p)) / int64(c.d.SectorSize())
	allowed, trip := c.rail.allow(count)
	if trip && allowed < count {
		// The budget ran out inside the barrier write: NVRAM is atomic,
		// so nothing of p is applied — but the barrier had not yet
		// drained the cache, so the loss sees it dirty.
		c.mu.Unlock()
		c.rail.trip(c, -1, nil)
		return ErrCrashed
	}
	if err := c.flushLocked(); err != nil {
		c.mu.Unlock()
		return err
	}
	err := c.d.WriteAtNVRAM(p, off)
	c.mu.Unlock()
	if trip {
		c.rail.trip(c, -1, nil)
		return ErrCrashed
	}
	return err
}

// Sync implements Syncer: every cached sector reaches the platter, in
// coalesced ascending runs (the destage order is the drive's business;
// after Sync returns it no longer matters).
func (c *WBCache) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lost {
		return ErrCrashed
	}
	return c.flushLocked()
}

func (c *WBCache) flushLocked() error {
	if len(c.dirty) == 0 {
		return nil
	}
	ss := int64(c.d.SectorSize())
	sectors := make([]int64, 0, len(c.dirty))
	for s := range c.dirty {
		sectors = append(sectors, s)
	}
	sort.Slice(sectors, func(i, j int) bool { return sectors[i] < sectors[j] })
	run := make([]byte, 0, int64(len(sectors))*ss)
	runStart := sectors[0]
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		if err := c.d.WriteAt(run, runStart*ss); err != nil {
			return err
		}
		c.stats.FlushedSectors += int64(len(run)) / ss
		run = run[:0]
		return nil
	}
	prev := sectors[0] - 1
	for _, s := range sectors {
		if s != prev+1 {
			if err := flush(); err != nil {
				return err
			}
			runStart = s
		}
		run = append(run, c.dirty[s]...)
		prev = s
	}
	if err := flush(); err != nil {
		return err
	}
	c.dirty = make(map[int64][]byte)
	c.stats.Syncs++
	return nil
}

// powerLoss applies the loss to this cache: per dirty sector the seeded
// decision function persists it or drops it, then the tripping write's
// boundary sector (when given) persists its byte prefix. Called by the
// rail with rail.mu held; takes c.mu itself.
func (c *WBCache) powerLoss(seed int64, tearOff int64, tearData []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lost = true
	c.stats.PowerLosses++
	ss := int64(c.d.SectorSize())
	for s, b := range c.dirty {
		if persistAtLoss(seed, s) {
			c.d.persistRaw(s*ss, b)
			c.stats.PersistedAtLoss++
		} else {
			c.stats.DroppedAtLoss++
		}
	}
	c.dirty = make(map[int64][]byte)
	if tearOff >= 0 && len(tearData) > 0 {
		c.d.persistRaw(tearOff, tearData)
		c.stats.TornAtLoss++
	}
}

// restart clears the (volatile) cache and accepts I/O again.
func (c *WBCache) restart() {
	c.mu.Lock()
	c.lost = false
	c.dirty = make(map[int64][]byte)
	c.mu.Unlock()
}

// Capacity implements Backend.
func (c *WBCache) Capacity() int64 { return c.d.Capacity() }

// SectorSize implements Backend.
func (c *WBCache) SectorSize() int { return c.d.SectorSize() }

// Now implements Backend.
func (c *WBCache) Now() time.Duration { return c.d.Now() }

// AdvanceIdle implements Backend.
func (c *WBCache) AdvanceIdle(d time.Duration) { c.d.AdvanceIdle(d) }

// ReadOrder implements Backend: the identity order. A read the cache holds
// costs no mechanical time, so the platter's schedule would mislead.
func (c *WBCache) ReadOrder(offs []int64, lens []int) []int { return InOrder(len(offs)) }

// persistRaw copies b onto the platter at byte offset off with no
// alignment check, no mechanical time, and no crash gate: it models the
// sectors the drive's dying electronics managed to scribble during a
// power loss (including a partial, torn sector).
func (d *Disk) persistRaw(off int64, b []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < 0 || off+int64(len(b)) > int64(len(d.data)) {
		panic(fmt.Sprintf("disk: persistRaw [%d,%d) out of range", off, off+int64(len(b))))
	}
	copy(d.data[off:], b)
}

// mix64 is a splitmix64-style mixer deriving independent per-cache and
// per-sector streams from one master seed, so a (seed, topology) pair
// replays bit-identical loss outcomes with no dependence on map
// iteration or goroutine scheduling.
func mix64(seed, salt int64) int64 {
	x := uint64(seed) + 0x9E3779B97F4A7C15*uint64(salt+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// persistAtLoss decides (deterministically in seed and sector number,
// independent of issue order — that is the reordering) whether a cached
// sector reaches the platter during a power loss.
func persistAtLoss(seed, sector int64) bool {
	return uint64(mix64(seed, sector))&1 == 0
}

// tearBytes decides whether the boundary sector of the write in flight
// at the loss tears, and at how many bytes. Zero means no tear.
func tearBytes(seed, sector int64, sectorSize int) int {
	x := uint64(mix64(seed^0x7263617368, sector)) // "crash"
	if x&1 != 0 {
		return 0
	}
	return 1 + int((x>>1)%uint64(sectorSize-1))
}

var (
	_ Backend = (*WBCache)(nil)
	_ Syncer  = (*WBCache)(nil)
)
