package mdisk

import (
	"bytes"
	"errors"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
)

// ReplicaState is the lifecycle of one mirror replica.
type ReplicaState int32

const (
	// ReplicaLive serves reads and receives writes.
	ReplicaLive ReplicaState = iota
	// ReplicaFailed is dropped from both paths (it crashed or every write
	// to it fails); it stays attached only so its slot can be replaced.
	ReplicaFailed
	// ReplicaRebuilding receives writes but never serves reads: its
	// contents are incomplete until Rebuild finishes re-silvering it.
	ReplicaRebuilding
)

func (s ReplicaState) String() string {
	switch s {
	case ReplicaLive:
		return "live"
	case ReplicaFailed:
		return "failed"
	case ReplicaRebuilding:
		return "rebuilding"
	}
	return "unknown"
}

// mirrorReplica pairs a backend with its lifecycle state. The state is
// atomic so the read path (shared lock) can fail a crashed replica
// without escalating to the exclusive lock.
type mirrorReplica struct {
	b     disk.Backend
	state atomic.Int32
}

func (r *mirrorReplica) st() ReplicaState { return ReplicaState(r.state.Load()) }

// Mirror keeps every sector on all of its replicas: writes go to all
// live and rebuilding replicas, reads are served by any live one.
//
// Concurrency: mu is a reader/writer lock. Writers (WriteAt,
// WriteAtNVRAM, rebuild copy steps) hold it exclusively, so the
// replicas never diverge observably. Readers (ReadAt, ReadAtVerified,
// VerifyReplicas) hold it shared; the heals they perform rewrite bytes
// that verified an instant ago under the same shared lock, which is
// sound because writers are excluded while any reader is inside —
// concurrent heals of the same range write identical bytes.
type Mirror struct {
	mu   sync.RWMutex
	kids []*mirrorReplica
	next atomic.Uint64 // read rotation counter

	ss       int
	capacity int64

	// Rebuild bookkeeping: written marks capacity/chunk-sized chunks that
	// have ever been written, so a rebuild copies only sectors that can
	// hold live data. Guarded by mu (set by writers, read by the rebuild
	// under the exclusive lock).
	chunk   int64
	written []uint64

	// crashHook, when set, is called between per-replica writes with a
	// site string ("mirror.write.<i>" after replica i accepted the
	// fan-out) so the torture harness can cut power while the replicas
	// disagree. Guarded by mu.
	crashHook func(site string)

	stats MirrorStats
}

// MirrorStats counts mirror-level events. Loaded atomically.
type MirrorStats struct {
	Reads           int64 // logical reads served
	Writes          int64 // logical writes accepted
	DegradedReads   int64 // reads that fell over past at least one bad replica copy
	Heals           int64 // replica copies repaired by rewriting good bytes
	VerifyRejects   int64 // replica copies rejected by the caller's verify function
	ReplicaFailures int64 // replicas marked failed
	RebuildsDone    int64 // rebuilds completed
}

// rebuildChunkSectors is the default re-silver granularity: chunks this
// many sectors long are tracked in the written bitmap and copied per
// rebuild step.
const rebuildChunkSectors = 64

// NewMirror builds a mirror over kids (normally two). All backends must
// share a sector size; capacity is the smallest backend's, rounded down
// to a whole number of sectors.
func NewMirror(kids ...disk.Backend) (*Mirror, error) {
	ss, minCap, err := checkChildren(kids)
	if err != nil {
		return nil, err
	}
	capacity := minCap / int64(ss) * int64(ss)
	m := &Mirror{
		kids:     make([]*mirrorReplica, len(kids)),
		ss:       ss,
		capacity: capacity,
		chunk:    int64(ss) * rebuildChunkSectors,
	}
	for i, k := range kids {
		m.kids[i] = &mirrorReplica{b: k}
	}
	m.written = make([]uint64, (m.chunks()+63)/64)
	return m, nil
}

func (m *Mirror) chunks() int { return int((m.capacity + m.chunk - 1) / m.chunk) }

func (m *Mirror) markWritten(off int64, n int) {
	for c := off / m.chunk; c <= (off+int64(n)-1)/m.chunk; c++ {
		m.written[c/64] |= 1 << (c % 64)
	}
}

func (m *Mirror) isWritten(c int64) bool { return m.written[c/64]&(1<<(c%64)) != 0 }

// fail marks replica r failed (sticky until its slot is replaced).
func (m *Mirror) fail(r *mirrorReplica) {
	if r.state.CompareAndSwap(int32(ReplicaLive), int32(ReplicaFailed)) ||
		r.state.CompareAndSwap(int32(ReplicaRebuilding), int32(ReplicaFailed)) {
		atomic.AddInt64(&m.stats.ReplicaFailures, 1)
	}
}

// write fans p out to every live and rebuilding replica. The write
// succeeds if at least one live replica accepted it; replicas whose
// write crashed are marked failed (a torn write must never be read
// back, and a crashed backend stays crashed until replaced).
func (m *Mirror) write(p []byte, off int64, nvram bool) error {
	if err := checkAccess(p, off, m.ss, m.capacity); err != nil {
		return err
	}
	atomic.AddInt64(&m.stats.Writes, 1)
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(p) > 0 {
		m.markWritten(off, len(p))
	}
	okLive := false
	var firstErr error
	for i, r := range m.kids {
		st := r.st()
		if st == ReplicaFailed {
			continue
		}
		var err error
		if nvram {
			err = r.b.WriteAtNVRAM(p, off)
		} else {
			err = r.b.WriteAt(p, off)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			m.fail(r)
			continue
		}
		if st == ReplicaLive {
			okLive = true
		}
		if m.crashHook != nil && i < len(m.kids)-1 {
			m.crashHook(mirrorWriteSite(i))
		}
	}
	if okLive {
		return nil
	}
	if firstErr != nil {
		return firstErr
	}
	return ErrMirrorDown
}

// WriteAt implements disk.Backend.
func (m *Mirror) WriteAt(p []byte, off int64) error { return m.write(p, off, false) }

// WriteAtNVRAM implements disk.Backend.
func (m *Mirror) WriteAtNVRAM(p []byte, off int64) error { return m.write(p, off, true) }

// ReadAt implements disk.Backend: read-any with fallback. Replicas are
// tried in rotation; a replica that errors is skipped (and, when the fault
// was a latent unreadable sector and a sibling served the bytes, healed by
// rewriting the sectors that do not read), a replica that crashed is marked
// failed.
func (m *Mirror) ReadAt(p []byte, off int64) error {
	_, err := m.readAny(p, off, nil)
	return err
}

// ReadAtVerified implements disk.MultiReader.
func (m *Mirror) ReadAtVerified(p []byte, off int64, verify func([]byte) bool) (int, error) {
	return m.readAny(p, off, func(b []byte) bool {
		ok := verify(b)
		if !ok {
			atomic.AddInt64(&m.stats.VerifyRejects, 1)
		}
		return ok
	})
}

// readAny is the shared read path: try live replicas in rotation until
// one yields acceptable bytes, then heal every copy that was tried and
// found bad. verify of nil accepts any bytes that read without error.
//
// A copy verify refused is rewritten where it differs from the accepted
// one (rewriteDiffering): the verdict was on the request, and what the
// caller passes as verify says what it vouches for, but a sector both
// copies hold alike needs no write. A copy that failed to read is rewritten
// only where it does not read (rewriteUnreadable): the accepted bytes are
// known good no further than verify looked — not at all on a plain ReadAt —
// and a request may span many blocks, so a sector the failed replica can
// still read may be the only good copy of what it holds.
func (m *Mirror) readAny(p []byte, off int64, verify func([]byte) bool) (int, error) {
	if err := checkAccess(p, off, m.ss, m.capacity); err != nil {
		return 0, err
	}
	atomic.AddInt64(&m.stats.Reads, 1)
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := len(m.kids)
	start := int(m.next.Add(1))
	var (
		firstErr   error
		readOK     bool  // some replica read without I/O error
		triedBad   []int // replicas to heal if a good copy turns up
		unreadable []int // those of triedBad that failed to read
	)
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		r := m.kids[idx]
		if r.st() != ReplicaLive {
			continue
		}
		err := r.b.ReadAt(p, off)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			if errors.Is(err, disk.ErrCrashed) {
				m.fail(r)
			} else if errors.Is(err, disk.ErrUnreadable) {
				triedBad = append(triedBad, idx)
				unreadable = append(unreadable, idx)
			}
			continue
		}
		readOK = true
		if verify != nil && !verify(p) {
			triedBad = append(triedBad, idx)
			continue
		}
		// Good copy in hand: heal every replica we tried and rejected.
		if len(triedBad) > 0 {
			atomic.AddInt64(&m.stats.DegradedReads, 1)
		}
		healed := 0
		for _, bad := range triedBad {
			rb := m.kids[bad]
			if rb.st() != ReplicaLive {
				continue
			}
			var werr error
			if slices.Contains(unreadable, bad) {
				werr = rewriteUnreadable(rb.b, p, off, make([]byte, len(p)), m.ss)
			} else {
				werr = rewriteDiffering(rb.b, p, off, make([]byte, len(p)), m.ss)
			}
			if werr != nil {
				if errors.Is(werr, disk.ErrCrashed) {
					m.fail(rb)
				}
				continue
			}
			healed++
			atomic.AddInt64(&m.stats.Heals, 1)
		}
		return healed, nil
	}
	if verify != nil && readOK {
		return 0, disk.ErrNoValidReplica
	}
	if firstErr != nil {
		return 0, firstErr
	}
	return 0, ErrMirrorDown
}

// rewriteUnreadable writes p, the bytes a sibling served for the range at
// off, over the sectors of that range b cannot read, and over no other. b
// has just failed the whole range, so the search starts by halving it; probe
// is scratch of len(p) bytes.
func rewriteUnreadable(b disk.Backend, p []byte, off int64, probe []byte, ss int) error {
	if len(p) <= ss {
		return b.WriteAt(p, off)
	}
	half := len(p) / ss / 2 * ss
	for _, part := range [2][]byte{p[:half], p[half:]} {
		err := b.ReadAt(probe[:len(part)], off)
		if errors.Is(err, disk.ErrUnreadable) {
			err = rewriteUnreadable(b, part, off, probe, ss)
		}
		if err != nil {
			return err
		}
		off += int64(len(part))
	}
	return nil
}

// rewriteDiffering writes p, the accepted copy of the range at off, over
// the runs of sectors where b's copy, read back into old (scratch of len(p)
// bytes), differs from it, and over no other. A copy b cannot read back is
// rewritten whole.
func rewriteDiffering(b disk.Backend, p []byte, off int64, old []byte, ss int) error {
	if err := b.ReadAt(old, off); err != nil {
		if errors.Is(err, disk.ErrCrashed) {
			return err
		}
		return b.WriteAt(p, off)
	}
	for lo := 0; lo < len(p); {
		if bytes.Equal(p[lo:lo+ss], old[lo:lo+ss]) {
			lo += ss
			continue
		}
		hi := lo + ss
		for hi < len(p) && !bytes.Equal(p[hi:hi+ss], old[hi:hi+ss]) {
			hi += ss
		}
		if err := b.WriteAt(p[lo:hi], off+int64(lo)); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// VerifyReplicas implements disk.MultiReader: every live replica's copy
// of the range is checked against verify, and failed copies are healed
// from a verified one: a copy verify refused where it differs from that
// one (rewriteDiffering), a copy that failed to read over the whole range.
// On success p holds verified bytes.
func (m *Mirror) VerifyReplicas(p []byte, off int64, verify func([]byte) bool) (int, error) {
	if err := checkAccess(p, off, m.ss, m.capacity); err != nil {
		return 0, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	var (
		good     = -1 // replica whose bytes are currently in p and verified
		bad      []int
		refused  []int // those of bad that read and verify refused
		firstErr error
		readOK   bool
	)
	for idx, r := range m.kids {
		if r.st() != ReplicaLive {
			continue
		}
		if err := r.b.ReadAt(p, off); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			if errors.Is(err, disk.ErrCrashed) {
				m.fail(r)
			} else {
				bad = append(bad, idx)
			}
			continue
		}
		readOK = true
		if verify(p) {
			good = idx
		} else {
			atomic.AddInt64(&m.stats.VerifyRejects, 1)
			bad = append(bad, idx)
			refused = append(refused, idx)
		}
	}
	if good < 0 {
		if !readOK && firstErr != nil {
			return 0, firstErr
		}
		return 0, disk.ErrNoValidReplica
	}
	if len(bad) == 0 {
		return 0, nil
	}
	// p may hold a bad copy's bytes (replicas were read in index order);
	// restore the verified copy before healing from it.
	if err := m.kids[good].b.ReadAt(p, off); err != nil {
		return 0, err
	}
	if !verify(p) {
		return 0, disk.ErrNoValidReplica // rotted between reads: give up
	}
	healed := 0
	for _, idx := range bad {
		r := m.kids[idx]
		if r.st() != ReplicaLive {
			continue
		}
		var err error
		if slices.Contains(refused, idx) {
			err = rewriteDiffering(r.b, p, off, make([]byte, len(p)), m.ss)
		} else {
			err = r.b.WriteAt(p, off)
		}
		if err != nil {
			if errors.Is(err, disk.ErrCrashed) {
				m.fail(r)
			}
			continue
		}
		healed++
		atomic.AddInt64(&m.stats.Heals, 1)
	}
	return healed, nil
}

// SetCrashHook installs (or clears, with nil) the torture harness's
// mid-fan-out crash callback. The hook runs with the mirror's exclusive
// lock held, after replica i accepted a write and before replica i+1
// sees it, at site "mirror.write.<i>".
func (m *Mirror) SetCrashHook(hook func(site string)) {
	m.mu.Lock()
	m.crashHook = hook
	m.mu.Unlock()
}

func mirrorWriteSite(i int) string { return "mirror.write." + strconv.Itoa(i) }

// Sync implements disk.Syncer: every replica that offers a write
// barrier drains it. A replica whose cache cannot drain has silently
// lost acknowledged writes, which is exactly a failed write — it is
// marked failed, and Sync succeeds while a live replica remains.
func (m *Mirror) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	okLive := false
	var firstErr error
	for _, r := range m.kids {
		st := r.st()
		if st == ReplicaFailed {
			continue
		}
		if s, ok := r.b.(disk.Syncer); ok {
			if err := s.Sync(); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				m.fail(r)
				continue
			}
		}
		if st == ReplicaLive {
			okLive = true
		}
	}
	if okLive {
		return nil
	}
	if firstErr != nil {
		return firstErr
	}
	return ErrMirrorDown
}

// Replicas implements disk.MultiReader.
func (m *Mirror) Replicas() int { return len(m.kids) }

// Capacity implements disk.Backend.
func (m *Mirror) Capacity() int64 { return m.capacity }

// SectorSize implements disk.Backend.
func (m *Mirror) SectorSize() int { return m.ss }

// Now implements disk.Backend: the slowest replica bounds every
// write-all operation.
func (m *Mirror) Now() time.Duration {
	var max time.Duration
	for _, r := range m.kids {
		if t := r.b.Now(); t > max {
			max = t
		}
	}
	return max
}

// AdvanceIdle implements disk.Backend.
func (m *Mirror) AdvanceIdle(d time.Duration) {
	for _, r := range m.kids {
		r.b.AdvanceIdle(d)
	}
}

// ReadOrder implements disk.Backend: the identity order. Which leg serves a
// read is chosen per request, so no one leg's schedule is the batch's.
func (m *Mirror) ReadOrder(offs []int64, lens []int) []int { return disk.InOrder(len(offs)) }

// Child returns replica i's backend, for per-replica fault injection
// and image persistence.
func (m *Mirror) Child(i int) disk.Backend {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.kids[i].b
}

// MarkAllWritten marks every chunk as potentially holding data, so a
// future Rebuild copies the whole capacity. Callers composing a mirror
// over preexisting (non-blank) backends — images loaded from files, say
// — must call this: the written bitmap only tracks writes made through
// the mirror, and skipping an "unwritten" chunk is only sound when the
// replicas were blank at construction.
func (m *Mirror) MarkAllWritten() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.written {
		m.written[i] = ^uint64(0)
	}
}

// State reports replica i's lifecycle state.
func (m *Mirror) State(i int) ReplicaState { return m.kids[i].st() }

// FailReplica administratively marks replica i failed (operator "pull
// the disk" action; also used by tests).
func (m *Mirror) FailReplica(i int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.fail(m.kids[i])
}

// Stats returns a snapshot of the mirror counters.
func (m *Mirror) Stats() MirrorStats {
	return MirrorStats{
		Reads:           atomic.LoadInt64(&m.stats.Reads),
		Writes:          atomic.LoadInt64(&m.stats.Writes),
		DegradedReads:   atomic.LoadInt64(&m.stats.DegradedReads),
		Heals:           atomic.LoadInt64(&m.stats.Heals),
		VerifyRejects:   atomic.LoadInt64(&m.stats.VerifyRejects),
		ReplicaFailures: atomic.LoadInt64(&m.stats.ReplicaFailures),
		RebuildsDone:    atomic.LoadInt64(&m.stats.RebuildsDone),
	}
}

var (
	_ disk.Backend     = (*Mirror)(nil)
	_ disk.MultiReader = (*Mirror)(nil)
)
