// Package disk implements a simulated sector-addressable disk with a
// mechanical timing model (seek, rotational latency, transfer) and a virtual
// clock. It stands in for the HP C3010 SCSI disk used in the paper "The
// Logical Disk" (de Jonge, Kaashoek, Hsieh; SOSP 1993): 5400 rpm, 11.5 ms
// average seek.
//
// All I/O is synchronous and advances the disk's virtual clock; throughput
// numbers reported by the benchmark harness are computed from this clock, not
// from wall time. The simulator reproduces the two raw performance anchors
// the paper reports for its hardware: about 2400 KB/s for 0.5-MB sequential
// writes issued back to back, and roughly 300 KB/s for back-to-back 4-KB
// writes (each of which misses a rotation).
//
// The disk also supports deterministic crash injection: a crash tears an
// in-flight write at a sector boundary and fails all subsequent operations
// until ClearCrash is called, which models a machine reboot.
package disk

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"time"
)

// Common errors returned by disk operations.
var (
	// ErrCrashed is returned once crash injection has triggered; the disk
	// refuses all I/O until ClearCrash.
	ErrCrashed = errors.New("disk: crashed")
	// ErrOutOfRange is returned when an access extends past the disk capacity.
	ErrOutOfRange = errors.New("disk: access out of range")
	// ErrUnaligned is returned when an access is not sector aligned.
	ErrUnaligned = errors.New("disk: access not sector aligned")
	// ErrUnreadable is returned when a read covers a sector marked as a
	// latent media fault (InjectUnreadable). The error persists until the
	// sector is rewritten, which models the drive remapping it.
	ErrUnreadable = errors.New("disk: unreadable sector")
	// ErrTransient is returned for injected transient faults
	// (InjectTransientReadErrors): the request fails but an identical
	// retry succeeds once the injected budget is exhausted.
	ErrTransient = errors.New("disk: transient I/O error")
)

// Config describes the geometry and mechanics of a simulated disk.
// The zero value is not usable; use DefaultConfig or C3010Config.
type Config struct {
	SectorSize      int // bytes per sector, typically 512
	SectorsPerTrack int // sectors on one track
	Heads           int // tracks per cylinder
	Cylinders       int // total cylinders

	RPM int // spindle speed, revolutions per minute

	MinSeek    time.Duration // single-cylinder seek time
	AvgSeek    time.Duration // average random seek time (calibrates the curve)
	HeadSwitch time.Duration // time to switch heads within a cylinder

	// RequestOverhead models per-request controller and host turnaround
	// time; it is what makes back-to-back small writes miss a rotation.
	RequestOverhead time.Duration
}

// DefaultConfig returns a configuration modeled on the paper's HP C3010
// (5400 rpm, 11.5 ms average seek) scaled to the given capacity in bytes.
// The returned geometry yields roughly 2400 KB/s for 0.5-MB sequential
// writes and roughly 300-360 KB/s for back-to-back 4-KB writes, matching
// the raw anchors reported in Section 4.2 of the paper.
func DefaultConfig(capacity int64) Config {
	c := Config{
		SectorSize:      512,
		SectorsPerTrack: 64,
		Heads:           9,
		RPM:             5400,
		MinSeek:         2500 * time.Microsecond,
		AvgSeek:         11500 * time.Microsecond,
		HeadSwitch:      1 * time.Millisecond,
		RequestOverhead: 1500 * time.Microsecond,
	}
	cylBytes := int64(c.SectorSize) * int64(c.SectorsPerTrack) * int64(c.Heads)
	c.Cylinders = int((capacity + cylBytes - 1) / cylBytes)
	if c.Cylinders < 1 {
		c.Cylinders = 1
	}
	return c
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.SectorSize <= 0:
		return fmt.Errorf("disk: invalid sector size %d", c.SectorSize)
	case c.SectorsPerTrack <= 0:
		return fmt.Errorf("disk: invalid sectors per track %d", c.SectorsPerTrack)
	case c.Heads <= 0:
		return fmt.Errorf("disk: invalid head count %d", c.Heads)
	case c.Cylinders <= 0:
		return fmt.Errorf("disk: invalid cylinder count %d", c.Cylinders)
	case c.RPM <= 0:
		return fmt.Errorf("disk: invalid RPM %d", c.RPM)
	}
	return nil
}

// Capacity returns the total capacity in bytes described by the config.
func (c Config) Capacity() int64 {
	return int64(c.SectorSize) * int64(c.SectorsPerTrack) * int64(c.Heads) * int64(c.Cylinders)
}

// RevolutionTime returns the duration of one spindle revolution.
func (c Config) RevolutionTime() time.Duration {
	return time.Duration(60 * float64(time.Second) / float64(c.RPM))
}

// sectorTime returns the time for one sector to pass under the head.
func (c Config) sectorTime() time.Duration {
	return c.RevolutionTime() / time.Duration(c.SectorsPerTrack)
}

// Stats accumulates operation counts and time spent in each mechanical
// phase since the last ResetStats.
type Stats struct {
	Reads          int64 // read requests
	Writes         int64 // write requests
	SectorsRead    int64
	SectorsWritten int64
	Seeks          int64 // seeks that actually moved the arm

	TransientFaults  int64 // reads failed with ErrTransient
	UnreadableFaults int64 // reads failed with ErrUnreadable

	SeekTime     time.Duration
	RotationTime time.Duration
	TransferTime time.Duration
	OverheadTime time.Duration
	IdleTime     time.Duration // time advanced via AdvanceIdle
}

// BytesRead returns the total bytes read since the last reset.
func (s Stats) BytesRead(sectorSize int) int64 { return s.SectorsRead * int64(sectorSize) }

// BytesWritten returns the total bytes written since the last reset.
func (s Stats) BytesWritten(sectorSize int) int64 { return s.SectorsWritten * int64(sectorSize) }

// BusyTime returns the total time the disk spent servicing requests.
func (s Stats) BusyTime() time.Duration {
	return s.SeekTime + s.RotationTime + s.TransferTime + s.OverheadTime
}

// Disk is a simulated disk. All methods are safe for concurrent use; each
// request is serviced atomically under an internal lock, serializing access
// exactly like a single-spindle device.
type Disk struct {
	mu   sync.Mutex
	cfg  Config
	data []byte

	arm   arm // clock, arm position and read buffer
	stats Stats

	crashAfter int64 // sectors until injected crash; -1 means disabled
	crashed    bool

	// badSectors holds the latent media faults injected with
	// InjectUnreadable. Reads covering any of them fail with
	// ErrUnreadable; a write over a bad sector clears the fault, the way
	// a real drive remaps the sector on rewrite.
	badSectors map[int64]bool

	// transientReads is how many more read requests fail with
	// ErrTransient before reads succeed again.
	transientReads int

	seekCoeff float64 // calibrated so a "typical" seek costs AvgSeek

	// The geometry's constants the model steps by, computed once: a
	// what-if query (ReadOrder) takes many steps per request.
	st   time.Duration // one sector passing under the head
	skew int64         // skewSectors
}

// New creates a disk with the given configuration. It panics if the
// configuration is invalid, since a bad geometry is a programming error.
func New(cfg Config) *Disk {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &Disk{
		cfg:        cfg,
		data:       make([]byte, cfg.Capacity()),
		crashAfter: -1,
	}
	// Calibrate the seek curve seek(d) = MinSeek + coeff*sqrt(d) so that a
	// seek across one third of the disk (the mean random seek distance)
	// costs AvgSeek.
	third := float64(cfg.Cylinders) / 3
	if third < 1 {
		third = 1
	}
	d.seekCoeff = float64(cfg.AvgSeek-cfg.MinSeek) / math.Sqrt(third)
	if d.seekCoeff < 0 {
		d.seekCoeff = 0
	}
	d.st, d.skew = cfg.sectorTime(), d.skewSectors()
	return d
}

// Config returns the disk's configuration.
func (d *Disk) Config() Config { return d.cfg }

// Capacity returns the disk capacity in bytes.
func (d *Disk) Capacity() int64 { return int64(len(d.data)) }

// SectorSize returns the sector size in bytes.
func (d *Disk) SectorSize() int { return d.cfg.SectorSize }

// Now returns the current virtual time.
func (d *Disk) Now() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.arm.now
}

// AdvanceIdle advances the virtual clock without performing I/O. It is used
// to charge modeled CPU costs (for example compression) to the same clock
// that measures disk time.
func (d *Disk) AdvanceIdle(dur time.Duration) {
	if dur <= 0 {
		return
	}
	d.mu.Lock()
	d.arm.now += dur
	d.stats.IdleTime += dur
	d.mu.Unlock()
}

// Stats returns a copy of the accumulated statistics.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the statistics counters. The virtual clock is not reset.
func (d *Disk) ResetStats() {
	d.mu.Lock()
	d.stats = Stats{}
	d.mu.Unlock()
}

// InjectCrashAfterSectors arranges for the disk to crash after n more
// sectors have been written. A write in flight when the budget reaches zero
// is torn: only its first sectors reach the platter. Pass a negative n to
// disable a pending injection.
func (d *Disk) InjectCrashAfterSectors(n int64) {
	d.mu.Lock()
	d.crashAfter = n
	d.mu.Unlock()
}

// Crash forces an immediate crash: all subsequent I/O fails with ErrCrashed
// until ClearCrash is called.
func (d *Disk) Crash() {
	d.mu.Lock()
	d.crashed = true
	d.mu.Unlock()
}

// Crashed reports whether the disk is in the crashed state.
func (d *Disk) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}

// ClearCrash models a reboot: the platter contents are preserved, the
// crashed state is cleared, and pending injection is disabled.
func (d *Disk) ClearCrash() {
	d.mu.Lock()
	d.crashed = false
	d.crashAfter = -1
	d.mu.Unlock()
}

// InjectUnreadable marks count sectors starting at sector as latent media
// faults: any read covering one fails with ErrUnreadable until the sector
// is rewritten. The platter contents underneath are untouched, so a
// snapshot/restore round trip does not carry the fault.
func (d *Disk) InjectUnreadable(sector, count int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.badSectors == nil {
		d.badSectors = make(map[int64]bool)
	}
	for i := int64(0); i < count; i++ {
		d.badSectors[sector+i] = true
	}
}

// ClearUnreadable removes every injected latent read fault.
func (d *Disk) ClearUnreadable() {
	d.mu.Lock()
	d.badSectors = nil
	d.mu.Unlock()
}

// InjectTransientReadErrors arranges for the next n read requests to fail
// with ErrTransient without touching the platter; the request after those
// succeeds. It models bus glitches and recoverable drive hiccups that a
// bounded retry should absorb.
func (d *Disk) InjectTransientReadErrors(n int) {
	d.mu.Lock()
	d.transientReads = n
	d.mu.Unlock()
}

// CorruptRange XORs every byte in [off, off+n) on the platter with xor,
// modeling silent bit rot: subsequent reads succeed and return the flipped
// bytes. The range is byte-granular and need not be sector aligned; xor
// must be nonzero to change anything. It panics if the range is out of
// bounds, since corrupting a nonexistent sector is a test bug.
func (d *Disk) CorruptRange(off, n int64, xor byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < 0 || n < 0 || off+n > int64(len(d.data)) {
		panic(fmt.Sprintf("disk: CorruptRange [%d,%d) out of range (capacity %d)", off, off+n, len(d.data)))
	}
	for i := off; i < off+n; i++ {
		d.data[i] ^= xor
	}
}

// checkAccess validates alignment and range for an access of length n at off.
func (d *Disk) checkAccess(off int64, n int) error {
	ss := int64(d.cfg.SectorSize)
	if off%ss != 0 || int64(n)%ss != 0 {
		return fmt.Errorf("%w: off=%d len=%d sector=%d", ErrUnaligned, off, n, ss)
	}
	if off < 0 || off+int64(n) > int64(len(d.data)) {
		return fmt.Errorf("%w: off=%d len=%d capacity=%d", ErrOutOfRange, off, n, len(d.data))
	}
	return nil
}

// geometry helpers. A linear sector number maps to (cylinder, head, sector)
// in the conventional order: sectors fill a track, tracks fill a cylinder.
func (d *Disk) cylOf(sector int64) int {
	perCyl := int64(d.cfg.SectorsPerTrack * d.cfg.Heads)
	return int(sector / perCyl)
}

func (d *Disk) trackIndex(sector int64) int64 {
	return sector / int64(d.cfg.SectorsPerTrack)
}

// rotationalPos returns the sector index currently under the head, as a
// function of the virtual clock.
func (d *Disk) rotationalPos(at time.Duration) int64 {
	if d.st <= 0 {
		return 0
	}
	return int64(at/d.st) % int64(d.cfg.SectorsPerTrack)
}

// seekTime returns the arm movement time between two cylinders.
func (d *Disk) seekTime(from, to int) time.Duration {
	if from == to {
		return 0
	}
	dist := from - to
	if dist < 0 {
		dist = -dist
	}
	return d.cfg.MinSeek + time.Duration(d.seekCoeff*math.Sqrt(float64(dist)))
}

// skewSectors returns the per-track skew: consecutive tracks are rotated
// relative to each other so that after a head switch the next logical
// sector arrives under the head shortly after the switch completes, instead
// of costing a full missed revolution.
func (d *Disk) skewSectors() int64 {
	st := d.cfg.sectorTime()
	if st <= 0 {
		return 0
	}
	// Round the head-switch time up to whole sectors and add one sector of
	// slack so the target never slips just past the head.
	return int64((d.cfg.HeadSwitch+st-1)/st) + 1
}

// arm is the mechanism's state between requests: everything a request's
// service time depends on besides the request itself.
type arm struct {
	now time.Duration // virtual clock
	cyl int           // cylinder under the heads

	// bufEnd marks the sector just past the last read, modeling the
	// drive's read (track) buffer: a read that starts exactly where the
	// previous one ended, on the same track, is served at media rate with
	// no rotational wait. Writes invalidate it.
	bufEnd int64
}

// service simulates the mechanical service of a request spanning
// [sector, sector+count) from state a: it returns the state the request
// leaves behind and adds the time of each phase to ph. It reads only the
// disk's immutable geometry, so a what-if query (ReadOrder) can step a copy
// of the arm through the model requests use.
func (d *Disk) service(a arm, sector, count int64, isRead bool, ph *Stats) arm {
	cfg := &d.cfg
	st := d.st

	// Drive read buffer: strictly sequential reads within one track are
	// satisfied from the buffer the drive filled on the previous pass.
	if isRead && sector == a.bufEnd && d.trackIndex(sector) == d.trackIndex(sector-1) {
		end := (d.trackIndex(sector) + 1) * int64(cfg.SectorsPerTrack)
		buffered := end - sector
		if buffered > count {
			buffered = count
		}
		a.now += cfg.RequestOverhead
		ph.OverheadTime += cfg.RequestOverhead
		xfer := time.Duration(buffered) * st
		a.now += xfer
		ph.TransferTime += xfer
		sector += buffered
		count -= buffered
		a.bufEnd = sector
		if count == 0 {
			return a
		}
		// Fall through to the mechanical path for the remainder, without
		// charging the overhead twice.
		a = d.serviceMechanical(a, sector, count, 0, ph)
		a.bufEnd = sector + count
		return a
	}
	a = d.serviceMechanical(a, sector, count, cfg.RequestOverhead, ph)
	if isRead {
		a.bufEnd = sector + count
	} else {
		a.bufEnd = -1
	}
	return a
}

// serviceMechanical performs the seek/rotate/transfer simulation.
func (d *Disk) serviceMechanical(a arm, sector, count int64, overhead time.Duration, ph *Stats) arm {
	cfg := &d.cfg
	st, skew := d.st, d.skew

	// Controller/host overhead before the media transfer starts.
	a.now += overhead
	ph.OverheadTime += overhead

	remaining := count
	cur := sector
	for remaining > 0 {
		// Seek to the cylinder that holds the current sector.
		cyl := d.cylOf(cur)
		if cyl != a.cyl {
			s := d.seekTime(a.cyl, cyl)
			a.now += s
			ph.SeekTime += s
			ph.Seeks++
			a.cyl = cyl
		}

		// Rotational latency until the target sector is under the head.
		// The angular position of a logical sector depends on its track's
		// skew offset.
		within := (cur%int64(cfg.SectorsPerTrack) + d.trackIndex(cur)*skew) % int64(cfg.SectorsPerTrack)
		pos := d.rotationalPos(a.now)
		wait := within - pos
		if wait <= 0 {
			// Already past the target this revolution (or exactly at it
			// but the leading edge has gone by); wait for the next pass.
			wait += int64(cfg.SectorsPerTrack)
		}
		rot := time.Duration(wait) * st
		a.now += rot
		ph.RotationTime += rot

		// Transfer the rest of this track (or the rest of the request).
		trackEnd := (d.trackIndex(cur) + 1) * int64(cfg.SectorsPerTrack)
		n := trackEnd - cur
		if n > remaining {
			n = remaining
		}
		xfer := time.Duration(n) * st
		a.now += xfer
		ph.TransferTime += xfer
		cur += n
		remaining -= n

		// Crossing to the next track costs a head switch (and possibly a
		// cylinder-to-cylinder seek handled at the top of the loop).
		if remaining > 0 {
			a.now += cfg.HeadSwitch
			// Head switch is accounted as overhead.
			ph.OverheadTime += cfg.HeadSwitch
		}
	}
	return a
}

// ReadOrder implements Backend: a greedy shortest-positioning-time-first
// schedule. From the arm's present state it picks the read whose overhead,
// seeks, head switches and rotational waits sum least — a read the track
// buffer continues costs only the overhead — steps a copy of the arm
// through it with the model ReadAt uses, and picks again from there; ties
// go to the earlier entry. Nothing is read, and the clock, the arm, the
// read buffer and Stats are left as they were. Entries are taken as valid
// reads.
//
// No read costs less than its overhead and its first seek, and the seek
// grows with the distance from the arm's cylinder, so each pick scans the
// reads by offset outward from the arm and stops on either side where that
// bound alone exceeds the best cost found: it steps the model through the
// reads near the arm only.
func (d *Disk) ReadOrder(offs []int64, lens []int) []int {
	if len(offs) < 2 {
		return InOrder(len(offs))
	}
	d.mu.Lock()
	a := d.arm
	d.mu.Unlock()
	cfg, ss := &d.cfg, int64(d.cfg.SectorSize)
	cylBytes := int64(cfg.SectorsPerTrack*cfg.Heads) * ss
	left := InOrder(len(offs)) // the reads not yet picked, by offset
	slices.SortStableFunc(left, func(x, y int) int { return cmp.Compare(offs[x], offs[y]) })
	order := make([]int, 0, len(offs))
	for len(left) > 0 {
		best, bestCost, bestArm := -1, time.Duration(math.MaxInt64), a
		better := func(c time.Duration, i int) bool {
			return c < bestCost || c == bestCost && i < left[best]
		}
		// try weighs left[j] against the best pick so far and reports
		// whether a read further from the arm could still beat it.
		try := func(j int) bool {
			i := left[j]
			sector := offs[i] / ss
			if bound := cfg.RequestOverhead + d.seekTime(a.cyl, d.cylOf(sector)); !better(bound, i) {
				return bound <= bestCost
			}
			var ph Stats
			next := d.service(a, sector, int64(lens[i])/ss, true, &ph)
			if c := ph.BusyTime() - ph.TransferTime; better(c, i) {
				best, bestCost, bestArm = j, c, next
			}
			return true
		}
		mid, _ := slices.BinarySearchFunc(left, int64(a.cyl)*cylBytes, func(i int, off int64) int { return cmp.Compare(offs[i], off) })
		for j := mid; j < len(left) && try(j); j++ {
		}
		for j := mid - 1; j >= 0 && try(j); j-- {
		}
		order = append(order, left[best])
		left = slices.Delete(left, best, best+1)
		a = bestArm
	}
	return order
}

// ReadAt reads len(p) bytes at offset off. Both must be sector aligned.
func (d *Disk) ReadAt(p []byte, off int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	if err := d.checkAccess(off, len(p)); err != nil {
		return err
	}
	if len(p) == 0 {
		return nil
	}
	if d.transientReads > 0 {
		d.transientReads--
		d.stats.TransientFaults++
		return fmt.Errorf("%w: off=%d len=%d", ErrTransient, off, len(p))
	}
	ss := int64(d.cfg.SectorSize)
	sector := off / ss
	count := int64(len(p)) / ss
	d.arm = d.service(d.arm, sector, count, true, &d.stats)
	if d.badSectors != nil {
		for i := int64(0); i < count; i++ {
			if d.badSectors[sector+i] {
				d.stats.UnreadableFaults++
				return fmt.Errorf("%w: sector %d (off=%d len=%d)", ErrUnreadable, sector+i, off, len(p))
			}
		}
	}
	copy(p, d.data[off:off+int64(len(p))])
	d.stats.Reads++
	d.stats.SectorsRead += count
	return nil
}

// WriteAt writes p at offset off. Both must be sector aligned. If crash
// injection triggers during the write, a prefix of the sectors is written,
// the request fails with ErrCrashed, and the disk refuses further I/O until
// ClearCrash.
func (d *Disk) WriteAt(p []byte, off int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	if err := d.checkAccess(off, len(p)); err != nil {
		return err
	}
	if len(p) == 0 {
		return nil
	}
	ss := int64(d.cfg.SectorSize)
	sector := off / ss
	count := int64(len(p)) / ss

	written := count
	torn := false
	if d.crashAfter >= 0 && d.crashAfter < count {
		written = d.crashAfter
		torn = true
	}
	if d.crashAfter >= 0 {
		d.crashAfter -= written
	}

	if written > 0 {
		d.arm = d.service(d.arm, sector, written, false, &d.stats)
		n := written * ss
		copy(d.data[off:off+n], p[:n])
		d.stats.Writes++
		d.stats.SectorsWritten += written
		// Rewriting a latent-fault sector repairs it (drive remap).
		if d.badSectors != nil {
			for i := int64(0); i < written; i++ {
				delete(d.badSectors, sector+i)
			}
		}
	}
	if torn {
		d.crashed = true
		return ErrCrashed
	}
	return nil
}

// WriteAtNVRAM persists p at offset off without charging mechanical time,
// modeling a battery-backed NVRAM staging area whose contents reach the
// platter for free from the simulation's point of view (§5.3 of the paper,
// after Baker et al.). The write is atomic: crash injection cannot tear
// it, though a disk already in the crashed state still refuses it.
func (d *Disk) WriteAtNVRAM(p []byte, off int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	if err := d.checkAccess(off, len(p)); err != nil {
		return err
	}
	copy(d.data[off:off+int64(len(p))], p)
	if d.badSectors != nil && len(p) > 0 {
		ss := int64(d.cfg.SectorSize)
		for s := off / ss; s < (off+int64(len(p)))/ss; s++ {
			delete(d.badSectors, s)
		}
	}
	return nil
}

// SaveImage writes the raw platter contents to path. Useful for the CLI
// tools; the virtual clock and statistics are not saved.
func (d *Disk) SaveImage(path string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return os.WriteFile(path, d.data, 0o644)
}

// LoadImage replaces the platter contents with the file at path. The file
// must be exactly the disk capacity.
func (d *Disk) LoadImage(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if int64(len(b)) != int64(len(d.data)) {
		return fmt.Errorf("disk: image size %d does not match capacity %d", len(b), len(d.data))
	}
	copy(d.data, b)
	return nil
}

// Snapshot returns a copy of the raw platter contents. Intended for tests.
func (d *Disk) Snapshot() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]byte, len(d.data))
	copy(out, d.data)
	return out
}

// Restore replaces the platter contents from a snapshot. Intended for tests.
func (d *Disk) Restore(img []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(img) != len(d.data) {
		return fmt.Errorf("disk: snapshot size %d does not match capacity %d", len(img), len(d.data))
	}
	copy(d.data, img)
	return nil
}
