// Package uld is a second, non-log-structured implementation of the
// Logical Disk interface: an update-in-place design in the style the paper
// sketches as ongoing work (§5.4: "another implementation of LD that
// stores data blocks at fixed disk locations and metadata in a log") and
// compares against (§5.2, Loge).
//
// Data blocks live in fixed-size physical slots. Like Loge, a write goes
// to a free slot near the block's previous location (a shadow write), and
// the block-number map is updated to point at the new slot; the old slot
// becomes free once the remap record is durable. Metadata (the map, the
// lists) is journaled: operations append records to a bounded journal
// region, and when it fills, ULD checkpoints the whole map and resets the
// journal. Recovery loads the newest checkpoint and replays the journal.
//
// The contrast with LLD is the paper's §5.2 discussion made executable:
// ULD needs no cleaner and keeps reads of logically-sequential data
// physically clustered, but every small write pays a full disk operation,
// so write-dominated traffic runs at a fraction of LLD's bandwidth — see
// the `ldimpl` experiment.
package uld

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"repro/internal/disk"
	"repro/internal/ld"
)

const (
	superMagic   = 0x554C4431 // "ULD1"
	ckptMagic    = 0x554C4350 // "ULCP"
	journalMagic = 0x554C4A4C // "ULJL"
	version      = 1
)

// ErrFormat indicates on-disk metadata that fails validation.
var ErrFormat = errors.New("uld: bad on-disk format")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures a ULD instance.
type Options struct {
	// SlotSize is the physical slot (and maximum logical block) size.
	SlotSize int
	// JournalBytes sizes the metadata journal region; when it fills, ULD
	// checkpoints and resets it. Zero picks 256 KB.
	JournalBytes int
	// MaxBlocks bounds the logical address space; zero derives one block
	// number per slot plus headroom.
	MaxBlocks int
	// UtilizationLimit caps slot usage (reservations included).
	UtilizationLimit float64
}

// DefaultOptions returns a 4-KB-slot configuration.
func DefaultOptions() Options {
	return Options{
		SlotSize:         4096,
		JournalBytes:     256 * 1024,
		UtilizationLimit: 0.95,
	}
}

func (o Options) validate(sectorSize int) error {
	if o.SlotSize <= 0 || o.SlotSize%sectorSize != 0 {
		return fmt.Errorf("uld: slot size %d not a positive multiple of sector size %d", o.SlotSize, sectorSize)
	}
	if o.JournalBytes < 4*sectorSize {
		return fmt.Errorf("uld: journal %d bytes too small", o.JournalBytes)
	}
	if o.UtilizationLimit <= 0 || o.UtilizationLimit > 1 {
		return fmt.Errorf("uld: utilization limit %v out of (0,1]", o.UtilizationLimit)
	}
	return nil
}

// layout is the on-disk geometry.
type layout struct {
	sectorSize int
	slotSize   int
	maxBlocks  int
	nSlots     int
	journalOff int64
	journalLen int64
	ckptOff    int64
	ckptSize   int64
	dataOff    int64
}

func (l layout) slotOff(slot int) int64 { return l.dataOff + int64(slot)*int64(l.slotSize) }

const (
	superEncSize   = 64
	ckptHeaderSize = 28
	blockEncSize   = 21 // bid, slot, length, next, lid, flags
	listEncSize    = 17
)

func computeLayout(capacity int64, sectorSize int, o Options) (layout, error) {
	if err := o.validate(sectorSize); err != nil {
		return layout{}, err
	}
	l := layout{sectorSize: sectorSize, slotSize: o.SlotSize}
	journal := (int64(o.JournalBytes) + int64(sectorSize) - 1) / int64(sectorSize) * int64(sectorSize)

	provSlots := int(capacity / int64(o.SlotSize))
	if provSlots < 8 {
		return layout{}, fmt.Errorf("uld: disk too small: %d slots", provSlots)
	}
	maxBlocks := o.MaxBlocks
	if maxBlocks == 0 {
		maxBlocks = provSlots + provSlots/4
	}
	l.maxBlocks = maxBlocks

	slot := int64(ckptHeaderSize) +
		int64(maxBlocks+1)*blockEncSize +
		int64(maxBlocks/4+64)*listEncSize +
		4096
	slot = (slot + int64(sectorSize) - 1) / int64(sectorSize) * int64(sectorSize)

	l.journalOff = int64(sectorSize)
	l.journalLen = journal
	l.ckptOff = l.journalOff + journal
	l.ckptSize = slot
	l.dataOff = l.ckptOff + 2*slot
	// Align data to the slot size for tidy geometry.
	l.dataOff = (l.dataOff + int64(o.SlotSize) - 1) / int64(o.SlotSize) * int64(o.SlotSize)
	l.nSlots = int((capacity - l.dataOff) / int64(o.SlotSize))
	if l.nSlots < 4 {
		return layout{}, fmt.Errorf("uld: disk too small after metadata: %d slots", l.nSlots)
	}
	return l, nil
}

func encodeSuper(l layout) []byte {
	buf := make([]byte, superEncSize)
	binary.LittleEndian.PutUint32(buf[0:], superMagic)
	binary.LittleEndian.PutUint32(buf[8:], version)
	binary.LittleEndian.PutUint32(buf[12:], uint32(l.sectorSize))
	binary.LittleEndian.PutUint32(buf[16:], uint32(l.slotSize))
	binary.LittleEndian.PutUint32(buf[20:], uint32(l.maxBlocks))
	binary.LittleEndian.PutUint32(buf[24:], uint32(l.nSlots))
	binary.LittleEndian.PutUint64(buf[28:], uint64(l.journalOff))
	binary.LittleEndian.PutUint64(buf[36:], uint64(l.journalLen))
	binary.LittleEndian.PutUint64(buf[44:], uint64(l.ckptOff))
	binary.LittleEndian.PutUint64(buf[52:], uint64(l.ckptSize))
	// dataOff is recomputable but stored for tooling friendliness.
	binary.LittleEndian.PutUint32(buf[60:], 0)
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(buf[8:], crcTable))
	return buf
}

func decodeSuper(buf []byte, capacity int64) (layout, error) {
	if len(buf) < superEncSize {
		return layout{}, fmt.Errorf("%w: short superblock", ErrFormat)
	}
	if binary.LittleEndian.Uint32(buf[0:]) != superMagic {
		return layout{}, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if crc32.Checksum(buf[8:superEncSize], crcTable) != binary.LittleEndian.Uint32(buf[4:]) {
		return layout{}, fmt.Errorf("%w: superblock checksum", ErrFormat)
	}
	if binary.LittleEndian.Uint32(buf[8:]) != version {
		return layout{}, fmt.Errorf("%w: version", ErrFormat)
	}
	var l layout
	l.sectorSize = int(binary.LittleEndian.Uint32(buf[12:]))
	l.slotSize = int(binary.LittleEndian.Uint32(buf[16:]))
	l.maxBlocks = int(binary.LittleEndian.Uint32(buf[20:]))
	l.nSlots = int(binary.LittleEndian.Uint32(buf[24:]))
	l.journalOff = int64(binary.LittleEndian.Uint64(buf[28:]))
	l.journalLen = int64(binary.LittleEndian.Uint64(buf[36:]))
	l.ckptOff = int64(binary.LittleEndian.Uint64(buf[44:]))
	l.ckptSize = int64(binary.LittleEndian.Uint64(buf[52:]))
	l.dataOff = (l.ckptOff + 2*l.ckptSize + int64(l.slotSize) - 1) / int64(l.slotSize) * int64(l.slotSize)
	return l, nil
}

// ublock is one block-number-map entry.
type ublock struct {
	slot   int32 // -1: no data
	length uint32
	next   ld.BlockID
	lid    ld.ListID
	flags  uint8 // bAllocated | bHasData
}

const (
	bAllocated = 1 << 0
	bHasData   = 1 << 1
)

func (b *ublock) allocated() bool { return b.flags&bAllocated != 0 }
func (b *ublock) hasData() bool   { return b.flags&bHasData != 0 }

type ulist struct {
	first ld.BlockID
	count int
	hints ld.ListHints

	// cursor memoizes the last ListIndex lookup (offset addressing).
	curIdx int
	curBlk ld.BlockID
}

// Stats counts ULD events.
type Stats struct {
	BlocksWritten    int64
	BlocksRead       int64
	UserBytesWritten int64
	UserBytesRead    int64
	ShadowWrites     int64 // writes that moved a block to a new slot
	JournalFlushes   int64
	Checkpoints      int64
	Recoveries       int64
	ReplayedRecords  int64
}

// ULD is the update-in-place Logical Disk. It implements ld.Disk.
type ULD struct {
	mu   sync.Mutex
	dsk  *disk.Disk
	opts Options
	lay  layout
	shut bool

	blocks    []ublock
	freeIDs   ld.IDPool[ld.BlockID]
	nextFresh ld.BlockID

	lists     map[ld.ListID]*ulist
	order     []ld.ListID
	nextList  ld.ListID
	freeLists ld.IDPool[ld.ListID]

	slotUsed  []bool
	freeSlots int
	lastSlot  int // arm-locality hint for shadow writes
	reserved  int // reserved slots

	journal     []byte // in-memory tail not yet flushed
	journalNext int64  // next write offset within the journal region
	seq         uint64 // record sequence number
	epoch       uint64 // journal epoch; bumped at each checkpoint
	ckptSlot    int

	aruOpen     bool
	pendingFree []int // slots freed by unflushed remap records

	stats Stats
}

var _ ld.Disk = (*ULD)(nil)

// Format initializes a ULD layout on the disk.
func Format(dsk *disk.Disk, opts Options) error {
	lay, err := computeLayout(dsk.Capacity(), dsk.SectorSize(), opts)
	if err != nil {
		return err
	}
	ss := dsk.SectorSize()
	sector := make([]byte, ss)
	copy(sector, encodeSuper(lay))
	if err := dsk.WriteAt(sector, 0); err != nil {
		return err
	}
	zero := make([]byte, ss)
	// Invalidate checkpoints and the journal head.
	for slot := 0; slot < 2; slot++ {
		if err := dsk.WriteAt(zero, lay.ckptOff+int64(slot)*lay.ckptSize); err != nil {
			return err
		}
	}
	return dsk.WriteAt(zero, lay.journalOff)
}

// Open attaches to a formatted disk, loading the newest checkpoint and
// replaying the journal.
func Open(dsk *disk.Disk, opts Options) (*ULD, error) {
	sector := make([]byte, dsk.SectorSize())
	if err := dsk.ReadAt(sector, 0); err != nil {
		return nil, err
	}
	lay, err := decodeSuper(sector, dsk.Capacity())
	if err != nil {
		return nil, err
	}
	if lay.sectorSize != dsk.SectorSize() {
		return nil, fmt.Errorf("%w: sector size mismatch", ErrFormat)
	}
	opts.SlotSize = lay.slotSize
	opts.MaxBlocks = lay.maxBlocks
	if opts.UtilizationLimit == 0 {
		opts.UtilizationLimit = DefaultOptions().UtilizationLimit
	}
	u := &ULD{
		dsk:       dsk,
		opts:      opts,
		lay:       lay,
		blocks:    make([]ublock, lay.maxBlocks+1),
		nextFresh: 1,
		lists:     make(map[ld.ListID]*ulist),
		nextList:  1,
		slotUsed:  make([]bool, lay.nSlots),
		freeSlots: lay.nSlots,
	}
	for i := range u.blocks {
		u.blocks[i].slot = -1
	}
	if err := u.recover(); err != nil {
		return nil, err
	}
	return u, nil
}

// SlotCount returns the number of physical data slots.
func (u *ULD) SlotCount() int { return u.lay.nSlots }

// FreeSlots returns the number of free data slots.
func (u *ULD) FreeSlots() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.freeSlots
}

// Stats returns a copy of the counters.
func (u *ULD) Stats() Stats {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.stats
}

// MaxBlockSize implements ld.Disk.
func (u *ULD) MaxBlockSize() int { return u.lay.slotSize }

func (u *ULD) checkOpen() error {
	if u.shut {
		return ld.ErrShutdown
	}
	return nil
}

func (u *ULD) blockAt(b ld.BlockID) (*ublock, error) {
	if b == ld.NilBlock || int(b) >= len(u.blocks) {
		return nil, fmt.Errorf("%w: %d", ld.ErrBadBlock, b)
	}
	bi := &u.blocks[b]
	if !bi.allocated() {
		return nil, fmt.Errorf("%w: %d not allocated", ld.ErrBadBlock, b)
	}
	return bi, nil
}

func (u *ULD) listAt(lid ld.ListID) (*ulist, error) {
	li, ok := u.lists[lid]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ld.ErrBadList, lid)
	}
	return li, nil
}

// allocSlot picks a free slot near the hint (the Loge idea: write wherever
// is cheapest; we approximate "near the head" with "near the previous
// location", which also preserves clustering).
func (u *ULD) allocSlot(near int) (int, error) {
	if u.freeSlots == 0 {
		return -1, fmt.Errorf("%w: no free slots", ld.ErrNoSpace)
	}
	if near < 0 || near >= u.lay.nSlots {
		near = u.lastSlot
	}
	// Expanding ring search around the hint.
	for d := 0; d < u.lay.nSlots; d++ {
		for _, s := range [2]int{near + d, near - d} {
			if s >= 0 && s < u.lay.nSlots && !u.slotUsed[s] {
				u.slotUsed[s] = true
				u.freeSlots--
				u.lastSlot = s
				return s, nil
			}
		}
	}
	return -1, fmt.Errorf("%w: no free slots", ld.ErrNoSpace)
}

// freeSlotNow returns a slot to the pool immediately.
func (u *ULD) freeSlotNow(s int) {
	if s >= 0 && s < u.lay.nSlots && u.slotUsed[s] {
		u.slotUsed[s] = false
		u.freeSlots++
	}
}

// freeSlotDeferred parks a slot until the journal records that made it
// stale are durable; reusing it earlier could destroy the only copy of a
// block the on-disk map still points at.
func (u *ULD) freeSlotDeferred(s int) {
	if s >= 0 {
		u.pendingFree = append(u.pendingFree, s)
	}
}

func (u *ULD) drainPendingFree() {
	for _, s := range u.pendingFree {
		u.freeSlotNow(s)
	}
	u.pendingFree = u.pendingFree[:0]
}
