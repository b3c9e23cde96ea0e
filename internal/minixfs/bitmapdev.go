package minixfs

import (
	"fmt"

	"repro/internal/disk"
)

// BitmapBackend is the classic MINIX disk management: a zone bitmap on a
// raw disk and an allocate-near-previous policy ("when it allocates a block
// for a file, it allocates it close to the previous allocated block for
// that file", paper §4.1). Zone 0 holds the backend superblock, the bitmap
// follows, and data zones fill the rest; handle == zone number, so zone 0
// doubles as the nil handle.
type BitmapBackend struct {
	d         *disk.Disk
	blockSize int
	nZones    int
	bmBlocks  int // bitmap blocks, starting at zone 1
	firstData int

	bitmap      []byte
	dirtyBitmap map[int]bool // bitmap block index -> dirty
	freeZones   int

	staticNext int // next zone for AllocStatic during mkfs
	staticDone bool
	firstStat  Handle
}

const bitmapMagic = 0x4D465342 // "MFSB"

// FormatBitmap initializes the backend's structures on a raw disk and
// returns the backend.
func FormatBitmap(d *disk.Disk, blockSize int) (*BitmapBackend, error) {
	b, err := bitmapGeometry(d, blockSize)
	if err != nil {
		return nil, err
	}
	// Zero the bitmap region and mark the metadata zones used.
	for z := 0; z < b.firstData; z++ {
		b.setUsed(z)
	}
	// Mark the tail zones that do not exist (bitmap covers whole blocks).
	for z := b.nZones; z < b.bmBlocks*8*blockSize; z++ {
		b.setUsedRaw(z)
	}
	b.staticNext = b.firstData
	if err := b.writeSuper(); err != nil {
		return nil, err
	}
	if err := b.flushBitmap(); err != nil {
		return nil, err
	}
	return b, nil
}

// OpenBitmap attaches to a previously formatted disk.
func OpenBitmap(d *disk.Disk, blockSize int) (*BitmapBackend, error) {
	b, err := bitmapGeometry(d, blockSize)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, blockSize)
	if err := d.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	if le32(buf[0:]) != bitmapMagic {
		return nil, fmt.Errorf("minixfs: not a bitmap-backend disk")
	}
	if int(le32(buf[4:])) != blockSize {
		return nil, fmt.Errorf("minixfs: block size mismatch: disk has %d", le32(buf[4:]))
	}
	b.firstStat = Handle(le32(buf[8:]))
	b.staticDone = b.firstStat != 0
	// Load the bitmap.
	for i := 0; i < b.bmBlocks; i++ {
		if err := d.ReadAt(b.bitmap[i*blockSize:(i+1)*blockSize], int64((1+i)*blockSize)); err != nil {
			return nil, err
		}
	}
	b.freeZones = 0
	for z := b.firstData; z < b.nZones; z++ {
		if !b.used(z) {
			b.freeZones++
		}
	}
	return b, nil
}

func bitmapGeometry(d *disk.Disk, blockSize int) (*BitmapBackend, error) {
	if blockSize <= 0 || blockSize%d.SectorSize() != 0 {
		return nil, fmt.Errorf("minixfs: block size %d not a multiple of sector size", blockSize)
	}
	nZones := int(d.Capacity() / int64(blockSize))
	if nZones < 16 {
		return nil, fmt.Errorf("minixfs: disk too small: %d zones", nZones)
	}
	bmBlocks := (nZones + 8*blockSize - 1) / (8 * blockSize)
	b := &BitmapBackend{
		d:           d,
		blockSize:   blockSize,
		nZones:      nZones,
		bmBlocks:    bmBlocks,
		firstData:   1 + bmBlocks,
		bitmap:      make([]byte, bmBlocks*blockSize),
		dirtyBitmap: make(map[int]bool),
	}
	b.freeZones = nZones - b.firstData
	return b, nil
}

func (b *BitmapBackend) used(z int) bool  { return b.bitmap[z/8]&(1<<(z%8)) != 0 }
func (b *BitmapBackend) setUsedRaw(z int) { b.bitmap[z/8] |= 1 << (z % 8) }
func (b *BitmapBackend) setUsed(z int) {
	b.setUsedRaw(z)
	b.dirtyBitmap[z/(8*b.blockSize)] = true
}
func (b *BitmapBackend) setFree(z int) {
	b.bitmap[z/8] &^= 1 << (z % 8)
	b.dirtyBitmap[z/(8*b.blockSize)] = true
}

func (b *BitmapBackend) writeSuper() error {
	buf := make([]byte, b.blockSize)
	put32(buf[0:], bitmapMagic)
	put32(buf[4:], uint32(b.blockSize))
	put32(buf[8:], uint32(b.firstStat))
	return b.d.WriteAt(buf, 0)
}

func (b *BitmapBackend) flushBitmap() error {
	for i := range b.dirtyBitmap {
		off := int64((1 + i) * b.blockSize)
		if err := b.d.WriteAt(b.bitmap[i*b.blockSize:(i+1)*b.blockSize], off); err != nil {
			return err
		}
	}
	b.dirtyBitmap = make(map[int]bool)
	return nil
}

// BlockSize implements Backend.
func (b *BitmapBackend) BlockSize() int { return b.blockSize }

// AllocStatic implements Backend.
func (b *BitmapBackend) AllocStatic(n int) (Handle, error) {
	if b.staticDone {
		return NilHandle, fmt.Errorf("minixfs: static region already allocated")
	}
	if b.staticNext+n > b.nZones {
		return NilHandle, ErrBackendFull
	}
	first := Handle(b.staticNext)
	for i := 0; i < n; i++ {
		b.setUsed(b.staticNext)
		b.staticNext++
		b.freeZones--
	}
	b.staticDone = true
	b.firstStat = first
	if err := b.writeSuper(); err != nil {
		return NilHandle, err
	}
	return first, nil
}

// FirstStatic implements Backend.
func (b *BitmapBackend) FirstStatic() Handle { return b.firstStat }

// Alloc implements Backend: first fit scanning forward from the locality
// hint, wrapping around; this is MINIX's allocate-near-previous policy.
func (b *BitmapBackend) Alloc(list uint32, pred Handle) (Handle, error) {
	if b.freeZones == 0 {
		return NilHandle, ErrBackendFull
	}
	start := int(pred) + 1
	if start < b.firstData || start >= b.nZones {
		start = b.firstData
	}
	for i := 0; i < b.nZones-b.firstData; i++ {
		z := start + i
		if z >= b.nZones {
			z = b.firstData + (z - b.nZones)
		}
		if !b.used(z) {
			b.setUsed(z)
			b.freeZones--
			return Handle(z), nil
		}
	}
	return NilHandle, ErrBackendFull
}

// Free implements Backend.
func (b *BitmapBackend) Free(h Handle, list uint32, predHint Handle) error {
	z := int(h)
	if z < b.firstData || z >= b.nZones {
		return fmt.Errorf("%w: zone %d", ErrBadHandle, z)
	}
	if !b.used(z) {
		return fmt.Errorf("%w: zone %d already free", ErrBadHandle, z)
	}
	b.setFree(z)
	b.freeZones++
	return nil
}

// ReadBlock implements Backend.
func (b *BitmapBackend) ReadBlock(h Handle, p []byte) error {
	if int(h) >= b.nZones || len(p) > b.blockSize {
		return fmt.Errorf("%w: read zone %d len %d", ErrBadHandle, h, len(p))
	}
	if len(p) == b.blockSize {
		return b.d.ReadAt(p, int64(h)*int64(b.blockSize))
	}
	// Sub-block read: read the covering sectors.
	ss := b.d.SectorSize()
	span := (len(p) + ss - 1) / ss * ss
	buf := make([]byte, span)
	if err := b.d.ReadAt(buf, int64(h)*int64(b.blockSize)); err != nil {
		return err
	}
	copy(p, buf)
	return nil
}

// WriteBlock implements Backend.
func (b *BitmapBackend) WriteBlock(h Handle, p []byte) error {
	if int(h) >= b.nZones || len(p) > b.blockSize {
		return fmt.Errorf("%w: write zone %d len %d", ErrBadHandle, h, len(p))
	}
	if len(p) == b.blockSize {
		return b.d.WriteAt(p, int64(h)*int64(b.blockSize))
	}
	// Sub-block write: read-modify-write the covering sectors.
	ss := b.d.SectorSize()
	span := (len(p) + ss - 1) / ss * ss
	buf := make([]byte, span)
	if err := b.d.ReadAt(buf, int64(h)*int64(b.blockSize)); err != nil {
		return err
	}
	copy(buf, p)
	return b.d.WriteAt(buf, int64(h)*int64(b.blockSize))
}

// ReadBlocks implements Backend: physically consecutive zones become one
// disk request — the contiguity that makes MINIX read-ahead effective.
func (b *BitmapBackend) ReadBlocks(hs []Handle, bufs [][]byte) []error {
	errs := make([]error, len(hs))
	bs := b.blockSize
	for i, j := 0, 0; i < len(hs); i = j {
		for j = i + 1; j < len(hs) && hs[j] == hs[j-1]+1; j++ {
		}
		if j == i+1 {
			errs[i] = b.ReadBlock(hs[i], bufs[i])
			continue
		}
		var err error
		run := make([]byte, (j-i)*bs)
		if int(hs[j-1]) >= b.nZones {
			err = fmt.Errorf("%w: run %d+%d", ErrBadHandle, hs[i], j-i)
		} else {
			err = b.d.ReadAt(run, int64(hs[i])*int64(bs))
		}
		for k := i; k < j; k++ {
			errs[k] = err
			copy(bufs[k], run[(k-i)*bs:(k-i+1)*bs])
		}
	}
	return errs
}

// bitmapWindow is MINIX's own read-ahead: every miss reads the missed
// block and the seven after it, sequential or not (paper §4.2: "MINIX's
// read-ahead strategy fails" on random reads). These are the paper's
// baseline rows.
const bitmapWindow = 8

// BatchWindow implements Backend.
func (b *BitmapBackend) BatchWindow(run int) int { return bitmapWindow }

// WriteBackInFileOrder implements Backend: MINIX updates blocks in place,
// so the order they are written in does not decide where they lie.
func (b *BitmapBackend) WriteBackInFileOrder() bool { return false }

// NewFileList implements Backend: the bitmap backend has no lists.
func (b *BitmapBackend) NewFileList(pred uint32) (uint32, error) { return 0, nil }

// DeleteFileList implements Backend.
func (b *BitmapBackend) DeleteFileList(list uint32) error { return nil }

// Flush implements Backend: persists the zone bitmap. Data blocks reach the
// disk synchronously through WriteBlock (the buffer cache above provides
// the write-behind).
func (b *BitmapBackend) Flush() error { return b.flushBitmap() }

// BlockAt implements Backend: the bitmap backend has no lists.
func (b *BitmapBackend) BlockAt(list uint32, idx int) (Handle, error) {
	return NilHandle, fmt.Errorf("%w: offset addressing needs an LD backend", ErrBadHandle)
}

// BeginARU implements Backend: the raw disk has no recovery units.
func (b *BitmapBackend) BeginARU() error { return nil }

// EndARU implements Backend.
func (b *BitmapBackend) EndARU() error { return nil }

// Now implements Backend.
func (b *BitmapBackend) Now() uint32 { return uint32(b.d.Now().Seconds()) }

// FreeZones reports the number of free data zones, for tests.
func (b *BitmapBackend) FreeZones() int { return b.freeZones }

// little-endian helpers shared by the package.
func le32(p []byte) uint32 {
	return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
}

func put32(p []byte, v uint32) {
	p[0] = byte(v)
	p[1] = byte(v >> 8)
	p[2] = byte(v >> 16)
	p[3] = byte(v >> 24)
}

func le16(p []byte) uint16 { return uint16(p[0]) | uint16(p[1])<<8 }

func put16(p []byte, v uint16) {
	p[0] = byte(v)
	p[1] = byte(v >> 8)
}
