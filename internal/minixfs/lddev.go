package minixfs

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ld"
)

// LDBackend delegates disk management to a Logical Disk (paper §4.1):
// blocks are addressed by logical block numbers, allocation goes through
// NewBlock with list and predecessor hints, there is no zone bitmap, and
// sync becomes an LD Flush. Handle == ld.BlockID.
type LDBackend struct {
	l ld.Disk
	// now supplies mtimes; LD itself has no clock.
	now func() uint32

	blockSize int

	metaList ld.ListID // static metadata and, without per-file lists, all data
	dataList ld.ListID // shared data list when per-file lists are off

	perFileLists bool
	wholeBlockIO bool
	hints        ld.ListHints

	lastStatic ld.BlockID // predecessor for sequential static allocation
	firstStat  Handle

	// reserved tracks the blocks backed by a one-block LD space
	// reservation, the paper's answer to UNIX write calls that must not
	// fail for lack of disk space (§2.2): a block allocated and not yet
	// written, and a block whose last write stored less than it was handed
	// (WriteBlock keeps the invariant). Freeing the block releases it. The
	// map is volatile: after a remount nothing is reserved until a block's
	// next write.
	reserved map[Handle]bool
}

// LDConfig configures an LDBackend.
type LDConfig struct {
	// PerFileLists allocates one LD list per file (the paper's refined
	// MINIX LLD); otherwise a single list holds all file data (the
	// initial version).
	PerFileLists bool
	// Hints are applied to created lists (clustering, compression).
	Hints ld.ListHints
	// Now supplies a seconds clock for mtimes; nil falls back to a counter.
	Now func() uint32
	// WholeBlockIO is MINIX LLD as the paper built it (§4.1), one whole
	// block per LD request in both directions — the construction of the
	// paper's rows in every table. Without it a write stores a block only
	// up to its last non-zero sector and a read miss is one ld.ReadBlocks.
	WholeBlockIO bool
}

// FormatLD prepares a fresh Logical Disk for use as a MINIX backend: it
// creates the metadata list (and the shared data list when per-file lists
// are disabled).
func FormatLD(l ld.Disk, blockSize int, cfg LDConfig) (*LDBackend, error) {
	if blockSize > l.MaxBlockSize() {
		return nil, fmt.Errorf("minixfs: block size %d exceeds LD maximum %d", blockSize, l.MaxBlockSize())
	}
	b := newLDBackend(l, blockSize, cfg)
	var err error
	b.metaList, err = l.NewList(ld.NilList, ld.ListHints{Cluster: true})
	if err != nil {
		return nil, err
	}
	if !cfg.PerFileLists {
		b.dataList, err = l.NewList(b.metaList, cfg.Hints)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// OpenLD attaches to a Logical Disk previously formatted with FormatLD.
// The metadata list is the first list, in list-of-lists order, whose first
// block holds the superblock magic: another file system sharing the LD
// (the paper's Figure 1) may have put its lists in front of it. Without
// per-file lists the data list is the one FormatLD created right after it.
func OpenLD(l ld.Disk, blockSize int, cfg LDConfig) (*LDBackend, error) {
	b := newLDBackend(l, blockSize, cfg)
	lists, err := l.Lists()
	if err != nil {
		return nil, err
	}
	meta := -1
	var blocks []ld.BlockID // the metadata list's; static blocks were its first allocations
	buf := make([]byte, l.MaxBlockSize())
	for i, lid := range lists {
		if blocks, err = l.ListBlocks(lid); err != nil {
			return nil, err
		}
		if len(blocks) == 0 {
			continue
		}
		if err := b.ReadBlock(Handle(blocks[0]), buf); err != nil {
			return nil, err
		}
		if le32(buf) == fsMagic {
			meta = i
			break
		}
	}
	if meta < 0 {
		return nil, fmt.Errorf("minixfs: no LD list starts with a MINIX superblock; not a MINIX LLD volume")
	}
	b.metaList = lists[meta]
	if !cfg.PerFileLists {
		if meta+1 >= len(lists) {
			return nil, fmt.Errorf("minixfs: LD missing shared data list")
		}
		b.dataList = lists[meta+1]
	}
	b.firstStat = Handle(blocks[0])
	b.lastStatic = blocks[len(blocks)-1]
	return b, nil
}

func newLDBackend(l ld.Disk, blockSize int, cfg LDConfig) *LDBackend {
	now := cfg.Now
	if now == nil {
		var tick uint32
		now = func() uint32 { tick++; return tick }
	}
	return &LDBackend{
		l:            l,
		now:          now,
		blockSize:    blockSize,
		perFileLists: cfg.PerFileLists,
		wholeBlockIO: cfg.WholeBlockIO,
		hints:        cfg.Hints,
		reserved:     make(map[Handle]bool),
	}
}

// BlockSize implements Backend.
func (b *LDBackend) BlockSize() int { return b.blockSize }

// AllocStatic implements Backend: consecutive NewBlock calls on a fresh LD
// return consecutive logical numbers, giving the file system a fixed,
// location-independent metadata layout (logical numbers never change even
// when LD reorganizes the disk). Each block is reserved as Alloc reserves a
// data block: most of the i-node table is first written long after mkfs,
// and that write must not fail for lack of space either (§2.2).
func (b *LDBackend) AllocStatic(n int) (Handle, error) {
	var first Handle
	for i := 0; i < n; i++ {
		if err := b.l.Reserve(1); err != nil {
			return NilHandle, err
		}
		bid, err := b.l.NewBlock(b.metaList, b.lastStatic)
		if err != nil {
			b.l.CancelReservation(1)
			return NilHandle, err
		}
		b.reserved[Handle(bid)] = true
		if i == 0 {
			first = Handle(bid)
		}
		b.lastStatic = bid
	}
	b.firstStat = first
	return first, nil
}

// FirstStatic implements Backend.
func (b *LDBackend) FirstStatic() Handle { return b.firstStat }

// Alloc implements Backend.
func (b *LDBackend) Alloc(list uint32, pred Handle) (Handle, error) {
	target := ld.ListID(list)
	if target == ld.NilList {
		if b.perFileLists {
			return NilHandle, fmt.Errorf("minixfs: per-file lists enabled but no list given")
		}
		target = b.dataList
	}
	// Reserve physical space so the eventual write cannot fail (§2.2).
	if err := b.l.Reserve(1); err != nil {
		return NilHandle, err
	}
	bid, err := b.l.NewBlock(target, ld.BlockID(pred))
	if err != nil && (errors.Is(err, ld.ErrBadBlock) || errors.Is(err, ld.ErrNotInList)) {
		// The predecessor is only a placement hint from the file system's
		// point of view; a stale one degrades to head insertion.
		bid, err = b.l.NewBlock(target, ld.NilBlock)
	}
	if err != nil {
		b.l.CancelReservation(1)
		return NilHandle, err
	}
	b.reserved[Handle(bid)] = true
	return Handle(bid), nil
}

// Free implements Backend.
func (b *LDBackend) Free(h Handle, list uint32, predHint Handle) error {
	target := ld.ListID(list)
	if target == ld.NilList {
		if b.perFileLists {
			return fmt.Errorf("minixfs: per-file lists enabled but no list given")
		}
		target = b.dataList
	}
	b.release(h)
	return b.l.DeleteBlock(ld.BlockID(h), target, ld.BlockID(predHint))
}

// ReadBlock implements Backend. Blocks never written read as zeros. A miss
// is a one-block ReadBlocks, so every read of a file system on LD reaches
// LD's batch path and its read-ahead along the log (paper §2: only LD knows
// that the next small file lies right after this one); WholeBlockIO keeps
// the paper's single-block Read.
func (b *LDBackend) ReadBlock(h Handle, p []byte) error {
	if !b.wholeBlockIO {
		return b.ReadBlocks([]Handle{h}, [][]byte{p})[0]
	}
	n, err := b.l.Read(ld.BlockID(h), p)
	if err != nil {
		return err
	}
	clear(p[n:])
	return nil
}

// shortQuantum is the unit a stored block is trimmed to: the sector of
// every disk this repository models, the MINIX-on-LD analogue of an FFS
// fragment. A block that is a whole number of sectors starts on a sector
// boundary in the log, so reading it drags in no neighbour's sector and a
// pass in log order keeps hitting the drive's read buffer.
const shortQuantum = 512

// storedLen is how much of p goes to LD: up to the last non-zero byte,
// rounded up to shortQuantum. Reads zero-fill the rest. A buffer below the
// quantum (a 64-byte i-node block) has nothing to trim.
func (b *LDBackend) storedLen(p []byte) int {
	if b.wholeBlockIO || len(p) < shortQuantum {
		return len(p)
	}
	n := len(p)
	for n >= 8 && binary.LittleEndian.Uint64(p[n-8:]) == 0 {
		n -= 8 // a word at a time: most of a small file's block is tail
	}
	for n > 0 && p[n-1] == 0 {
		n--
	}
	return min((n+shortQuantum-1)/shortQuantum*shortQuantum, len(p))
}

// WriteBlock implements Backend. Multiple block sizes are native to LD
// (§2.1), so a block costs the log what it holds: a 1-KB file two sectors,
// a 64-byte i-node block 64 bytes. No later write of h may be refused for
// lack of space (§2.2), so after every write h either occupies all of
// len(p) or holds a one-block reservation. The reservation h came with
// backs this write, which therefore cannot be refused; a short write then
// takes one again, and if LD will not grant it the block is written whole,
// which claims the space — or fails — now rather than at some later sync.
func (b *LDBackend) WriteBlock(h Handle, p []byte) error {
	b.release(h)
	n := b.storedLen(p)
	if err := b.l.Write(ld.BlockID(h), p[:n]); err != nil || n == len(p) {
		return err
	}
	if b.l.Reserve(1) != nil {
		return b.l.Write(ld.BlockID(h), p)
	}
	b.reserved[h] = true
	return nil
}

// release gives back the reservation h holds, if any.
func (b *LDBackend) release(h Handle) {
	if b.reserved[h] {
		delete(b.reserved, h)
		b.l.CancelReservation(1)
	}
}

// NewFileList implements Backend. A zero predecessor clusters the new list
// after the metadata list, so no file's list comes before it in the list of
// lists.
func (b *LDBackend) NewFileList(pred uint32) (uint32, error) {
	if !b.perFileLists {
		return 0, nil
	}
	p := ld.ListID(pred)
	if p == ld.NilList {
		p = b.metaList
	}
	lid, err := b.l.NewList(p, b.hints)
	if err != nil {
		return 0, err
	}
	return uint32(lid), nil
}

// DeleteFileList implements Backend.
func (b *LDBackend) DeleteFileList(list uint32) error {
	if !b.perFileLists || list == 0 {
		return nil
	}
	// Any reserved (never-written) blocks on the list release their
	// reservations with the list.
	blocks, err := b.l.ListBlocks(ld.ListID(list))
	if err == nil {
		for _, bid := range blocks {
			b.release(Handle(bid))
		}
	}
	return b.l.DeleteList(ld.ListID(list), ld.NilList)
}

// Flush implements Backend: the paper's sync — "upon a sync MINIX tells LD
// to flush the segment that is currently being filled".
func (b *LDBackend) Flush() error { return b.l.Flush(ld.FailPower) }

// ReadBlocks implements Backend with one ld.ReadBlocks: LD, not MINIX, knows
// where the blocks are, so a log-structured disk reads them in platter
// order, one request per extent, a remote disk spends one round trip, and
// a disk with no batch path degrades to one Read per block.
func (b *LDBackend) ReadBlocks(hs []Handle, bufs [][]byte) []error {
	ids := make([]ld.BlockID, len(hs))
	for i, h := range hs {
		ids[i] = ld.BlockID(h)
	}
	errs := make([]error, len(hs))
	res, err := ld.ReadBlocks(b.l, ids, bufs)
	for i := range errs {
		if err != nil {
			errs[i] = err
			continue
		}
		errs[i] = res[i].Err
		clear(bufs[i][res[i].N:])
	}
	return errs
}

// ldWindow is how many blocks, counted from the missed one, a miss fetches
// when its handle reads in order: 128 KB, four tracks of the paper's disk
// and 2 % of its cache. EXPERIMENTS.md has the sweep behind it. Once the
// run read in order is longer, the window is as long as the run, so it
// doubles batch by batch up to fetch's quarter-of-the-cache cap.
//
// lld reads ahead too, along the platter, but it cannot stand in for this
// window: its read-ahead follows the log, and a randomly rewritten file
// lies along the log in ascending runs (WriteBackInFileOrder), not in one
// stretch. One batch still reaches the runs it spans, a request per extent,
// in the order the platter serves soonest.
// `bench/run.sh --workload fs-large --seed 1 --seconds 15 --trace 0`
// (virtual clock) read at 930.1 KB/s and ran 150.4 op/s; with BatchWindow
// returning 1 at every run 642.4 KB/s and 111.7 op/s, with a flat
// ldWindow 765.4 KB/s.
const ldWindow = 32

// BatchWindow implements Backend. The paper disabled MINIX's read-ahead
// because blocks that MINIX thinks are contiguous may not be physically
// contiguous under LD (§4.1); a batch handed to LD is read where the blocks
// really are. Only a handle reading in order reads ahead, as far as it has
// read in order and at least ldWindow blocks, so random reads fetch what
// they asked for and nothing else.
func (b *LDBackend) BatchWindow(run int) int {
	switch {
	case b.wholeBlockIO:
		return 0
	case run > 0:
		return max(ldWindow, run)
	}
	return 1
}

// WriteBackInFileOrder implements Backend. LD logs blocks in the order they
// are written, so a file rewritten at random and written back as LRU evicts
// it lies scattered along the log, and reading it in order again costs a
// short request every few blocks (paper Table 5's re-read). Written back in file
// order, such a file reaches LD in ascending runs, which a batched read then
// fetches in a few long requests. WholeBlockIO keeps the paper's per-block
// write-back.
func (b *LDBackend) WriteBackInFileOrder() bool { return !b.wholeBlockIO }

// BlockAt implements Backend via LD offset addressing (paper §5.4).
func (b *LDBackend) BlockAt(list uint32, idx int) (Handle, error) {
	bid, err := b.l.ListIndex(ld.ListID(list), idx)
	if err != nil {
		return NilHandle, err
	}
	return Handle(bid), nil
}

// BeginARU implements Backend.
func (b *LDBackend) BeginARU() error { return b.l.BeginARU() }

// EndARU implements Backend.
func (b *LDBackend) EndARU() error { return b.l.EndARU() }

// Now implements Backend.
func (b *LDBackend) Now() uint32 { return b.now() }

// MetaList exposes the metadata list id, for tools.
func (b *LDBackend) MetaList() ld.ListID { return b.metaList }
