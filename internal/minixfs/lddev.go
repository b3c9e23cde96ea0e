package minixfs

import (
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
	noReadahead  bool
	hints        ld.ListHints

	lastStatic ld.BlockID // predecessor for sequential static allocation
	firstStat  Handle

	// reserved tracks allocated-but-unwritten data blocks backed by an LD
	// space reservation, the paper's answer to UNIX write calls that must
	// not fail for lack of disk space (§2.2). The reservation is released
	// by the block's first write (which claims real space) or by its free.
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
	// NoReadahead reads one block per LD request, in file order, as the
	// paper's MINIX LLD did (§4.1) — the construction of the paper's rows
	// in Tables 4 and 5. Without it a miss is one ld.ReadBlocks.
	NoReadahead bool
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
// The metadata list is by construction the first list in the list of lists.
func OpenLD(l ld.Disk, blockSize int, cfg LDConfig) (*LDBackend, error) {
	b := newLDBackend(l, blockSize, cfg)
	lists, err := l.Lists()
	if err != nil {
		return nil, err
	}
	if len(lists) == 0 {
		return nil, fmt.Errorf("minixfs: LD holds no lists; not a MINIX LLD volume")
	}
	b.metaList = lists[0]
	if !cfg.PerFileLists {
		if len(lists) < 2 {
			return nil, fmt.Errorf("minixfs: LD missing shared data list")
		}
		b.dataList = lists[1]
	}
	// Static blocks were the first allocations on the metadata list.
	blocks, err := l.ListBlocks(b.metaList)
	if err != nil {
		return nil, err
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("minixfs: metadata list is empty")
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
		noReadahead:  cfg.NoReadahead,
		hints:        cfg.Hints,
		reserved:     make(map[Handle]bool),
	}
}

// BlockSize implements Backend.
func (b *LDBackend) BlockSize() int { return b.blockSize }

// AllocStatic implements Backend: consecutive NewBlock calls on a fresh LD
// return consecutive logical numbers, giving the file system a fixed,
// location-independent metadata layout (logical numbers never change even
// when LD reorganizes the disk).
func (b *LDBackend) AllocStatic(n int) (Handle, error) {
	var first Handle
	for i := 0; i < n; i++ {
		bid, err := b.l.NewBlock(b.metaList, b.lastStatic)
		if err != nil {
			return NilHandle, err
		}
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
	if b.reserved[h] {
		delete(b.reserved, h)
		b.l.CancelReservation(1)
	}
	return b.l.DeleteBlock(ld.BlockID(h), target, ld.BlockID(predHint))
}

// ReadBlock implements Backend. Blocks never written read as zeros.
func (b *LDBackend) ReadBlock(h Handle, p []byte) error {
	n, err := b.l.Read(ld.BlockID(h), p)
	if err != nil {
		return err
	}
	for i := n; i < len(p); i++ {
		p[i] = 0
	}
	return nil
}

// WriteBlock implements Backend. Multiple block sizes are native to LD, so
// a 64-byte i-node block costs 64 bytes of log, not a full block. The first
// write of a reserved block trades its reservation for real space.
func (b *LDBackend) WriteBlock(h Handle, p []byte) error {
	if b.reserved[h] {
		delete(b.reserved, h)
		b.l.CancelReservation(1)
	}
	return b.l.Write(ld.BlockID(h), p)
}

// NewFileList implements Backend. A zero predecessor clusters the new list
// after the metadata list, which also preserves the invariant that the
// metadata list stays first in the list of lists (OpenLD relies on it).
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
			if b.reserved[Handle(bid)] {
				delete(b.reserved, Handle(bid))
				b.l.CancelReservation(1)
			}
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

// ldWindow is how many blocks, counted from the missed one, a miss on a
// file being read in order fetches: 128 KB, four tracks of the paper's
// disk and 2 % of its cache. EXPERIMENTS.md has the sweep behind it.
const ldWindow = 32

// BatchWindow implements Backend. The paper disabled MINIX's read-ahead
// because blocks that MINIX thinks are contiguous may not be physically
// contiguous under LD (§4.1); a batch handed to LD is read where the blocks
// really are. Only sequential access reads ahead, so random reads fetch
// what they asked for and nothing else.
func (b *LDBackend) BatchWindow(sequential bool) int {
	switch {
	case b.noReadahead:
		return 0
	case sequential:
		return ldWindow
	}
	return 1
}

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
