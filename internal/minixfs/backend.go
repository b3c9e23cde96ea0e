// Package minixfs implements a MINIX-style file system (Tanenbaum 1987) —
// i-nodes with direct, indirect and double-indirect zones, linear
// directories, and a fixed-size buffer cache — with two interchangeable
// disk-management backends:
//
//   - BitmapBackend: the classic organization on a raw disk, with a zone
//     bitmap and allocate-near-previous policy ("MINIX" in the paper's
//     tables);
//   - LDBackend: disk management delegated to a Logical Disk via logical
//     block numbers and per-file block lists ("MINIX LLD").
//
// The delta between the two backends mirrors the paper's Section 4.1: with
// LD the file system stops tracking free disk space for data blocks, stores
// a list identifier in each i-node, allocates blocks with NewBlock (list
// and predecessor hints), and turns sync into an LD Flush.
//
// Reads have one fetch path on both backends: a miss in ReadAt hands the
// blocks the call still needs, and on the backend's say-so the file's next
// blocks, to Backend.ReadBlocks in one batch. The bitmap backend coalesces
// consecutive zones into one request each and reads ahead on every miss,
// as MINIX does. The paper switched read-ahead off for MINIX LLD, "because
// blocks that MINIX thinks are contiguous may not be" (§4.1); here the
// batch goes to LD, which knows where the blocks are and reads them in the
// order its disk serves soonest, and only a file being read in order is
// read ahead, as far as it has been read in order. A
// directory kept on an LD list of its own is scanned through the same path.
// On LD a single-block read (an i-node block, a superblock) is a one-block
// batch too, so every read reaches LD's read-ahead along the log.
//
// Writes on LD use the interface's multiple block sizes (§2.1): a cache
// block is stored only up to its last non-zero sector, and holds a one-block
// space reservation until it is written whole (LDBackend.WriteBlock).
// LDConfig.WholeBlockIO restores the paper's one whole block per request,
// in both directions. The buffer cache writes a file's dirty blocks back in
// file order on LD (Backend.WriteBackInFileOrder), so a file rewritten at
// random reaches the log in ascending runs; WholeBlockIO and the bitmap
// backend keep per-block LRU write-back.
package minixfs

import "errors"

// Handle names a disk block as seen by the file system: a physical zone
// number on the bitmap backend, a logical block number on LD.
type Handle = uint32

// NilHandle is the invalid block handle.
const NilHandle Handle = 0

// Errors specific to backends.
var (
	ErrBackendFull = errors.New("minixfs: backend out of blocks")
	ErrBadHandle   = errors.New("minixfs: invalid block handle")
)

// Backend abstracts disk management. The file system performs all I/O in
// whole blocks through it, via the buffer cache.
type Backend interface {
	// BlockSize returns the data block size in bytes.
	BlockSize() int

	// AllocStatic allocates n blocks with consecutive handles for the file
	// system's fixed metadata (superblock, i-node bitmap, i-node table).
	// It may only be called during mkfs, before any Alloc.
	AllocStatic(n int) (first Handle, err error)

	// FirstStatic returns the handle of the first static block, for
	// attaching to an existing file system.
	FirstStatic() Handle

	// Alloc allocates one block. list selects the per-file block list (LD
	// backend; 0 means the shared list) and pred is the predecessor /
	// locality hint.
	Alloc(list uint32, pred Handle) (Handle, error)

	// Free releases a block. predHint mirrors the paper's DeleteBlock hint.
	Free(h Handle, list uint32, predHint Handle) error

	// ReadBlock fills p (len(p) <= BlockSize) from block h. Bytes never
	// written read as zero.
	ReadBlock(h Handle, p []byte) error

	// WriteBlock stores p (len(p) <= BlockSize) as the contents of h.
	WriteBlock(h Handle, p []byte) error

	// NewFileList creates a per-file block list and returns its id, or 0
	// if the backend does not support lists (bitmap backend).
	NewFileList(pred uint32) (uint32, error)

	// DeleteFileList drops a per-file list (and any blocks still on it).
	DeleteFileList(list uint32) error

	// Flush makes all completed writes durable (LD Flush / raw-disk sync).
	Flush() error

	// ReadBlocks fills bufs[i] from block hs[i] as ReadBlock would, in as
	// few device requests as the backend can manage, and returns each
	// block's error in errs[i]. One bad block fails only its own entry.
	ReadBlocks(hs []Handle, bufs [][]byte) (errs []error)

	// BatchWindow is the backend's read policy. 0: a miss reads its one
	// block with ReadBlock. n > 0: a miss hands ReadBlocks every block
	// the call still demands and, past them, the file's next blocks up
	// to n counted from the missed one. run is how far the handle's reading
	// in order has come, in blocks, the missed one included; 0 says the
	// call does not continue where the handle's previous one ended.
	BatchWindow(run int) int

	// WriteBackInFileOrder is the backend's write-back policy. false: the
	// cache writes each dirty block as LRU evicts it. true: evicting a
	// file's data block first writes the file's dirty blocks before it,
	// lowest index first.
	WriteBackInFileOrder() bool

	// BlockAt resolves the idx-th block of a per-file list — offset
	// addressing (paper §5.4), which lets a file system do without
	// indirect blocks entirely. Backends without lists return ErrBadHandle.
	BlockAt(list uint32, idx int) (Handle, error)

	// BeginARU and EndARU bracket an atomic recovery unit (LD backends);
	// the bitmap backend has no recovery units and treats them as no-ops.
	BeginARU() error
	EndARU() error

	// Now returns a low-resolution clock for mtimes, in seconds.
	Now() uint32
}
