// Package ld defines the Logical Disk interface — the primary contribution
// of "The Logical Disk: A New Approach to Improving File Systems"
// (de Jonge, Kaashoek, Hsieh; SOSP 1993).
//
// The Logical Disk (LD) separates file management from disk management.
// File systems address blocks by logical block number; LD owns the physical
// layout and may move blocks at will, updating its block-number map. The
// interface supports four abstractions:
//
//   - logical block numbers: location-independent names for blocks;
//   - block lists: ordered lists of blocks (and a list of lists) that let a
//     file system express logical relationships, which LD uses for physical
//     clustering;
//   - atomic recovery units (ARUs): groups of commands that recover
//     all-or-nothing;
//   - multiple block sizes: blocks may be any size from one byte up to the
//     implementation's maximum, supporting small i-node blocks and
//     transparent compression.
//
// The methods of the Disk interface mirror Table 1 of the paper, plus the
// auxiliary primitives described in Section 2.2 (space reservation, moving
// sublists and lists, flushing a list) and the SwapContents and offset
// addressing extensions sketched in Section 5.4.
package ld

import "errors"

// BlockID names a logical block. The zero value, NilBlock, is never a valid
// block; as a predecessor argument it means "at the beginning of the list".
type BlockID uint32

// NilBlock is the reserved invalid block number. Passing it as a
// predecessor inserts at the beginning of a list.
const NilBlock BlockID = 0

// ListID names a block list. The zero value, NilList, is never a valid
// list; as a predecessor argument it means "at the beginning of the list of
// lists".
type ListID uint32

// NilList is the reserved invalid list identifier. Passing it as a
// predecessor inserts at the beginning of the list of lists.
const NilList ListID = 0

// ListHints carries the per-list policy hints from the paper's NewList
// call: whether the blocks in the list should be physically clustered,
// whether they should be compressed, and whether the list itself should be
// placed near its predecessor in the list of lists (inter-list clustering).
type ListHints struct {
	Cluster         bool // cluster the blocks of this list together
	Compress        bool // transparently compress the blocks of this list
	ClusterWithPred bool // place this list near its predecessor
}

// FailureSet names the classes of failure a Flush must survive, following
// the paper's Flush(FailureSet) signature. The prototype distinguishes only
// power/crash failures; media failures are out of scope, as in the paper.
type FailureSet uint32

// Failure classes for Flush.
const (
	// FailNone requests no durability; Flush is then a no-op.
	FailNone FailureSet = 0
	// FailPower requests survival of power failures and crashes.
	FailPower FailureSet = 1 << iota
)

// Errors returned by Logical Disk implementations.
var (
	// ErrNoSpace indicates the disk is out of space (or out of logical
	// block numbers, or a reservation could not be honored).
	ErrNoSpace = errors.New("ld: no space")
	// ErrBadBlock indicates an invalid or unallocated logical block number.
	ErrBadBlock = errors.New("ld: invalid block number")
	// ErrBadList indicates an invalid or unallocated list identifier.
	ErrBadList = errors.New("ld: invalid list identifier")
	// ErrNotInList indicates the named block is not on the named list.
	ErrNotInList = errors.New("ld: block not in list")
	// ErrTooLarge indicates a write larger than the maximum block size.
	ErrTooLarge = errors.New("ld: block data too large")
	// ErrARUOpen indicates BeginARU was called while an ARU is open; the
	// prototype interface does not support concurrent ARUs (paper §2.2).
	ErrARUOpen = errors.New("ld: atomic recovery unit already open")
	// ErrNoARU indicates EndARU was called without a matching BeginARU.
	ErrNoARU = errors.New("ld: no atomic recovery unit open")
	// ErrShutdown indicates the logical disk has been shut down.
	ErrShutdown = errors.New("ld: shut down")
	// ErrListNotEmpty is returned by implementations that refuse to delete
	// a non-empty list when asked to preserve its blocks.
	ErrListNotEmpty = errors.New("ld: list not empty")
	// ErrCorrupt indicates the stored bytes for a block failed integrity
	// verification (checksum mismatch, unreadable media, or a quarantined
	// segment): the data is detectably damaged and is never returned.
	ErrCorrupt = errors.New("ld: corrupt data")
)

// Disk is the Logical Disk interface (Table 1 of the paper plus the
// auxiliary primitives of §2.2 and the extensions of §5.4).
//
// Implementations are safe for concurrent use unless documented otherwise.
// Writes become durable only after a successful Flush (or, within an ARU,
// after EndARU followed by Flush); ARUs provide atomicity, Flush provides
// durability.
type Disk interface {
	// Read reads logical block b into buf and returns the number of bytes
	// the block holds. If buf is shorter than the block, the read is
	// truncated to len(buf).
	Read(b BlockID, buf []byte) (int, error)

	// Write replaces the contents of logical block b. The block keeps its
	// logical number regardless of where the data lands physically. The
	// data may be any length from 0 to the implementation's maximum block
	// size (multiple block sizes, paper §2.1).
	Write(b BlockID, data []byte) error

	// NewBlock allocates a logical block number and inserts it into list
	// lid after block pred (NilBlock inserts at the beginning). The list
	// position is a clustering hint: LD will try to place the block
	// physically near its list neighbors. The number is the lowest free
	// one, on a running instance and after any mount alike, so blocks
	// allocated in order get rising numbers; NewList follows the same rule.
	NewBlock(lid ListID, pred BlockID) (BlockID, error)

	// DeleteBlock removes block b from list lid and frees its number and
	// storage. predHint is a hint for b's predecessor; if it is wrong or
	// NilBlock, LD searches the list from the beginning (paper §2.2).
	DeleteBlock(b BlockID, lid ListID, predHint BlockID) error

	// NewList allocates a list and inserts it into the list of lists after
	// predList (NilList inserts at the beginning). Hints control
	// clustering and compression for the list's blocks.
	NewList(predList ListID, hints ListHints) (ListID, error)

	// DeleteList frees list lid and all blocks remaining on it.
	// predHint is a hint for lid's predecessor in the list of lists.
	DeleteList(lid ListID, predHint ListID) error

	// MoveBlocks moves the sublist [first, last] from srcList to dstList,
	// inserting it after pred (NilBlock inserts at the beginning of
	// dstList). srcList and dstList may be equal. It expresses a change in
	// requested clustering (paper §2.2). srcPredHint is a hint for first's
	// predecessor in srcList.
	MoveBlocks(first, last BlockID, srcList, dstList ListID, pred BlockID, srcPredHint BlockID) error

	// MoveList moves list lid to follow newPred in the list of lists
	// (NilList moves it to the beginning). predHint is a hint for lid's
	// current predecessor.
	MoveList(lid ListID, newPred ListID, predHint ListID) error

	// FlushList makes all previous writes to blocks of lid durable. It
	// gives file systems an easy fsync implementation (paper §2.2).
	FlushList(lid ListID) error

	// BeginARU opens an explicit atomic recovery unit: all commands until
	// the next EndARU recover all-or-nothing. Concurrent ARUs are not
	// supported (paper §2.2); a second BeginARU fails with ErrARUOpen.
	BeginARU() error

	// EndARU closes the open atomic recovery unit.
	EndARU() error

	// Flush guarantees that the results of all previous commands survive
	// the given kinds of failures.
	Flush(failures FailureSet) error

	// Reserve sets aside physical space for n maximum-size blocks so that
	// later writes cannot fail for lack of disk space — the paper's answer
	// to UNIX write calls that cannot be allowed to fail (§2.2).
	Reserve(n int) error

	// CancelReservation releases a previous reservation of n blocks.
	CancelReservation(n int) error

	// SwapContents atomically exchanges the physical contents of two
	// logical blocks (paper §5.4: useful for transactions and multiversion
	// storage — new versions installed without losing the old ones).
	SwapContents(a, b BlockID) error

	// ListBlocks returns the blocks of lid in list order.
	ListBlocks(lid ListID) ([]BlockID, error)

	// ListIndex returns the i-th block (0-based) of lid — offset
	// addressing, the paper's §5.4 extension that lets lists be indexed as
	// arrays (eliminating file-system indirect blocks and improving B-tree
	// branching factors).
	ListIndex(lid ListID, i int) (BlockID, error)

	// Lists returns all live list identifiers in list-of-lists order.
	Lists() ([]ListID, error)

	// BlockSize reports the stored size of block b without reading it.
	BlockSize(b BlockID) (int, error)

	// MaxBlockSize reports the largest block this implementation stores.
	MaxBlockSize() int

	// Shutdown stops the logical disk. If clean is true the implementation
	// may checkpoint its state for fast restart; if false it simulates an
	// unclean stop (state must be recoverable from the disk alone).
	Shutdown(clean bool) error
}
