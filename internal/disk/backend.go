package disk

import (
	"errors"
	"time"
)

// Backend is the sector-addressed storage surface the log-structured
// Logical Disk actually consumes, extracted from the concrete *Disk so
// lld can run over any store: a single simulated platter, a striped
// array, or a mirrored pair (internal/mdisk). Implementations must
// enforce the same contract *Disk does: offsets and lengths are
// sector-aligned and out-of-range accesses error. WriteAt is durable
// when it returns unless the backend also implements Syncer — then an
// acknowledged write may sit in a volatile cache until the next Sync,
// WriteAtNVRAM barrier, or power loss (WBCache models exactly that),
// and callers that are about to destroy the last durable copy of
// something must Sync first.
type Backend interface {
	// ReadAt fills p from the sectors starting at byte offset off.
	ReadAt(p []byte, off int64) error
	// WriteAt persists p to the sectors starting at byte offset off.
	WriteAt(p []byte, off int64) error
	// WriteAtNVRAM persists p without charging mechanical time; the
	// Logical Disk uses it for the paper's NVRAM summary-block writes.
	WriteAtNVRAM(p []byte, off int64) error
	// Capacity is the usable size in bytes (a whole number of sectors).
	Capacity() int64
	// SectorSize is the alignment unit for all I/O.
	SectorSize() int
	// Now and AdvanceIdle expose the backend's virtual clock so the
	// harness can measure I/O time and charge CPU costs to it.
	Now() time.Duration
	AdvanceIdle(d time.Duration)
	// ReadOrder is a what-if query: the order, as a permutation of the
	// indexes, in which the reads of lens[i] bytes at offs[i] would be
	// served soonest from the backend's present state. It reads nothing
	// and changes no clock, arm, buffer or statistic. A backend that
	// cannot tell returns InOrder.
	ReadOrder(offs []int64, lens []int) []int
}

// InOrder is the identity order of n reads: each where the caller put it.
func InOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// MultiReader is the optional redundancy surface a Backend may offer
// when it keeps more than one physical copy of every sector (a mirror).
// The Logical Disk type-asserts for it to turn its per-block checksums
// into replica selection: a copy that fails verification is read around
// and healed, instead of surfacing a corruption error to the caller.
type MultiReader interface {
	Backend

	// Replicas reports how many copies the backend keeps, including
	// failed or rebuilding ones.
	Replicas() int

	// ReadAtVerified reads len(p) bytes at off from any replica whose
	// bytes satisfy verify. Replicas that error or fail verification
	// are healed from the verified copy; healed counts the copies
	// repaired. A copy that fails verification is rewritten over the
	// whole range, so verify must vouch for all of the range the caller
	// cares about; a copy that errors is rewritten only where it does
	// not read. When no live replica yields verified bytes
	// the error is ErrNoValidReplica (p then holds the last copy read,
	// if any read succeeded); pure I/O failure on every replica returns
	// the first I/O error.
	ReadAtVerified(p []byte, off int64, verify func([]byte) bool) (healed int, err error)

	// VerifyReplicas checks every live replica's copy of the range
	// against verify, healing failed copies from a verified one. On
	// success p holds verified bytes and healed counts the copies
	// repaired; when no replica verifies the error is ErrNoValidReplica
	// and p holds the copy read last (so a verify that accepts nothing
	// is a scan of every live copy that heals none).
	VerifyReplicas(p []byte, off int64, verify func([]byte) bool) (healed int, err error)
}

// ErrNoValidReplica reports that a verified read found no replica whose
// bytes passed the caller's verification, i.e. every copy of the range
// is corrupt or unreadable.
var ErrNoValidReplica = errors.New("disk: no replica passed verification")

var _ Backend = (*Disk)(nil)
