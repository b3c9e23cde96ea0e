// Package mdisk presents the single-disk Backend surface over N backing
// stores. The paper's core claim is that the logical/physical split lets
// the disk layout change freely underneath an unmodified file system;
// the most production-relevant layout change is more than one disk. Two
// geometries are provided:
//
//   - Stripe: round-robin sector striping (RAID0). Logical sector s
//     lives on backend s mod N at physical sector s div N. Each backend
//     owns a request queue drained by its own goroutine, so one logical
//     request fans out across backends in parallel and independent
//     requests pipeline per backend. Capacity adds up; a single failure
//     fails the op (no redundancy).
//
//   - Mirror: write-all/read-any replication (RAID1). Reads rotate
//     across replicas; a replica that errors is read around (and, when
//     the fault is latent, healed by rewriting the sectors that do not
//     read — no others: the bytes served are unchecked), a replica that
//     crashes is marked failed and dropped from both paths. The MultiReader
//     extension adds checksum-driven replica selection — the Logical
//     Disk passes its per-block CRC as the verify function, so a rotted
//     copy is never served and is healed from its intact sibling — and
//     an online rebuild re-silvers an attached blank replacement in
//     bounded lock steps.
//
// Both geometries implement disk.Backend, so an LLD formats, opens,
// recovers, cleans, and scrubs over them unchanged. Per-backend fault
// injection needs no extra plumbing: callers keep references to the
// children (see Child) and inject on exactly the replica or stripe leg
// they mean to damage.
package mdisk

import (
	"errors"
	"fmt"

	"repro/internal/disk"
)

// ErrMirrorDown reports that a mirror has no live replica left to serve
// a request.
var ErrMirrorDown = errors.New("mdisk: mirror has no live replica")

// ErrNotRebuilding reports a Rebuild call for a replica that is not in
// the rebuilding state.
var ErrNotRebuilding = errors.New("mdisk: replica is not rebuilding")

// checkChildren validates a backend set for either geometry: at least
// one child, all with the same sector size. It returns the common
// sector size and the smallest capacity.
func checkChildren(kids []disk.Backend) (ss int, minCap int64, err error) {
	if len(kids) == 0 {
		return 0, 0, fmt.Errorf("mdisk: need at least one backend")
	}
	ss = kids[0].SectorSize()
	minCap = kids[0].Capacity()
	for i, k := range kids {
		if k.SectorSize() != ss {
			return 0, 0, fmt.Errorf("mdisk: backend %d sector size %d != backend 0 sector size %d", i, k.SectorSize(), ss)
		}
		if c := k.Capacity(); c < minCap {
			minCap = c
		}
	}
	return ss, minCap, nil
}

// checkAccess validates one I/O request against the composite geometry.
func checkAccess(p []byte, off int64, ss int, capacity int64) error {
	if off%int64(ss) != 0 || len(p)%ss != 0 {
		return fmt.Errorf("%w: off=%d len=%d sector=%d", disk.ErrUnaligned, off, len(p), ss)
	}
	if off < 0 || off+int64(len(p)) > capacity {
		return fmt.Errorf("%w: [%d,%d) capacity %d", disk.ErrOutOfRange, off, off+int64(len(p)), capacity)
	}
	return nil
}
