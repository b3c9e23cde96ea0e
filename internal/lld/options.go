// Package lld is the log-structured implementation of the Logical Disk
// interface described in Section 3 of "The Logical Disk" (SOSP 1993).
//
// LLD divides the disk into large fixed-size segments. The segment being
// filled is kept in main memory and written in a single disk operation.
// Each segment ends with a segment summary that logs LLD's metadata: one
// entry per physical block in the segment plus "link tuples" recording list
// operations, all timestamped and tagged with a commit bit for atomic
// recovery units. The block-number map, list table and segment usage table
// live entirely in main memory (paper §3.4). Paper §3.6 rebuilds them after
// a crash by one sweep over every segment summary and takes no checkpoints;
// here a checkpoint is written every checkpointEvery seals (≈ 64 MB of log
// at 512-KB segments; every quarter of the disk's segments on a disk that
// has fewer than four times that), each summary names the segment the log opens next, and a crash mount replays
// the summaries of the segments written since the newest checkpoint,
// falling back to the full sweep when that chain cannot be vouched for. A
// clean shutdown serializes the state into a checkpoint for fast restart.
//
// The implementation also provides the paper's partial-segment strategy
// (§3.2: below a fill threshold a flushed segment is written but kept in
// memory; later flushes and the seal append to the image on the platter
// instead of rewriting it), transparent compression for lists
// created with the Compress hint (§3.3), and a segment cleaner after
// Rosenblum and Ousterhout's (§3.5): empty segments first, the rest by
// cost-benefit.
package lld

import (
	"fmt"
	"time"
)

// Options configures an LLD instance. The zero value is not valid; use
// DefaultOptions as a starting point.
type Options struct {
	// SegmentSize is the size of one segment in bytes, including the
	// summary region. The paper's measurements use 512-KB segments and
	// study 64-512 KB. Must be a multiple of the disk sector size.
	SegmentSize int

	// SummarySize is the size of one segment-summary slot. Each segment
	// ends with two such slots, written alternately so that a torn
	// write to the open segment (the §3.2 partial-segment strategy)
	// can never destroy the newest acknowledged summary image. The paper
	// sizes the summary at one 4-KB block; the default is 8 KB. Records are
	// packed (format v4): on Table 4's small-file phases a block entry
	// takes 10 bytes and a tuple 4 to 9 (delete list, new list, alloc and
	// free), so a slot holds about 1,000 records. A segment of 1-KB file
	// creates then seals with two thirds of its data area full; one of a
	// large file's 4-KB blocks fills its data area first. A flush or seal
	// writes only the slot's used sectors, but every KB added here takes
	// two from every segment's data area.
	SummarySize int

	// MaxBlockSize is the largest logical block. Writes larger than this
	// fail with ld.ErrTooLarge.
	MaxBlockSize int

	// MaxBlocks bounds the logical block address space. Zero means derive
	// from capacity: one block number per MaxBlockSize/4 bytes of usable
	// space (so small-block-heavy file systems do not run out of numbers).
	MaxBlocks int

	// CompressBandwidth models the CPU cost of compression in bytes per
	// second of virtual time; decompression is charged at the same rate.
	// Zero disables the charge (infinitely fast CPU).
	CompressBandwidth int64

	// NVRAMBytes models battery-backed memory absorbing partial-segment
	// writes (§5.3, Baker et al.): a Flush whose segment fill fits in
	// NVRAM costs no disk operation; the contents survive a crash (they
	// are drained to disk at the start of recovery). Zero disables it.
	NVRAMBytes int

	// CrashHook, when set, is called at named schedule points whose
	// interruption is interesting to crash testing — after a cleaner's
	// block moves, before it retires the victim ("clean.moved"), around
	// ReclaimQuarantined's evidence-slot clears
	// ("reclaim.preclear", "reclaim.midclear", "reclaim.postclear"), after
	// a scrub salvage append ("scrub.salvage"), before every checkpoint
	// write, whatever took it ("checkpoint"), between a seal's data request
	// and its summary request when they are two ("seal.data"), after the
	// drain that advances the durable watermark, before any summary
	// advertises it ("mark.advanced"), and before a summary write that
	// extends a chain leading through a segment recovery quarantined
	// ("chain.quarantined"). The torture harness (internal/torture) installs
	// a hook that cuts simulated power at a scheduled occurrence. The
	// hook runs with the instance lock held and must not call back into
	// the LLD. A runtime knob, never written to disk.
	CrashHook func(site string)
}

// Policy with one right answer in this tree: no caller outside a test ever
// set another value.
const (
	// flushThreshold is the fill fraction at or above which a Flush seals
	// the open segment instead of writing a partial image (paper §3.2
	// suggests 75%).
	flushThreshold = 0.75

	// cleanLow and cleanHigh are the cleaner watermarks: when the number
	// of free segments drops to cleanLow, the cleaner runs until cleanHigh
	// segments are free (or no victims remain).
	cleanLow, cleanHigh = 2, 4

	// utilizationLimit caps the fraction of segment data capacity that may
	// hold live+reserved bytes; beyond it allocations fail with
	// ld.ErrNoSpace. Keeping headroom is what keeps cleaning affordable.
	utilizationLimit = 0.90
)

// DefaultOptions returns the configuration used for the paper's main
// measurements: 512-KB segments, 4-KB maximum blocks.
func DefaultOptions() Options {
	return Options{
		SegmentSize:       512 * 1024,
		SummarySize:       8 * 1024,
		MaxBlockSize:      4096,
		CompressBandwidth: 1500 * 1024,
	}
}

func (o Options) validate(sectorSize int) error {
	if o.SegmentSize <= 0 || o.SegmentSize%sectorSize != 0 {
		return fmt.Errorf("lld: segment size %d not a positive multiple of sector size %d", o.SegmentSize, sectorSize)
	}
	if o.SummarySize <= summaryHeaderSize || o.SummarySize%sectorSize != 0 {
		return fmt.Errorf("lld: summary size %d invalid", o.SummarySize)
	}
	if 2*o.SummarySize >= o.SegmentSize {
		return fmt.Errorf("lld: two summary slots of %d B must be smaller than segment size %d", o.SummarySize, o.SegmentSize)
	}
	if o.MaxBlockSize <= 0 || o.MaxBlockSize > o.SegmentSize-2*o.SummarySize {
		return fmt.Errorf("lld: max block size %d must fit in a segment's data area (%d)", o.MaxBlockSize, o.SegmentSize-2*o.SummarySize)
	}
	return nil
}

// compressDelay returns the modeled CPU time to (de)compress n bytes.
func (o Options) compressDelay(n int) time.Duration {
	if o.CompressBandwidth <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(o.CompressBandwidth) * float64(time.Second))
}

// layout is the derived on-disk geometry, stored in the superblock.
type layout struct {
	sectorSize     int
	segmentSize    int
	summarySize    int
	maxBlockSize   int
	maxBlocks      int
	nSegments      int
	checkpointOff  int64 // byte offset of checkpoint slot 0
	checkpointSize int64 // size of one checkpoint slot
	segmentsOff    int64 // byte offset of segment 0
}

// dataCap returns the usable data bytes in one segment. Each segment ends
// with two alternating summary slots: a segment is written more than once
// while it fills (§3.2), and a second write to a single slot would tear the
// only copy of already-acknowledged records, so every summary write targets
// the slot not holding the newest durable image and recovery picks the
// newer valid one.
func (l layout) dataCap() int { return l.segmentSize - 2*l.summarySize }

// segOff returns the byte offset of segment id.
func (l layout) segOff(id int) int64 {
	return l.segmentsOff + int64(id)*int64(l.segmentSize)
}

// sumOff returns the byte offset of one of segment id's two summary slots.
func (l layout) sumOff(id, slot int) int64 {
	return l.segOff(id) + int64(l.dataCap()) + int64(slot)*int64(l.summarySize)
}

// usableBytes returns the total data capacity across all segments.
func (l layout) usableBytes() int64 { return int64(l.nSegments) * int64(l.dataCap()) }

// computeLayout derives the on-disk layout for a disk of the given capacity.
func computeLayout(capacity int64, sectorSize int, o Options) (layout, error) {
	if err := o.validate(sectorSize); err != nil {
		return layout{}, err
	}
	l := layout{
		sectorSize:   sectorSize,
		segmentSize:  o.SegmentSize,
		summarySize:  o.SummarySize,
		maxBlockSize: o.MaxBlockSize,
	}

	// Reserve one sector for the superblock, rounded to a full segment
	// boundary after the checkpoint region for alignment simplicity.
	super := int64(sectorSize)

	// Provisional segment count ignoring the checkpoint region, used to
	// size MaxBlocks and therefore the checkpoint slots.
	provSegs := int(capacity / int64(o.SegmentSize))
	if provSegs < 4 {
		return layout{}, fmt.Errorf("lld: disk too small: %d bytes for %d-byte segments", capacity, o.SegmentSize)
	}
	maxBlocks := o.MaxBlocks
	if maxBlocks == 0 {
		maxBlocks = int(int64(provSegs) * int64(l.dataCap()) / int64(o.MaxBlockSize) * 4)
	}
	l.maxBlocks = maxBlocks

	// A checkpoint slot must hold the serialized state: superheader plus
	// per-block and per-list records. Size generously and round to sectors.
	slot := int64(checkpointHeaderSize) +
		int64(maxBlocks+1)*blockStateEncSize +
		int64(maxBlocks/8+64)*listStateEncSize + // lists are bounded by blocks
		int64(provSegs)*segStateEncSize +
		4096
	slot = (slot + int64(sectorSize) - 1) / int64(sectorSize) * int64(sectorSize)
	l.checkpointOff = super
	l.checkpointSize = slot

	dataStart := super + 2*slot
	// Align segment region to a sector (already is) and compute how many
	// whole segments fit.
	l.segmentsOff = dataStart
	l.nSegments = int((capacity - dataStart) / int64(o.SegmentSize))
	if l.nSegments < 4 {
		return layout{}, fmt.Errorf("lld: disk too small after metadata: %d segments", l.nSegments)
	}
	if l.nSegments >= noSegment {
		return layout{}, fmt.Errorf("lld: %d segments, a summary names at most %d", l.nSegments, noSegment-1)
	}
	return l, nil
}
