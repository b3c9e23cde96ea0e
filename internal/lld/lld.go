package lld

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
	"repro/internal/ld"
)

// block flags in the in-memory block-number map.
const (
	bAllocated = 1 << 0
	bHasData   = 1 << 1
	bComp      = 1 << 2
)

// blockInfo is one entry of the in-memory block-number map (Figure 2 of the
// paper): the physical address, the successor in the block's list, the
// length, and whether the contents are compressed. We additionally keep the
// owning list (used by the cleaner for clustering) and the payload's
// checksum. It takes 24 bytes (DESIGN.md §8 "The block-number map"): the
// address is one packed location (layout.pack) and the sizes are 16 bits,
// which Options.validate and computeLayout bound.
type blockInfo struct {
	loc    uint32 // segment and offset of the stored bytes (layout.pack); 0 if none
	crc    uint32 // CRC32C of the stored bytes; 0 when stored == 0
	next   ld.BlockID
	lid    ld.ListID
	stored uint16 // bytes stored on disk (post-compression)
	orig   uint16 // logical size
	flags  uint8
}

func (b *blockInfo) allocated() bool { return b.flags&bAllocated != 0 }
func (b *blockInfo) hasData() bool   { return b.flags&bHasData != 0 }

// setData points b at its stored bytes, at location loc, and clearData
// leaves it with none. Neither touches the usage accounting: the running
// instance adjusts it around them (applySetData, applyFreeStorage),
// recovery recounts it once the replay is done. Callers have bounded the
// sizes by the layout's maxBlockSize.
func (b *blockInfo) setData(loc, stored, orig uint32, compressed bool, crc uint32) {
	b.loc, b.stored, b.orig, b.crc = loc, uint16(stored), uint16(orig), crc
	b.flags = b.flags&^bComp | bHasData
	if compressed {
		b.flags |= bComp
	}
}

func (b *blockInfo) clearData() {
	b.loc, b.stored, b.orig, b.crc = 0, 0, 0, 0
	b.flags &^= bHasData | bComp
}

// segOf returns the segment holding bi's stored bytes, -1 if none.
func (l *LLD) segOf(bi *blockInfo) int { return l.lay.segOf(bi.loc) }

// offOf returns where in its segment's data area bi's stored bytes begin.
func (l *LLD) offOf(bi *blockInfo) uint32 { return l.lay.offOf(bi.loc) }

// listInfo is one entry of the in-memory list table: the first block of the
// list (Figure 2), plus the paper's per-list hints and a census count. It is
// also the list's node in the list of lists, a doubly linked list from
// LLD.head to LLD.tail, so a list is placed or unlinked in O(1).
type listInfo struct {
	first ld.BlockID
	id    ld.ListID
	count int

	// cursor memoizes the last ListIndex lookup so offset addressing
	// (paper §5.4) costs O(1) for sequential access instead of O(n).
	// Invalidated (curBlk = NilBlock) by any structural change.
	curIdx int

	prev, next *listInfo // neighbours in the list of lists

	curBlk ld.BlockID
	hints  ld.ListHints
}

// segment states for the segment usage table.
const (
	segFree uint8 = iota
	segLive
	segOpen
	segCooling // freed, but not reusable until the next durable write
	// segQuarantined marks a segment recovery found corrupt or unreadable
	// mid-log: its blocks are degraded (reads fail with ErrCorrupt), it is
	// never picked as a cleaning victim, and it is not reused while the
	// instance runs. The scrubber can salvage blocks whose payload CRC
	// still verifies by rewriting them into the open segment.
	segQuarantined
)

// segInfo is one entry of the segment usage table: the number of live bytes
// (paper §3) and of the blocks the map places in the segment, the write
// timestamp of the segment's newest summary — its age to the victim rule —
// and the blocks that summary gives data in the segment. A segment the
// mount took from the checkpoint without decoding its summary is named by
// the blocks the checkpoint places there instead. The names are nil while
// the segment is free or open, and once no block is left in it.
type segInfo struct {
	live   int64
	ts     uint64
	seq    uint32 // open sequence number of the generation it holds (0 when unknown)
	mapped int32  // blocks with data here, those storing no bytes included
	state  uint8
	names  []uint32 // sumNames of that summary, or the checkpoint's blocks here
}

// openSegment is the segment currently being filled in main memory
// (paper §3: exactly one).
type openSegment struct {
	id        int
	seq       uint32 // open sequence number, the one after the segment opened before it (nextSeq)
	next      uint32 // the successor its summary names (noSegment for none)
	firstTS   uint64 // l.ts when opened: every record in here has a larger ts
	buf       []byte
	dataOff   int
	entries   []blockEntry
	tuples    []tupleRec
	sumSize   int // encoded summary size so far
	dirty     bool
	durableTS uint64 // records at or below this ts reached disk (partial write)
	slot      int    // summary slot the next durable write targets (ping-pong)
	// onPlatter is the sector-aligned count of leading data bytes that
	// completed disk partial writes of this generation have already put on
	// the platter; the next partial write or seal starts there. A flush
	// absorbed by NVRAM does not advance it: battery-backed memory is not
	// the platter, and the seal still pays to put those bytes on the disk.
	onPlatter int
	// slotSeq[s] is the dskWrite sequence of the summary image this
	// segment generation last put in slot s (-1 none, 0 written through
	// NVRAM and so durable on arrival). Overwriting a slot with a
	// recorded image is gated on the other slot's newer image being
	// durable (guardSlotOverwrite).
	slotSeq [2]int64
}

// Stats counts LLD-level events since Open (or ResetStats).
type Stats struct {
	SegmentsSealed int64 // full segments written
	// Seals by cause. An append that found the data area full, one that
	// found the summary full (the data still fitting), and a Flush at or
	// above the fill threshold; SegmentsSealed less the three is the seals
	// of a clean Shutdown.
	SealsDataFull    int64
	SealsSummaryFull int64
	SealsOnFlush     int64
	PartialWrites    int64 // partial segment writes due to Flush (§3.2)
	PartialBytes     int64 // bytes those partial writes sent to the disk, summaries included
	NVRAMFlushes     int64 // flushes absorbed by modeled NVRAM (§5.3)

	UserBytesWritten int64
	UserBytesRead    int64
	BlocksWritten    int64
	BlocksRead       int64

	BatchReads      int64 // ReadBlocks batches served
	BatchReadBlocks int64 // blocks served through ReadBlocks
	// The multi-block reader's sweep (readStoredBatch: ReadBlocks, the cleaner, Reorganize).
	BatchExtents     int64 // extents of two or more blocks it read with one request
	BatchExtentBytes int64 // bytes those requests read, the gaps they crossed included
	BatchFallbacks   int64 // blocks of such extents that took the per-block read after all
	ReadaheadWindows int64 // read-ahead windows it read, one request each (readahead.go)
	ReadaheadHits    int64 // extents it served from the window with no request

	CompressedBlocks int64
	CompressInBytes  int64
	CompressOutBytes int64

	CleanerRuns     int64
	SegmentsCleaned int64
	BlocksMoved     int64
	CleanReads      int64 // backend requests the cleaner issued: the live extents it moved, and the per-block reads of an extent that did not read or check
	CleanReadBytes  int64 // bytes those requests read

	// Read by bench/layers.go; delete with the next benchmark PR. There is
	// one open segment sealed inline, one lock over the block map and no
	// writer ever waits on a cleaner, so SegmentLanes and MapShards report
	// 1 and the rest stay 0.
	SegmentLanes    int64
	MapShards       int64
	AsyncSeals      int64
	GroupCommits    int64
	GroupedSeals    int64
	SealWaits       int64
	ShardedWrites   int64
	WriterWaits     int64
	SpuriousWakeups int64

	HintHits   int64
	HintMisses int64

	Flushes        int64
	ARUs           int64
	Consolidations int64 // checkpoints written while running: periodic, early, at an ARU begin, after a mount (cleaner.go checkpoint)

	RecoverySweepSegments int64 // summaries read by the last sweep
	RecoveryAnomalies     int64 // defensive-replay oddities
	RecoveryDiscards      int64 // incomplete-ARU records discarded by the sweep
	VerifyCounts                // recovery's data read-back and the scrubber's passes

	// DurableMark is the durable watermark now (gauge): every record
	// stamped at or below it is on the platter.
	DurableMark uint64

	ReadRetries         int64 // transient disk read errors absorbed by bounded retry
	WriteRetries        int64 // transient disk write errors absorbed by bounded retry
	CorruptReads        int64 // reads refused with ErrCorrupt (bad CRC, quarantine, media)
	ScrubPasses         int64 // full scrub passes completed
	ScrubSegments       int64 // segments walked by the scrubber
	ScrubBlocks         int64 // live blocks whose payload CRC was verified
	ScrubBytes          int64 // stored bytes the scrubber read and verified
	ScrubErrors         int64 // corrupt or unreadable blocks the scrubber found
	ScrubRepairs        int64 // degraded blocks salvaged by rewrite
	QuarantinedSegments int64 // segments currently quarantined (gauge)

	DegradedReads     int64 // reads served from a surviving replica of a redundant backend
	SelfHeals         int64 // replica copies healed by rewriting verified bytes
	ScrubHeals        int64 // replica copies healed by the scrubber's all-copies pass
	ReclaimedSegments int64 // quarantined segments returned to the free pool
}

// LLD is a log-structured Logical Disk. It implements ld.Disk.
//
// Concurrency model (DESIGN.md §8 "Why one lock and no goroutine"). An LLD
// has one lock and starts no goroutine: everything it does — sealing,
// cleaning, scrubbing — runs on the stack of the command that asked for
// it or tripped it. mu is a reader/writer lock: non-mutating commands
// (Read, ReadBlocks, ListBlocks, Lists, ListIndex, BlockSize, and the
// reporting getters) hold it shared and run concurrently; every mutating
// command (Write, allocation, list surgery, Flush, the cleaner, the
// scrubber, ARU brackets, Shutdown) holds it exclusively from its first
// check to its last store. Because mutators are exclusive, a
// shared holder sees a frozen block-number map, list table, and open
// segment — including l.cur.buf, whose bytes only change under the write
// lock — so reads never observe a half-filled segment buffer. The state
// the read path does mutate is handled separately:
// read-path statistics counters are updated atomically (see Stats), the
// per-list ListIndex cursor memo is guarded by a mutex of its own
// (cursorMu), and the read-ahead window is claimed by one batch at a time
// under another (ra.mu); each nests strictly inside mu and is never held
// across I/O.
type LLD struct {
	mu   sync.RWMutex
	dsk  disk.Backend
	opts Options
	lay  layout
	shut bool

	ts uint64 // last issued timestamp (monotone operation counter)

	// blocks is indexed by BlockID (entry 0 unused) and covers the ids LD
	// has handed out, not the lay.maxBlocks it could: see growBlocks.
	blocks    []blockInfo
	nextFresh ld.BlockID // smallest never-allocated id
	freeIDs   ld.IDPool[ld.BlockID]

	lists      map[ld.ListID]*listInfo
	head, tail *listInfo // the list of lists (listInfo.prev/next)
	// ghosts holds, during a replay only, a node for each id a logged
	// move left in the list of lists after its list was deleted
	// (replayTuple); installRecovered unlinks them and clears it.
	ghosts    map[ld.ListID]*listInfo
	nextList  ld.ListID
	freeLists ld.IDPool[ld.ListID]

	segs       []segInfo
	freeSegs   []int
	cooling    []int    // reusable once what was logged before they were freed is durable
	coolingTS  []uint64 // coolingTS[i]: release barrier for cooling[i] (monotone)
	pendingARU []int    // freed during an open ARU; cool after EndARU

	// cur is the one open segment (nil between a seal and the next
	// append): the single append point that gives clustering by list and
	// the single log order ARU recovery assumes. fillBuf is its buffer,
	// reused from one segment to the next.
	cur     *openSegment
	fillBuf []byte
	aruOpen bool

	// Write-ordering watermark for the volatile-cache overwrite guard
	// (guardSlotOverwrite): writeSeq counts issued backend writes and
	// syncedSeq is the highest seq known drained to the platter. A write
	// with seq at or below syncedSeq is durable.
	writeSeq  atomic.Int64
	syncedSeq atomic.Int64

	// Durable watermark (DESIGN.md §8): every record stamped at or below
	// durableMark is on the platter. doneTS and doneSeq are the stamp and
	// the writeSeq of the newest seal or disk partial write whose backend
	// writes have all returned (logWriteDone); the mark advances to doneTS
	// at once on a write-through backend, otherwise in the first dskSync
	// whose drain covers doneSeq. Each summary carries the mark as it stood
	// before its own writes, and the next unclean mount verifies only the
	// segments stamped above the largest mark it finds. Guarded by mu.
	doneTS      uint64
	doneSeq     int64
	durableMark uint64

	liveBytes     int64
	reservedBytes int64
	utilLimit     float64 // utilizationLimit; a field so one test family can fill a disk to the brim

	// cleaning is true while a cleaning pass is active. A pass never
	// releases mu, so whoever observes it set is on the pass's own stack
	// (its block moves go through ensureRoom like any append).
	cleaning bool
	victim   int // the segment cleanSegment is working on, -1 outside it (read at the clean.* crash points)

	// recReport describes what the last recovery sweep found; zero value
	// on a clean open. Read via RecoveryReport().
	recReport RecoveryReport

	lastSealDur time.Duration
	compressCPU time.Duration

	// Checkpoint state: records with ts <= ckptTS are covered by the newest
	// on-disk checkpoint, and recovery replays none of them. A live segment
	// stamped at or below namedTS was named by the checkpoint the mount
	// loaded (decodeCheckpoint), not by a summary; 0 when it loaded none.
	ckptTS   uint64
	ckptSlot int
	namedTS  uint64

	// The log's chain (recovery.go "The chain"). openSeq is the open
	// sequence number of the segment opened last, and succ the free segment
	// the log opens next, which the open segment's summary names as its
	// successor (-1 when the pool was empty at the open). The newest
	// checkpoint's chain starts at the segment opened with sequence number
	// ckptSeq, so a segment with a sequence number at or after it was opened
	// since (inChain). A checkpoint that names no start leaves the number
	// the log opens next (writeCheckpoint); one decoded from the platter,
	// 0, and the mount then takes a new one. held are such segments the
	// cleaner freed: they stay cooling until a newer checkpoint is durable
	// (the reuse rule), so no link a mount may follow, and no record newer
	// than the checkpoint, is overwritten.
	// sealsSinceCkpt counts seals toward the next periodic checkpoint.
	openSeq        uint32
	succ           int
	ckptSeq        uint32
	held           []int
	sealsSinceCkpt int

	// Pending abort fence: set by recoverSweep when it discards an
	// incomplete ARU, emitted by Open as the boot's first record.
	fenceLo, fenceHi uint64

	stats Stats

	// cursorMu guards the per-list ListIndex cursor memo (listInfo.curIdx,
	// listInfo.curBlk) for holders of the shared lock; exclusive holders
	// touch the cursors directly. It nests inside mu and is never held
	// across I/O.
	cursorMu sync.Mutex

	// ra is ReadBlocks' read-ahead window (readahead.go).
	ra readahead

	// readBufs pools the per-block scratch buffers, each a block's span at
	// most: the read path runs under the shared lock, and an allocation per
	// Read doubles its CPU on ld-churn. Nothing larger is pooled; no work
	// buffer outlives the command that needs it (DESIGN.md §8 "What stays
	// in memory").
	readBufs sync.Pool
}

// compile-time interface checks.
var (
	_ ld.Disk          = (*LLD)(nil)
	_ ld.MultiReadDisk = (*LLD)(nil)
)

// Format initializes an LLD layout on the disk: superblock, empty
// checkpoint slots, and invalidated segment summaries. Any previous
// contents are irrecoverable afterwards.
func Format(dsk disk.Backend, opts Options) error {
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
	// Invalidate both checkpoint slots.
	zero := make([]byte, ss)
	for slot := 0; slot < 2; slot++ {
		if err := dsk.WriteAt(zero, lay.checkpointOff+int64(slot)*lay.checkpointSize); err != nil {
			return err
		}
	}
	// Invalidate both summary slots of every segment so stale metadata
	// from a previous format cannot be resurrected by recovery.
	for i := 0; i < lay.nSegments; i++ {
		for slot := 0; slot < 2; slot++ {
			if err := dsk.WriteAt(zero, lay.sumOff(i, slot)); err != nil {
				return err
			}
		}
	}
	// The clean-shutdown checkpoint of an empty LD: the first mount is a
	// clean mount, and the checkpoint names where the log's chain starts,
	// the segment the first open takes, for a crash mount to follow.
	l := newInstance(dsk, opts, lay)
	l.rebuildFreeSegments()
	l.succ = l.nextFree(-1)
	if err := l.writeCheckpoint(true); err != nil {
		return err
	}
	// A format must survive power loss on a write-caching backend: half a
	// format is a disk whose stale summaries can resurrect dead metadata.
	if s, ok := dsk.(disk.Syncer); ok {
		return s.Sync()
	}
	return nil
}

// Open attaches to a formatted disk. Geometry comes from the superblock;
// runtime policy (compression model, NVRAM) comes
// from opts. If a valid clean-shutdown checkpoint exists it is loaded and
// invalidated; otherwise the newest checkpoint is loaded and what the log
// wrote since is replayed over it (recovery.go), by the one-sweep recovery
// of paper §3.6 when that cannot be told.
func Open(dsk disk.Backend, opts Options) (*LLD, error) {
	return open(dsk, opts, (*LLD).verifyRecoveredData, false)
}

// OpenFullSweep is Open that recovers by paper §3.6's one sweep: it probes
// every segment's summary, whatever the newest checkpoint's chain says, and
// replays what is newer than that checkpoint. It recovers what Open does,
// at the cost of reading the whole disk's summaries.
func OpenFullSweep(dsk disk.Backend, opts Options) (*LLD, error) {
	return open(dsk, opts, (*LLD).verifyRecoveredData, true)
}

// open is Open with the sweep's data read-back as a parameter (see
// recoverSweep). With sweep set the mount probes every segment's summary,
// whatever the checkpoint's chain says, and a clean-shutdown checkpoint is
// only the sweep's floor, as after a crash that follows a clean restart
// (Verify).
func open(dsk disk.Backend, opts Options, verifyData verifyFunc, sweep bool) (*LLD, error) {
	sector := make([]byte, dsk.SectorSize())
	// On a redundant backend, accept any replica whose superblock decodes:
	// a wholly-rotted mirror copy must not keep the store from opening.
	if mr, ok := dsk.(disk.MultiReader); ok {
		_, err := mr.ReadAtVerified(sector, 0, func(b []byte) bool {
			_, e := decodeSuper(b)
			return e == nil
		})
		if err != nil && !errors.Is(err, disk.ErrNoValidReplica) {
			return nil, err
		}
	} else if err := dsk.ReadAt(sector, 0); err != nil {
		return nil, err
	}
	lay, err := decodeSuper(sector)
	if err != nil {
		return nil, err
	}
	if lay.sectorSize != dsk.SectorSize() {
		return nil, fmt.Errorf("%w: superblock sector size %d != disk %d", ErrFormat, lay.sectorSize, dsk.SectorSize())
	}
	// Runtime knobs keep their configured values; geometry is on-disk truth.
	opts.SegmentSize = lay.segmentSize
	opts.SummarySize = lay.summarySize
	opts.MaxBlockSize = lay.maxBlockSize
	opts.MaxBlocks = lay.maxBlocks
	if err := opts.validate(lay.sectorSize); err != nil {
		return nil, err
	}
	if lay.nSegments > lay.maxSegments() {
		return nil, &GeometryError{Segments: lay.nSegments, MaxSegments: lay.maxSegments()}
	}

	l := newInstance(dsk, opts, lay)
	found, complete, err := l.loadCheckpoint()
	if err != nil {
		return nil, err
	}
	switch {
	case !found:
		if err := l.recoverSweep(0, false, verifyData, "no valid checkpoint"); err != nil {
			return nil, err
		}
	case sweep:
		if err := l.recoverSweep(l.ckptTS, true, verifyData, "asked for"); err != nil {
			return nil, err
		}
	case !complete:
		// The checkpoint is a floor, not the full story: replay everything
		// newer, from the segments its chain leads through.
		if err := l.recoverSweep(l.ckptTS, true, verifyData, ""); err != nil {
			return nil, err
		}
	}
	l.rebuildFreeSegments()
	l.finalizeIntegrity()
	if l.succ < 0 || l.segs[l.succ].state != segFree {
		// The log cannot go on where the newest checkpoint's chain ends (it
		// was broken, or names a segment not free): start a new chain before
		// anything is written.
		l.succ = l.nextFree(-1)
		if err := l.checkpoint(); err != nil {
			return nil, err
		}
	}
	if l.fenceHi != 0 {
		// The sweep discarded an incomplete atomic recovery unit whose
		// records remain readable in sealed summaries. Make the dead window
		// permanent before any new record could resurrect it. Open a fresh
		// segment directly when one is free so no cleaner-emitted committed
		// tuple can seal ahead of the fence.
		if l.cur == nil && len(l.freeSegs) > 0 {
			if err := l.openNewSegment(); err != nil {
				return nil, err
			}
		}
		if err := l.ensureRoom(0, tupleSpace(tFence)); err != nil {
			return nil, err
		}
		l.emitTuple(tFence,
			uint32(l.fenceLo), uint32(l.fenceLo>>32),
			uint32(l.fenceHi), uint32(l.fenceHi>>32))
		l.fenceLo, l.fenceHi = 0, 0
	}
	return l, nil
}

// newInstance returns an LLD holding no state over a disk of layout lay.
func newInstance(dsk disk.Backend, opts Options, lay layout) *LLD {
	return &LLD{
		dsk:       dsk,
		opts:      opts,
		lay:       lay,
		blocks:    make([]blockInfo, 1),
		nextFresh: 1,
		lists:     make(map[ld.ListID]*listInfo),
		nextList:  1,
		segs:      make([]segInfo, lay.nSegments),
		victim:    -1,
		utilLimit: utilizationLimit,
		succ:      -1,
	}
}

// rebuildFreeSegments derives the free-segment pool from the usage table,
// in address order (freeSegment).
func (l *LLD) rebuildFreeSegments() {
	l.freeSegs = l.freeSegs[:0]
	for i := range l.segs {
		if l.segs[i].state == segFree {
			l.freeSegs = append(l.freeSegs, i)
		}
	}
}

// rebuildFreePools derives the free block-number and list-id pools from
// the allocation state. Neither the checkpoint nor a summary records them,
// so the recovery sweep and the checkpoint loader both end here.
func (l *LLD) rebuildFreePools() {
	l.freeIDs.Fill(l.nextFresh, func(b ld.BlockID) bool { return !l.blocks[b].allocated() })
	l.freeLists.Fill(l.nextList, func(lid ld.ListID) bool { return l.lists[lid] == nil })
}

// nextTS issues the next operation timestamp.
func (l *LLD) nextTS() uint64 {
	l.ts++
	return l.ts
}

// Stats returns a copy of the accumulated statistics.
//
// The counters touched by the shared-lock read path (BlocksRead,
// UserBytesRead, BatchReads, BatchReadBlocks, BatchExtents,
// BatchExtentBytes, BatchFallbacks, ReadaheadWindows, ReadaheadHits) are
// updated with atomic adds;
// everything else is written under the exclusive lock. Stats takes
// the exclusive lock, which orders it after every concurrent reader, so a
// plain struct copy is sound.
func (l *LLD) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.SegmentLanes, s.MapShards = 1, 1
	s.DurableMark = l.durableMark
	return s
}

// maxIORetries bounds how many times a disk request that failed with a
// transient error is retried before the error is surfaced.
const maxIORetries = 3

// dskRead is ReadAt with a bounded retry for transient disk errors. Safe
// under the shared lock: the retry counter is updated atomically.
func (l *LLD) dskRead(p []byte, off int64) error {
	err := l.dsk.ReadAt(p, off)
	for n := 0; n < maxIORetries && errors.Is(err, disk.ErrTransient); n++ {
		atomic.AddInt64(&l.stats.ReadRetries, 1)
		err = l.dsk.ReadAt(p, off)
	}
	return err
}

// dskWrite is WriteAt with the same bounded transient retry.
func (l *LLD) dskWrite(p []byte, off int64) error {
	err := l.dsk.WriteAt(p, off)
	for n := 0; n < maxIORetries && errors.Is(err, disk.ErrTransient); n++ {
		atomic.AddInt64(&l.stats.WriteRetries, 1)
		err = l.dsk.WriteAt(p, off)
	}
	if err == nil {
		l.writeSeq.Add(1)
	}
	return err
}

// dskSync drains the backend's volatile write cache, when it has one.
// The log's ordering does not normally need barriers — recovery sorts
// records by timestamp and a torn or missing tail only loses the tail —
// but any step about to destroy the last durable copy of re-homed facts
// (freeing a cleaned victim, zeroing a quarantined segment's evidence
// slots, completing a checkpoint the next boot will trust) must first
// make the new home durable. A drain is also where the durable watermark
// advances on such a backend: no call exists for the mark's sake, it moves
// when lld drains for one of the reasons above. Callers hold l.mu.
func (l *LLD) dskSync() error {
	seq := l.writeSeq.Load() // writes issued before the drain are covered by it
	if s, ok := l.dsk.(disk.Syncer); ok {
		if err := s.Sync(); err != nil {
			return err
		}
	}
	for {
		old := l.syncedSeq.Load()
		if old >= seq || l.syncedSeq.CompareAndSwap(old, seq) {
			break
		}
	}
	if l.doneSeq <= seq && l.advanceMark() {
		l.crashPoint("mark.advanced") // drained, and no summary says so yet
	}
	return nil
}

// logWriteDone records that every backend write of the seal or disk partial
// write stamped ts has returned. Log writes complete in stamp order (one
// open segment, sealed inline), so every record stamped at or below ts has
// by now been handed to the backend. A backend that is no disk.Syncer has
// no volatile cache — "WriteAt is durable when it returns" — and the mark
// follows at once; otherwise it waits for a drain (dskSync). Callers hold
// l.mu.
func (l *LLD) logWriteDone(ts uint64) {
	l.doneTS, l.doneSeq = ts, l.writeSeq.Load()
	if _, cached := l.dsk.(disk.Syncer); !cached {
		l.advanceMark()
	}
}

// advanceMark raises the durable watermark to the stamp of the newest
// completed log write, which the caller knows to be on the platter, and
// reports whether the mark moved. It stops below the stamp of a quarantined
// segment: what that segment's summary describes is not all on the platter
// (that is why the mount set it aside), and a mark at or past it would let
// the next unclean mount take the segment on trust — back in service, and
// in the cleaner's reach, with its losses unreported. Until the segment is
// reclaimed every unclean mount reads it back, as before there was a mark.
func (l *LLD) advanceMark() bool {
	m := l.doneTS
	for i := range l.segs {
		if s := &l.segs[i]; s.state == segQuarantined && s.ts <= m {
			if s.ts == 0 {
				return false
			}
			m = s.ts - 1
		}
	}
	if m <= l.durableMark {
		return false
	}
	l.durableMark = m
	return true
}

// crashPoint reports a named schedule point to the torture harness's
// CrashHook, when one is installed. The hook may cut the simulated
// power, making the very next backend I/O fail.
func (l *LLD) crashPoint(site string) {
	if l.opts.CrashHook != nil {
		l.opts.CrashHook(site)
	}
}

// dskReadVerified reads len(p) bytes at off, preferring a copy that
// satisfies ok when the backend keeps redundant replicas. The returned
// verified flag reports that p is known to satisfy ok (so callers may
// skip their own check); on a single-copy backend it is always false
// and the caller verifies as usual. Replica fallbacks and heals are
// counted in the degraded-read stats. Safe under the shared lock.
func (l *LLD) dskReadVerified(p []byte, off int64, ok func([]byte) bool) (verified bool, err error) {
	mr, multi := l.dsk.(disk.MultiReader)
	if !multi {
		return false, l.dskRead(p, off)
	}
	healed, err := mr.ReadAtVerified(p, off, ok)
	if healed > 0 {
		atomic.AddInt64(&l.stats.DegradedReads, 1)
		atomic.AddInt64(&l.stats.SelfHeals, int64(healed))
	}
	if err != nil {
		return false, err
	}
	return true, nil
}
func (l *LLD) getReadBuf() []byte {
	if b, ok := l.readBufs.Get().(*[]byte); ok {
		return *b
	}
	return make([]byte, l.lay.maxBlockSize+2*l.lay.sectorSize)
}

func (l *LLD) putReadBuf(b []byte) { l.readBufs.Put(&b) }

// ResetStats zeroes the statistics counters.
func (l *LLD) ResetStats() {
	l.mu.Lock()
	l.stats = Stats{}
	l.mu.Unlock()
}

// Layout reporting, used by tools and benchmarks.

// SegmentCount returns the number of segments on the disk.
func (l *LLD) SegmentCount() int { return l.lay.nSegments }

// SegmentSize returns the segment size in bytes.
func (l *LLD) SegmentSize() int { return l.lay.segmentSize }

// MaxBlockSize implements ld.Disk.
func (l *LLD) MaxBlockSize() int { return l.lay.maxBlockSize }

// MaxBlocks returns the size of the logical block address space.
func (l *LLD) MaxBlocks() int { return l.lay.maxBlocks }

// FreeSegments returns the number of immediately allocatable segments.
func (l *LLD) FreeSegments() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.freeSegs)
}

// LiveBytes returns the total live user bytes currently stored.
func (l *LLD) LiveBytes() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.liveBytes
}

// UsableBytes returns the data capacity subject to the utilization limit.
func (l *LLD) UsableBytes() int64 {
	return int64(float64(l.lay.usableBytes()) * l.utilLimit)
}

// checkOpen reports ErrShutdown after Shutdown. Callers hold l.mu
// (shared suffices).
func (l *LLD) checkOpen() error {
	if l.shut {
		return ld.ErrShutdown
	}
	return nil
}

// growBlocks extends the block-number map with empty entries until it
// covers every id below n (DESIGN.md §8 "The block-number map"). The map
// grows with the highest id in use: NewBlock when it issues a fresh id,
// and the checkpoint loader to the checkpoint's nextFresh. (Recovery's
// replay grows it to the largest id a record names through replayBlock,
// which appends.) Growing may move the map, so it is called only where no
// *blockInfo is held. Capacity grows by an eighth, which keeps the slack
// under an eighth of the map.
func (l *LLD) growBlocks(n int) {
	if n <= len(l.blocks) {
		return
	}
	if n > cap(l.blocks) {
		grown := make([]blockInfo, len(l.blocks), n+n/8)
		copy(grown, l.blocks)
		l.blocks = grown
	}
	for len(l.blocks) < n {
		l.blocks = append(l.blocks, blockInfo{})
	}
}

// blockAt validates and returns the map entry for b. Callers hold l.mu
// (shared suffices).
func (l *LLD) blockAt(b ld.BlockID) (*blockInfo, error) {
	if b == ld.NilBlock || int(b) >= len(l.blocks) {
		return nil, fmt.Errorf("%w: %d", ld.ErrBadBlock, b)
	}
	bi := &l.blocks[b]
	if !bi.allocated() {
		return nil, fmt.Errorf("%w: %d not allocated", ld.ErrBadBlock, b)
	}
	return bi, nil
}

// listAt validates and returns the list table entry for lid. Callers hold
// l.mu (shared suffices).
func (l *LLD) listAt(lid ld.ListID) (*listInfo, error) {
	li, ok := l.lists[lid]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ld.ErrBadList, lid)
	}
	return li, nil
}
