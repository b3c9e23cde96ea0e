package lld

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/disk"
	"repro/internal/ld"
)

// Recovery (paper §3.6): after a failure LLD reads segment summaries and
// rebuilds the block-number map, the list table, and the segment usage
// table from the records stored therein. The paper reads every summary on
// the disk in one sweep. Here the newest checkpoint is loaded and only the
// summaries of the segments opened since are read, found by following the
// chain each summary's successor link makes (recoverSweep); the one sweep
// stays for when that chain cannot be vouched for, and for Verify.
//
// Every record is a self-contained set of absolute field assignments
// (block existence/membership, successor pointer, data location, list
// existence/head). Replay sorts all surviving records by timestamp and
// stores them into the block-number map and list table themselves, so each
// field converges to the value of its newest surviving record — which is
// the true value, because no summary holding a fact newer than the
// checkpoint is destroyed before a newer checkpoint is durable (segment.go
// cool). What no record states (the usage table, list censuses, free pools)
// installRecovered derives afterwards.
//
// Atomic recovery units: a record tagged as not ending an ARU is applied
// only if some committed record with an equal or later timestamp survives —
// the paper's rule that an incomplete unit's effects are deferred until its
// EndARU or a more recently committed operation is encountered, and are
// discarded if neither exists.
//
// Abort fences. The paper's commit rule is sound within one boot, where
// the authors' log is physically truncated at the crash point. Here the
// discarded records remain readable in sealed summaries forever, and a
// later boot's committed records (which necessarily carry higher
// timestamps) would resurrect them on the next sweep: the dead unit's
// records would suddenly satisfy "a committed record with a later
// timestamp exists". To keep discards permanent, a recovery that drops an
// incomplete unit makes the new boot's first record a tFence declaring
// the dead window (L, B): L is the lastCommitted of that recovery, B the
// first timestamp of the new boot. Replay never applies an uncommitted
// record whose timestamp falls strictly inside a fenced window. The fence
// is emitted into the open segment before any new operation, so it is
// durable no later than any record that could resurrect the dead unit.

// segProbe is what the sweep learned about one segment's summary slots.
// Beyond the newest valid summary (if any), it preserves the evidence the
// torn-tail/mid-log classifier needs: the claimed write timestamps of
// undecodable magic-bearing slots, and whether the media refused the read.
type segProbe struct {
	si *summaryInfo // newest valid summary, nil if none

	// suspectTS is the largest write timestamp claimed by an undecodable
	// slot that still bears the summary magic (0 when there is none). The
	// header prefix survives a tear — tears and rot destroy the tail of a
	// slot write, not its first sectors — so the claim is readable even
	// when the CRC is not satisfiable.
	suspectTS    uint64
	suspectSlots []int // slot indices of undecodable magic-bearing slots

	unreadable bool // a slot could not be read at all (latent media fault)
	divergent  bool // replica copies did not all read back identical (probeSegmentMulti)
}

// classifySlots is the one reading of a summary area's two slots: area as
// read (a slot marked unread could not be), segment segID's. The newest slot
// that decodes is the probe's si (slot 0 on a tie); a slot that does not
// decode but whose header bears the summary magic and segID is a suspect,
// with the write timestamp its header claims.
func classifySlots(area []byte, lay layout, segID int, unread [2]bool) segProbe {
	var p segProbe
	for slot := 0; slot < 2; slot++ {
		if unread[slot] {
			p.unreadable = true
			continue
		}
		buf := area[slot*lay.summarySize : (slot+1)*lay.summarySize]
		si, err := decodeSummary(buf, lay, segID)
		if err == nil {
			if p.si == nil || si.writeTS > p.si.writeTS {
				p.si = si
			}
			continue
		}
		if h, ok := readSummaryHeader(buf); ok && h.segID == segID {
			p.suspectTS = max(p.suspectTS, h.writeTS)
			p.suspectSlots = append(p.suspectSlots, slot)
		}
	}
	return p
}

// probeSegment reads and classifies both summary slots of segment i on a
// redundant backend: the region is one scan of every replica
// (replicasAgree). Copies that all read and agree byte for byte are probed
// as one platter's would be (probeCopy): there is no newer generation to
// adopt and nothing to heal. Any other segment takes probeSegmentMulti.
// first, as long as sum, is where replicasAgree keeps the first copy.
func (l *LLD) probeSegment(mr disk.MultiReader, i int, sum, first []byte) (segProbe, error) {
	if !l.replicasAgree(mr, sum, first, l.lay.sumOff(i, 0)) {
		return l.probeSegmentMulti(mr, i, sum)
	}
	return classifySlots(sum, l.lay, i, [2]bool{}), nil
}

// probeCopy reads and classifies both summary slots of segment i on a
// backend that keeps one copy. A latent read fault on one slot does not
// hide the other: the region read falls back to per-slot reads, and only a
// genuinely unreadable slot marks the probe unreadable. Errors other than
// ErrUnreadable (after the transient retry) abort the sweep.
func (l *LLD) probeCopy(i int, sum []byte) (segProbe, error) {
	lay := l.lay
	var unread [2]bool
	if err := l.dskRead(sum, lay.sumOff(i, 0)); err != nil {
		if !errors.Is(err, disk.ErrUnreadable) {
			return segProbe{}, err
		}
		for slot := 0; slot < 2; slot++ {
			if err := l.dskRead(sum[slot*lay.summarySize:(slot+1)*lay.summarySize], lay.sumOff(i, slot)); err != nil {
				if !errors.Is(err, disk.ErrUnreadable) {
					return segProbe{}, err
				}
				unread[slot] = true
			}
		}
	}
	return classifySlots(sum, lay, i, unread), nil
}

// probeAheadBatch is how many summary areas a mount on a single-copy
// backend reads in one batch (prober): the segment it asks for and the
// next ones it expects to ask for. Probed one at a time, the chain's
// summaries, which the log lays in address order, each wait a revolution
// the skew puts in the way (DESIGN §5 "The chain"); the batch, issued
// soonest first, takes them as the arm passes. Swept at seed 1 on fs-small
// / fs-large, recovery_virt_s (the mean of four chain mounts):
//
//	 1 (serial): 2.434 / 1.368 s
//	 4:          1.756 / 1.026 s
//	 8:          1.667 / 1.020 s
//	16:          1.656 / 1.026 s
//	32:          1.745 / 1.081 s
//
// (the pool taken as a stack, chains scattered: 1.978 / 1.108 s). 8 and 16
// are within 1 % of each other and the smaller was kept; past 16 the
// summaries read beyond the chain's end cost more than the batch saves.
const probeAheadBatch = 8

// probeSerially, set only by tests, makes a mount on a single-copy backend
// read one summary area at a time, as the walk or the sweep asks.
var probeSerially bool

// prober reads a mount's probes. On a redundant backend each is read when
// asked (probeSegment): it is a scan of every replica that may heal one. On
// a single-copy backend the probes come from batches of summary areas read
// ahead of them, each issued in the order the backend serves soonest
// (Backend.ReadOrder). A probe asked for and not yet read reads a batch:
// that segment, then the next ones in address order, wrapping at the end of
// the disk, of the segments expected, skipping what was read already. A
// walk's batch stops once what it has read shows where the chain ends
// (chainEnds): the rest lie off it. A probe read ahead and never asked for
// is dropped: it reaches no decoded state, so it heals, quarantines and
// zeroes nothing. The results are the ones one read per probe gives
// (probeCopy): a plain read changes nothing on the platter.
type prober struct {
	l          *LLD
	mr         disk.MultiReader // nil on a single-copy backend
	sum, first []byte
	ahead      map[int]aheadProbe
	expect     []int  // ascending
	read       []bool // by segment: read by some batch
	reads      int    // summary areas read
}

type aheadProbe struct {
	p   segProbe
	err error
}

// newProber returns the prober of a mount. sum holds a segment's summary
// area; first, as long, replicasAgree's first copy on a redundant backend.
func (l *LLD) newProber(sum, first []byte) *prober {
	mr, _ := l.dsk.(disk.MultiReader)
	return &prober{l: l, mr: mr, sum: sum, first: first, ahead: make(map[int]aheadProbe), read: make([]bool, l.lay.nSegments)}
}

// expecting sets the segments batches read ahead, ascending, and forgets
// what earlier batches read.
func (a *prober) expecting(segs []int) {
	a.expect = segs
	clear(a.ahead)
	clear(a.read)
}

// probe returns what segment i's summary area holds. seq is the sequence
// number a walk expects i to show, 0 for a sweep that reads every segment.
func (a *prober) probe(i int, seq uint32) (segProbe, error) {
	l := a.l
	if a.mr != nil {
		a.reads++
		return l.probeSegment(a.mr, i, a.sum, a.first)
	}
	if r, ok := a.ahead[i]; ok {
		delete(a.ahead, i)
		return r.p, r.err
	}
	batch := []int{i}
	from, _ := slices.BinarySearch(a.expect, i+1)
	for k := 0; k < len(a.expect) && len(batch) < probeAheadBatch && !probeSerially; k++ {
		if s := a.expect[(from+k)%len(a.expect)]; s != i && !a.read[s] {
			batch = append(batch, s)
		}
	}
	offs, lens := make([]int64, len(batch)), make([]int, len(batch))
	for k, s := range batch {
		offs[k], lens[k] = l.lay.sumOff(s, 0), len(a.sum)
	}
	for _, k := range l.dsk.ReadOrder(offs, lens) {
		if seq != 0 && a.chainEnds(i, seq) {
			break
		}
		s := batch[k]
		p, err := l.probeCopy(s, a.sum)
		a.read[s] = true
		a.reads++
		a.ahead[s] = aheadProbe{p, err}
	}
	r := a.ahead[i]
	delete(a.ahead, i)
	return r.p, r.err
}

// chainEnds reports whether the probes in hand show where a walk from
// segment i, expected with sequence number seq, stops (walkChain): they
// follow its links from i to a segment that does not continue the chain.
func (a *prober) chainEnds(i int, seq uint32) bool {
	for n := 0; n <= len(a.read); n++ {
		r, ok := a.ahead[i]
		if !ok {
			return false
		}
		next, ok := r.p.chainNext(seq)
		if r.err != nil || !ok {
			return true
		}
		i, seq = next, nextSeq(seq)
	}
	return true
}

// chainNext is the one rule for the chain's step: a walk that expects
// the segment p probed to show sequence number seq goes on past it, to the
// successor it returns, when the segment's newest summary shows seq and
// names one. Both the walk (walkChain) and the read-ahead that stops where
// the walk will (chainEnds) take it.
func (p *segProbe) chainNext(seq uint32) (int, bool) {
	if p.unreadable || p.si == nil || p.si.seq != seq || p.si.next == noSegment {
		return -1, false
	}
	return int(p.si.next), true
}

// metaNewestAcross reads a metadata span whose replica copies may hold
// different generations — a crashed metadata write can persist on a
// subset of a mirror's replicas, leaving every copy internally valid but
// disagreeing about which generation the slot holds. Accepting "any copy
// that parses" then makes recovery depend on which replica a rotated
// read happens to serve, and leaves the losing generation in place to
// resurface on a later mount or in the offline checker. This scans every
// live replica for the newest copy parse accepts, then checks every live
// replica again pinned to that copy byte for byte (VerifyReplicas, not a
// read that stops at the first copy passing), so the copy lands in buf and
// each replica holding an older generation, garbage, or the same
// generation over other leftover bytes past its end is healed to it,
// converging the image. Returns found=false (nil error) when no replica
// holds a parseable copy.
func (l *LLD) metaNewestAcross(mr disk.MultiReader, buf []byte, off int64, parse func([]byte) (uint64, bool)) (found bool, err error) {
	var bestTS uint64
	best := make([]byte, len(buf))
	_, scanErr := mr.VerifyReplicas(buf, off, func(b []byte) bool {
		if ts, ok := parse(b); ok && (!found || ts > bestTS) {
			bestTS, found = ts, true
			copy(best, b)
		}
		return false // scan only: stamp every copy, adopt and heal below
	})
	if !found {
		if scanErr != nil && !errors.Is(scanErr, disk.ErrNoValidReplica) {
			return false, scanErr
		}
		return false, nil
	}
	healed, err := mr.VerifyReplicas(buf, off, func(b []byte) bool { return bytes.Equal(b, best) })
	if healed > 0 {
		atomic.AddInt64(&l.stats.DegradedReads, 1)
		atomic.AddInt64(&l.stats.SelfHeals, int64(healed))
	}
	return true, err
}

// sweepPerSlot, set only by tests, sends every segment to probeSegmentMulti.
var sweepPerSlot bool

// replicasAgree reads every live replica's copy of len(p) bytes at off in
// one scan-only pass, which heals nothing, and reports whether all
// Replicas() copies read and are byte-identical; p then holds them. The
// first copy is kept in first, as long as p.
func (l *LLD) replicasAgree(mr disk.MultiReader, p, first []byte, off int64) bool {
	if sweepPerSlot {
		return false
	}
	seen, same := 0, true
	_, _ = mr.VerifyReplicas(p, off, func(b []byte) bool {
		if seen == 0 {
			copy(first, b)
		} else if same {
			same = bytes.Equal(first, b)
		}
		seen++
		return false
	})
	return same && seen == mr.Replicas()
}

// probeSegmentMulti is probeSegment over a redundant backend whose copies
// of the segment's summary area differ, or could not all be read: each slot
// adopts the newest copy across replicas that decodes as a valid summary
// for this segment (metaNewestAcross), so a seal that persisted on only
// a subset of replicas is seen — and replicated everywhere — rather than
// won or lost by replica rotation. A copy that rotted while a sibling
// replica stayed intact is served around and healed the same way, so it
// never quarantines the segment. A slot no copy can decode (empty,
// foreign, torn, or rotted everywhere) falls back to a plain read so the
// torn-vs-rot classifier sees the same evidence it would on one platter.
func (l *LLD) probeSegmentMulti(mr disk.MultiReader, i int, sum []byte) (segProbe, error) {
	lay := l.lay
	var unread [2]bool
	for slot := 0; slot < 2; slot++ {
		buf := sum[slot*lay.summarySize : (slot+1)*lay.summarySize]
		off := lay.sumOff(i, slot)
		found, err := l.metaNewestAcross(mr, buf, off, func(b []byte) (uint64, bool) {
			si, e := decodeSummary(b, lay, i)
			if e != nil {
				return 0, false
			}
			return si.writeTS, true
		})
		switch {
		case err == nil && found:
		case err == nil || errors.Is(err, disk.ErrNoValidReplica):
			if err := l.dskRead(buf, off); err != nil {
				if !errors.Is(err, disk.ErrUnreadable) {
					return segProbe{}, err
				}
				unread[slot] = true
			}
		case errors.Is(err, disk.ErrUnreadable):
			unread[slot] = true
		default:
			return segProbe{}, err
		}
	}
	p := classifySlots(sum, lay, i, unread)
	p.divergent = true
	return p, nil
}

// walkChain follows the log's chain from the segment the checkpoint names,
// seg, opened with sequence number seq: each segment whose newest summary
// shows the sequence number the walk expects belongs to it, and names the
// next. probe reads (or looks up) a segment's summaries. The walk stops at
// the first segment that does not show it: one the log never opened again.
// It returns that segment and the sequence number the log opens it with,
// and how many segments it followed. A non-empty reason says the walk cannot
// vouch that it met every segment written since the checkpoint, so the
// mount must probe them all.
func (l *LLD) walkChain(seg int, seq uint32, floor uint64, probe func(seg int, seq uint32) (*segProbe, error)) (tail int, tailSeq uint32, n int, reason string, err error) {
	if seg < 0 {
		return -1, 0, 0, "the checkpoint names no chain start", nil
	}
	for ; n <= l.lay.nSegments; n++ {
		p, err := probe(seg, seq)
		if err != nil {
			return -1, 0, n, "", err
		}
		if next, ok := p.chainNext(seq); ok {
			seg, seq = next, nextSeq(seq)
			continue
		}
		switch {
		case p.unreadable:
			return -1, 0, n, fmt.Sprintf("segment %d's summary is unreadable", seg), nil
		case p.si != nil && p.si.seq == seq:
			return -1, 0, n, fmt.Sprintf("segment %d names no successor", seg), nil
		case p.si != nil && seqAtOrAfter(p.si.seq, seq):
			return -1, 0, n, fmt.Sprintf("segment %d was opened again since the checkpoint (sequence %d, not %d)", seg, p.si.seq, seq), nil
		case p.suspectTS > floor:
			// A torn summary of the generation the walk expects: the log
			// may have gone on past it, and the successor it named is lost.
			return -1, 0, n, fmt.Sprintf("segment %d's summary is torn where the chain ends", seg), nil
		}
		return seg, seq, n, "", nil
	}
	return -1, 0, n, "the chain is longer than the disk", nil
}

// recoverSweep reads the summaries written since the checkpoint and
// rebuilds the state. floor is the newest checkpoint's timestamp: records at
// or below it are already reflected in the checkpoint-loaded state
// (seeded=true), are skipped, and the rest are replayed over that state.
// With no checkpoint, floor is 0 and the sweep starts empty.
//
// The chain. Every segment the log opened since the checkpoint is on the
// chain that starts where the checkpoint says (walkChain), so the mount
// probes those and takes every other segment's state from the checkpoint.
// full, when not empty, is why the mount must instead probe every segment,
// in ascending order, as paper §3.6 does; so must a mount whose walk cannot
// vouch for the chain. On one platter both read their probes ahead in
// batches (prober). Both rest on the reuse rule (segment.go cool): no
// segment opened since the newest durable checkpoint's chain start is
// reused before a newer one is durable, so every record newer than the
// checkpoint survives in its summary. What the log opens
// next, where the chain ends, is left in l.succ and l.openSeq (l.succ -1
// when the chain cannot be continued).
//
// verifyData is the read-back of mapped payloads that ends the sweep:
// verifyRecoveredData, which leaves out the segments trusted reports (Verify's
// trusts none), or the per-block pass tests hold it against, which leaves out
// none.
func (l *LLD) recoverSweep(floor uint64, seeded bool, verifyData verifyFunc, full string) error {
	lay := l.lay
	began := l.dsk.Now()

	type segRecord struct {
		si *summaryInfo
		id int
	}
	// decoded holds what the probes found, by segment; a segment not probed
	// reads as empty, which keeps its checkpoint state. decodeSummary copies
	// everything out of the shared read buffer. A non-media read error ends
	// the mount.
	decoded := make([]segProbe, lay.nSegments)
	sum, first := make([]byte, 2*lay.summarySize), []byte(nil)
	if _, ok := l.dsk.(disk.MultiReader); ok {
		first = make([]byte, len(sum))
	}
	pr := l.newProber(sum, first)
	probe := func(i int, seq uint32) (*segProbe, error) {
		p, err := pr.probe(i, seq)
		decoded[i] = p
		return &decoded[i], err
	}
	report := RecoveryReport{CheckpointTS: floor}
	start, startSeq := l.succ, l.ckptSeq
	tail, tailSeq := -1, uint32(0)
	// walked marks the segments the walk met; vouched, that it met every
	// segment the log opened since the checkpoint.
	walked := make([]bool, lay.nSegments)
	walk := func(probe func(int, uint32) (*segProbe, error)) (string, error) {
		var reason string
		var err error
		tail, tailSeq, report.ChainSegments, reason, err = l.walkChain(start, startSeq, floor, func(i int, seq uint32) (*segProbe, error) {
			walked[i] = true
			return probe(i, seq)
		})
		return reason, err
	}
	if full == "" {
		// The log opens segments in address order (segment.go
		// linkSuccessor), and those it can have opened since the checkpoint
		// are the ones the checkpoint shows free or holding no block.
		var expect []int
		for i := range l.segs {
			if s := &l.segs[i]; s.state == segFree || s.state == segLive && s.mapped == 0 {
				expect = append(expect, i)
			}
		}
		pr.expecting(expect)
		var err error
		if full, err = walk(probe); err != nil {
			return err
		}
	}
	vouched := full == ""
	if full != "" {
		report.FullSweep = full
		pr.expecting(disk.InOrder(lay.nSegments)) // every segment
		for i := range decoded {
			if _, err := probe(i, 0); err != nil {
				return err
			}
		}
		// Where the log goes on, if the chain can still be followed.
		reason, _ := walk(func(i int, _ uint32) (*segProbe, error) { return &decoded[i], nil })
		report.ChainSegments = 0
		if vouched = reason == ""; !vouched {
			tail = -1
		}
	}
	l.stats.RecoverySweepSegments += int64(pr.reads)
	report.SweptSegments = pr.reads

	// lastValid is the newest write timestamp any intact summary (or the
	// checkpoint) acknowledges. It is the pivot of the torn-vs-rot
	// classification: a suspect slot claiming a timestamp the rest of the
	// log has already moved past cannot be an in-flight write that tore at
	// the crash — something else wrote durably after it, so the slot was
	// once whole and has since rotted.
	//
	// mark is the largest durable watermark any intact summary carries:
	// every record stamped at or below it was on the platter before that
	// summary was written, whichever boot wrote it.
	lastValid := floor
	mark := l.durableMark // the checkpoint's, 0 without one
	// maxSeq is the latest sequence number a probed summary shows.
	var maxSeq uint32
	seen := false
	for i := range decoded {
		if decoded[i].divergent {
			report.DivergentSegments++
		}
		si := decoded[i].si
		if si == nil {
			continue
		}
		if si.writeTS > lastValid {
			lastValid = si.writeTS
		}
		if si.mark > mark {
			mark = si.mark
		}
		if !seen || !seqAtOrAfter(maxSeq, si.seq) {
			maxSeq, seen = si.seq, true
		}
	}
	l.durableMark = mark
	report.DurableMark = mark

	type zeroSlot struct{ seg, slot int }
	var toZero []zeroSlot
	var summaries []segRecord
	for i := range decoded {
		p := &decoded[i]
		si := p.si
		quarantine, reason := false, ""
		switch {
		case p.unreadable:
			// The media refused a summary slot. If the checkpoint knows the
			// segment is free and the log has not opened it since (the chain
			// never led there, and the walk met every segment opened since),
			// nothing durable lived there; otherwise the slot may have held
			// the newest acknowledged records.
			if !seeded || l.segs[i].state != segFree || walked[i] || !vouched {
				quarantine, reason = true, "summary slot unreadable"
			}
		case p.suspectTS > floor && p.suspectTS <= lastValid &&
			(si == nil || p.suspectTS > si.writeTS):
			// Mid-log rot: an undecodable slot claims a timestamp inside the
			// acknowledged history, and no intact slot of this segment
			// supersedes it. (A suspect older than a valid sibling slot is
			// just the stale ping-pong slot decaying — benign; a suspect
			// beyond lastValid is the classic torn tail of the crashed
			// write — also benign, nothing after it was acknowledged.)
			quarantine = true
			if si == nil {
				reason = "summary corrupt mid-log"
			} else {
				reason = "newest summary slot corrupt mid-log"
			}
		}
		if quarantine {
			ts := p.suspectTS
			if si != nil && si.writeTS > ts {
				ts = si.writeTS
			}
			l.segs[i] = segInfo{state: segQuarantined, ts: ts}
			if si != nil {
				l.segs[i].seq = si.seq
			}
			report.QuarantinedSegments = append(report.QuarantinedSegments,
				QuarantinedSegment{Seg: i, Reason: reason})
			// A surviving older slot is a strict prefix of the lost newer
			// image (both are appends of the same in-memory summary), so its
			// facts were all true at their timestamps and replay them; newer
			// facts elsewhere still win by timestamp, and data mapped into
			// this segment is answered with ErrCorrupt, never served blind.
			if si != nil && si.writeTS > floor {
				summaries = append(summaries, segRecord{si: si, id: i})
			}
			continue
		}
		// Benign suspect slots are zeroed below. This is not cosmetic: as
		// lastValid grows across boots, a torn slot left in place would be
		// reclassified as mid-log rot by a later recovery.
		for _, slot := range p.suspectSlots {
			toZero = append(toZero, zeroSlot{i, slot})
		}
		if si == nil {
			// Empty, foreign, or torn summary: without a checkpoint the
			// segment holds nothing; with one, trust the checkpoint state.
			if !seeded {
				l.segs[i] = segInfo{state: segFree}
			}
			continue
		}
		if si.writeTS <= floor {
			// Entirely covered by the checkpoint; its state (often free:
			// the cleaner retired it) comes from the checkpoint.
			continue
		}
		summaries = append(summaries, segRecord{si: si, id: i})
		l.segs[i] = segInfo{state: segLive, ts: si.writeTS, seq: si.seq}
	}
	if len(toZero) > 0 {
		zero := make([]byte, lay.summarySize)
		for _, z := range toZero {
			if err := l.dskWrite(zero, lay.sumOff(z.seg, z.slot)); err != nil {
				return err
			}
		}
		report.TornSlotsCleared = len(toZero)
	}

	// Merge every record, find the newest committed timestamp, and replay
	// in timestamp order.
	type record struct {
		ts        uint64
		committed bool
		entry     *blockEntry
		seg       int
		tuple     *tupleRec
	}
	var recs []record
	maxTS, lastCommitted := floor, floor
	for _, sr := range summaries {
		if sr.si.writeTS > maxTS {
			maxTS = sr.si.writeTS
		}
		for j := range sr.si.entries {
			e := &sr.si.entries[j]
			if e.ts <= floor {
				continue // covered by the checkpoint
			}
			recs = append(recs, record{ts: e.ts, committed: e.committed(), entry: e, seg: sr.id})
			if e.committed() && e.ts > lastCommitted {
				lastCommitted = e.ts
			}
			if e.ts > maxTS {
				maxTS = e.ts
			}
		}
		for j := range sr.si.tuples {
			t := &sr.si.tuples[j]
			if t.ts <= floor {
				continue
			}
			recs = append(recs, record{ts: t.ts, committed: t.committed(), tuple: t})
			if t.committed() && t.ts > lastCommitted {
				lastCommitted = t.ts
			}
			if t.ts > maxTS {
				maxTS = t.ts
			}
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ts < recs[j].ts })

	// Collect abort fences before replaying: an uncommitted record inside a
	// dead window was discarded by an earlier recovery and must stay dead.
	type window struct{ lo, hi uint64 }
	var fences []window
	for _, r := range recs {
		if r.tuple != nil && r.tuple.kind == tFence {
			a := r.tuple.args
			fences = append(fences, window{
				lo: uint64(a[0]) | uint64(a[1])<<32,
				hi: uint64(a[2]) | uint64(a[3])<<32,
			})
		}
	}
	fenced := func(ts uint64) bool {
		for _, w := range fences {
			if w.lo < ts && ts < w.hi {
				return true
			}
		}
		return false
	}

	// Replay into the block-number map and list table themselves. On a
	// seeded mount they hold the checkpoint's state, which every replayed
	// record postdates; on a cold one they start empty.
	discarded := 0
	for _, r := range recs {
		if !r.committed {
			if r.ts > lastCommitted {
				discarded++ // incomplete atomic recovery unit: discard
				continue
			}
			if fenced(r.ts) {
				continue // discarded by an earlier recovery: stays dead
			}
		}
		if r.entry != nil {
			l.replayEntry(r.entry, r.seg)
		} else {
			l.replayTuple(r.tuple)
		}
	}

	l.installRecovered()
	// A still-live segment whose blocks all died and whose records are all
	// at or below the checkpoint floor holds nothing recovery needs.
	for i := range l.segs {
		si := &l.segs[i]
		if si.state == segLive && si.mapped == 0 && si.ts <= floor {
			si.state = segFree
		}
	}
	// The sweep decoded every live segment's newest summary: keep what each
	// that still holds a block names, so the cleaner never reads one back.
	for i := range decoded {
		if si := decoded[i].si; si != nil && l.segs[i].state == segLive && l.segs[i].mapped > 0 {
			l.segs[i].names = sumNames(si.entries)
		}
	}
	// A volatile write cache can persist a summary while dropping the data
	// sectors it describes — on every replica. The replay above trusted each
	// surviving summary's data locations (sound under in-order writes, where
	// sealing orders data before summary; not under reordered persistence).
	// Read the payloads back and quarantine segments whose summaries outlived
	// their data; without this pass the mount reports an undegraded image
	// whose reads fail. Only writes no completed drain covered can be lost
	// that way, so only the segments stamped above the mark are read (DESIGN
	// §8 "Bounded by the durable watermark"): a segment at or below it had
	// its summary and every byte the summary describes on the platter, the
	// open segment is the only place lld writes data, a cleaned segment is
	// reused only after a drain made every re-homed copy durable, and the
	// boundary sector a later append rewrites carries its old bytes however
	// it tears. That holds below the checkpoint floor too: what a seal
	// can tear there is the sector it is appending into, in a segment that
	// is by construction above the mark. A segment that showed a suspect
	// slot had something in flight and is read whatever its stamp.
	trusted := func(seg int) bool {
		return l.segs[seg].ts <= mark && len(decoded[seg].suspectSlots) == 0
	}
	swept := l.dsk.Now()
	verifyData(l, &report, trusted)
	report.SweepTime, report.VerifyTime = swept-began, l.dsk.Now()-swept
	l.ts = maxTS + 1
	if discarded > 0 {
		// Schedule an abort fence over (lastCommitted, l.ts): the discarded
		// records all have timestamps in that window. Open emits it as the
		// new boot's first record.
		l.stats.RecoveryDiscards += int64(discarded)
		l.fenceLo, l.fenceHi = lastCommitted, maxTS+1
	}
	report.DiscardedRecords = discarded
	l.recReport = report
	if tail >= 0 && (!seen || !seqAtOrAfter(maxSeq, tailSeq)) {
		l.succ, l.openSeq = tail, tailSeq-1
	} else if l.succ = -1; seen && !seqAtOrAfter(l.openSeq, maxSeq) {
		l.openSeq = maxSeq
	}
	return nil
}

// verifyFunc is the data read-back that ends a sweep. trusted reports the
// segments the crash cannot have touched.
type verifyFunc func(l *LLD, report *RecoveryReport, trusted func(seg int) bool)

// verifyRecoveredData checks that every mapped block of a segment the
// crash could have touched still has its payload on the platter(s), and
// quarantines any segment holding a block that does not. It reads in
// platter order, one request per live extent (extent.go); a segment's walk
// ends at its first lost block. On replicated backends the check also heals
// copies that diverged (a mirror leg whose cache dropped or tore the data
// while its sibling's persisted). It runs only on unclean mounts — the fsck
// side of recovery — and is not a scrub: rot in a trusted segment is left
// to the read path's checksum, Scrub and Verify (which trusts no segment).
func (l *LLD) verifyRecoveredData(report *RecoveryReport, trusted func(seg int) bool) {
	v := l.newVerifier()
	for run := v.nextRun(); run != nil; run = v.nextRun() {
		seg := int(run[0].seg)
		if l.segs[seg].state == segQuarantined {
			continue
		}
		if trusted(seg) {
			v.VerifySkippedSegments++
			for _, sp := range run {
				if sp.stored > 0 {
					v.VerifySkippedBlocks++
				}
			}
			continue
		}
		lost := v.segment(run, func(_ liveSpan, _ []byte, err error) error { return err })
		if lost != nil {
			l.segs[seg].state = segQuarantined
			report.QuarantinedSegments = append(report.QuarantinedSegments,
				QuarantinedSegment{Seg: seg, Reason: "block data lost under a surviving summary"})
		}
	}
	v.finish()
	report.VerifyCounts = v.VerifyCounts
}

// replayBlock returns b's entry in the block-number map, growing the map to
// cover it. Replay extends the map to the largest id a record names, freed
// ids included; installRecovered sets the fresh watermark above the last
// live one, and the map may hold freed entries past it (growBlocks). The map
// grows as append grows it, which reallocates far less often than one
// growBlocks per new high id. Callers have checked b against the address
// space (badB). The map may move, so a returned pointer is dead at the next
// call.
func (l *LLD) replayBlock(b uint32) *blockInfo {
	for len(l.blocks) <= int(b) {
		l.blocks = append(l.blocks, blockInfo{})
	}
	return &l.blocks[b]
}

// replayEntry installs a block data-location assignment.
func (l *LLD) replayEntry(e *blockEntry, seg int) {
	if e.bid == ld.NilBlock || int(e.bid) > l.lay.maxBlocks ||
		int(e.off)+int(e.stored) > l.lay.dataCap() || max(e.stored, e.orig) > uint32(l.lay.maxBlockSize) {
		l.stats.RecoveryAnomalies++
		return
	}
	b := l.replayBlock(uint32(e.bid))
	b.setData(l.lay.pack(seg, e.off), e.stored, e.orig, e.flags&entryCompressed != 0, e.crc)
}

// replayTuple applies one tuple's field assignments. The usage accounting is
// left alone: installRecovered recounts it from the final map. A list exists
// while it has an l.lists entry, so a fact about a list with none stores
// nothing.
func (l *LLD) replayTuple(t *tupleRec) {
	badB := func(b uint32) bool { return b == 0 || int(b) > l.lay.maxBlocks }
	// freed is a block with no existence, linkage or data as of this record.
	var freed blockInfo
	setEdge := func(lid uint32, pred uint32, head bool, val ld.BlockID) {
		if head {
			if li := l.lists[ld.ListID(lid)]; li != nil {
				li.first = val
			}
		} else if !badB(pred) {
			l.replayBlock(pred).next = val
		}
	}
	// newList installs a fresh entry for lid after pred in the list of
	// lists, in place of lid's node or ghost.
	newList := func(lid ld.ListID, first ld.BlockID, pred ld.ListID, hints uint32) {
		l.dropReplayNode(lid)
		li := &listInfo{id: lid, first: first, hints: decodeHints(hints)}
		l.linkListAfter(li, l.replayNode(pred))
		l.lists[lid] = li
	}
	switch t.kind {
	case tAlloc:
		// bid, lid, next, pred, flags(1=head)
		if badB(t.args[0]) {
			l.stats.RecoveryAnomalies++
			return
		}
		// A fresh allocation carries no data.
		*l.replayBlock(t.args[0]) = blockInfo{
			lid: ld.ListID(t.args[1]), next: ld.BlockID(t.args[2]), flags: bAllocated,
		}
		setEdge(t.args[1], t.args[3], t.args[4]&1 != 0, ld.BlockID(t.args[0]))
	case tFree:
		// bid, lid, pred, succ, flags(1=was head)
		if badB(t.args[0]) {
			l.stats.RecoveryAnomalies++
			return
		}
		*l.replayBlock(t.args[0]) = freed
		setEdge(t.args[1], t.args[2], t.args[4]&1 != 0, ld.BlockID(t.args[3]))
	case tNewList:
		lid := ld.ListID(t.args[0])
		if lid == ld.NilList {
			l.stats.RecoveryAnomalies++
			return
		}
		newList(lid, ld.NilBlock, ld.ListID(t.args[1]), t.args[2])
	case tDelList:
		lid := ld.ListID(t.args[0])
		if lid == ld.NilList {
			l.stats.RecoveryAnomalies++
			return
		}
		l.dropReplayNode(lid)
	case tMoveList:
		lid := ld.ListID(t.args[0])
		if lid == ld.NilList {
			l.stats.RecoveryAnomalies++
			return
		}
		// The id moves even when the list is gone: a later record that
		// recreates a list after it must land where it did when it was
		// logged. installRecovered drops such ghosts.
		li := l.replayNode(lid)
		if li == nil {
			li = &listInfo{id: lid}
			if l.ghosts == nil {
				l.ghosts = make(map[ld.ListID]*listInfo)
			}
			l.ghosts[lid] = li
		} else {
			l.unlinkList(li)
		}
		pred := l.replayNode(ld.ListID(t.args[1]))
		if pred == li {
			pred = nil // a list after itself goes to the front, as a new one does
		}
		l.linkListAfter(li, pred)
	case tCommit:
		// Pure marker; its effect was computing lastCommitted.
	case tBlockState:
		if badB(t.args[0]) {
			l.stats.RecoveryAnomalies++
			return
		}
		b := l.replayBlock(t.args[0])
		b.flags |= bAllocated
		b.next = ld.BlockID(t.args[1])
		b.lid = ld.ListID(t.args[2])
	case tBlockFree:
		if badB(t.args[0]) {
			l.stats.RecoveryAnomalies++
			return
		}
		*l.replayBlock(t.args[0]) = freed
	case tListState:
		lid := ld.ListID(t.args[0])
		if lid == ld.NilList {
			l.stats.RecoveryAnomalies++
			return
		}
		newList(lid, ld.BlockID(t.args[1]), ld.ListID(t.args[2]), t.args[3])
	case tDataAt:
		if badB(t.args[0]) {
			l.stats.RecoveryAnomalies++
			return
		}
		b := l.replayBlock(t.args[0])
		if t.args[1] == 0 {
			b.clearData()
			return
		}
		seg := int(t.args[1]) - 1
		if seg < 0 || seg >= len(l.segs) || int(t.args[2])+int(t.args[3]) > l.lay.dataCap() ||
			max(t.args[3], t.args[4]) > uint32(l.lay.maxBlockSize) {
			l.stats.RecoveryAnomalies++
			return
		}
		b.setData(l.lay.pack(seg, t.args[2]), t.args[3], t.args[4], t.args[5]&2 != 0, t.args[6])
	case tFence:
		// Its effect (the dead window) was collected before the replay.
	default:
		l.stats.RecoveryAnomalies++
	}
}

// replayNode returns lid's node in the list of lists during a replay: its
// list's, its ghost's, or nil (NilList has none).
func (l *LLD) replayNode(lid ld.ListID) *listInfo {
	if li := l.lists[lid]; li != nil {
		return li
	}
	return l.ghosts[lid]
}

// dropReplayNode takes lid's list or ghost out of the list table and the
// list of lists.
func (l *LLD) dropReplayNode(lid ld.ListID) {
	if li := l.replayNode(lid); li != nil {
		l.unlinkList(li)
		delete(l.lists, lid)
		delete(l.ghosts, lid)
	}
}

// installRecovered derives what the replayed records do not state: it drops
// the ghost ids tMoveList left in the list of lists, scrubs unallocated ids,
// recounts the usage table, and rebuilds the list census and free pools.
func (l *LLD) installRecovered() {
	for _, g := range l.ghosts {
		l.unlinkList(g)
	}
	l.ghosts = nil
	// Blocks. Data belonging to a non-existent block is simply dropped.
	l.liveBytes = 0
	for i := range l.segs {
		l.segs[i].live, l.segs[i].mapped = 0, 0
	}
	maxUsed := ld.BlockID(0)
	for i := 1; i < len(l.blocks); i++ {
		bi := &l.blocks[i]
		if !bi.allocated() {
			*bi = blockInfo{}
			continue
		}
		maxUsed = ld.BlockID(i)
		if seg := l.segOf(bi); bi.hasData() && seg >= 0 && seg < len(l.segs) {
			l.segs[seg].live += int64(bi.stored)
			l.segs[seg].mapped++
			l.liveBytes += int64(bi.stored)
		}
	}
	for i := range l.segs {
		if l.segs[i].mapped == 0 {
			l.segs[i].names = nil // the checkpoint's, of blocks replay moved on (unmap)
		}
	}
	// A block's tag can name a list whose own records (its tNewList, or
	// a tListState a move logged) were all lost with a quarantined
	// summary. The tags are the newest surviving membership facts, so the
	// list demonstrably existed: resurrect it rather than strand — or
	// worse, free — its surviving members. The chain order died with the
	// list's records; re-link the members in block-id order, which is
	// deterministic and keeps every one reachable.
	var lostLids []ld.ListID
	lost := make(map[ld.ListID][]ld.BlockID)
	for i := 1; i < len(l.blocks); i++ {
		bi := &l.blocks[i]
		if !bi.allocated() || bi.lid == ld.NilList {
			continue
		}
		if _, ok := l.lists[bi.lid]; ok {
			continue
		}
		if len(lost[bi.lid]) == 0 {
			lostLids = append(lostLids, bi.lid)
		}
		lost[bi.lid] = append(lost[bi.lid], ld.BlockID(i))
	}
	sort.Slice(lostLids, func(i, j int) bool { return lostLids[i] < lostLids[j] })
	for _, lid := range lostLids {
		members := lost[lid] // ascending block id by construction
		for j, b := range members {
			next := ld.NilBlock
			if j+1 < len(members) {
				next = members[j+1]
			}
			l.blocks[b].next = next
		}
		li := &listInfo{id: lid, first: members[0]}
		l.linkListAfter(li, l.tail)
		l.lists[lid] = li
		l.stats.RecoveryAnomalies++
	}
	// Census and chain sanity: count members per list, guarding against
	// cycles, dangling pointers, and half-applied membership facts — a
	// quarantined summary can take one side of a block move with it,
	// leaving a block reachable from two chains or from a chain its own
	// list tag disowns. The tag is the newest surviving membership fact,
	// so a chain is truncated where it reaches a block the tag assigns
	// elsewhere, or one an earlier chain already claimed.
	owner := make(map[ld.BlockID]ld.ListID)
	for li := l.head; li != nil; li = li.next {
		lid := li.id
		n := 0
		prev := ld.NilBlock
		for b := li.first; b != ld.NilBlock; b = l.blocks[b].next {
			if int(b) >= len(l.blocks) || !l.blocks[b].allocated() || n > len(l.blocks) {
				// Truncate the chain at the anomaly.
				if prev == ld.NilBlock {
					li.first = ld.NilBlock
				} else {
					l.blocks[prev].next = ld.NilBlock
				}
				l.stats.RecoveryAnomalies++
				break
			}
			if _, claimed := owner[b]; claimed || l.blocks[b].lid != lid {
				if prev == ld.NilBlock {
					li.first = ld.NilBlock
				} else {
					l.blocks[prev].next = ld.NilBlock
				}
				l.stats.RecoveryAnomalies++
				break
			}
			owner[b] = lid
			n++
			prev = b
		}
		li.count = n
	}
	// Free pools: derived, so rebuilt rather than recovered.
	l.nextFresh = maxUsed + 1
	maxList := ld.ListID(0)
	for lid := range l.lists {
		if lid > maxList {
			maxList = lid
		}
	}
	l.nextList = maxList + 1
	l.rebuildFreePools()
}
