package torture

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/ld"
	"repro/internal/lld"
)

// The shadow logical model. The workload records every operation the
// Logical Disk acknowledged; after a crash and recovery the model says
// which observable states are legal:
//
//   - A block's readable value must be one the workload actually wrote
//     and had acknowledged (or had in flight at the instant of the
//     loss). Anything else is ghost data — including values written
//     inside an ARU that never committed, which recovery promises to
//     abort.
//   - Writes older than the durability floor — the newest version
//     acknowledged before a successful Flush + device Sync — can never
//     reappear: the floor's record is on the platter and recovery picks
//     newest-timestamp-wins.
//   - A block whose floor version exists must be readable (or the
//     recovery report must admit degradation). Blocks above the floor
//     may legally vanish: their records were still in the write cache.
//   - ld.ErrCorrupt is acceptable only when the recovery report says
//     the image is degraded.
//
// Every value the workload writes is unique (it embeds the seed and a
// monotonic counter), so value equality identifies the exact
// acknowledged version and ghost detection needs no separate bookkeeping.

// version is one acknowledged state of a block: a written value, or a
// tombstone (val == nil) for a delete. list records the block's list
// at acknowledgment time, for the floor membership check.
type version struct {
	val  []byte
	list ld.ListID
}

// bstate is the shadow state of one logical block number (spanning
// delete + reallocate reuse: the timeline just continues).
type bstate struct {
	vers  []version
	floor int // index into vers durable at the last Flush+Sync; -1 none
	// inflight holds values that may legally appear even though they
	// were never acknowledged: the write racing the power loss, or the
	// writes of an ARU whose EndARU was in flight.
	inflight [][]byte
}

func (b *bstate) acceptableValue(got []byte) bool {
	lo := 0
	if b.floor >= 0 {
		lo = b.floor
	}
	for i := lo; i < len(b.vers); i++ {
		if b.vers[i].val != nil && bytes.Equal(b.vers[i].val, got) {
			return true
		}
	}
	for _, v := range b.inflight {
		if bytes.Equal(v, got) {
			return true
		}
	}
	return false
}

// preFloorValue reports whether got matches an acknowledged version
// older than the durability floor. Such a value must never surface on an
// undegraded image (the floor's record is on the platter and newest
// wins), but when the newer record was destroyed and its segment
// quarantined, the older version is recovery's best surviving evidence.
func (b *bstate) preFloorValue(got []byte) bool {
	for i := 0; i < b.floor && i < len(b.vers); i++ {
		if b.vers[i].val != nil && bytes.Equal(b.vers[i].val, got) {
			return true
		}
	}
	return false
}

func (b *bstate) mayNotExist(degraded bool) bool {
	if degraded || b.floor < 0 {
		return true
	}
	for i := b.floor; i < len(b.vers); i++ {
		if b.vers[i].val == nil {
			return true // a delete at or above the floor may have won
		}
	}
	return false
}

// model is the full shadow state.
type model struct {
	blocks map[ld.BlockID]*bstate
	lists  map[ld.ListID]bool
}

func newModel() *model {
	return &model{blocks: make(map[ld.BlockID]*bstate), lists: make(map[ld.ListID]bool)}
}

func (m *model) state(b ld.BlockID) *bstate {
	bs := m.blocks[b]
	if bs == nil {
		bs = &bstate{floor: -1}
		m.blocks[b] = bs
	}
	return bs
}

func (m *model) ack(b ld.BlockID, val []byte, list ld.ListID) {
	m.state(b).vers = append(m.state(b).vers, version{val: val, list: list})
}

// advanceFloor marks every block's newest acknowledged version durable:
// the caller just saw Flush and a device-level Sync both succeed.
func (m *model) advanceFloor() {
	for _, bs := range m.blocks {
		if len(bs.vers) > 0 {
			bs.floor = len(bs.vers) - 1
		}
	}
}

// verify checks a recovered instance against the model. It returns the
// first violation found, nil when the recovered state is legal.
func (m *model) verify(l *lld.LLD, rep lld.RecoveryReport) error {
	degraded := rep.Degraded()
	if viol := l.CheckInvariants(); len(viol) != 0 {
		return fmt.Errorf("recovered state violates invariants (degraded=%v, quarantined=%d): %v",
			degraded, len(rep.QuarantinedSegments), viol)
	}
	buf := make([]byte, l.MaxBlockSize())
	bids := make([]ld.BlockID, 0, len(m.blocks))
	for b := range m.blocks {
		bids = append(bids, b)
	}
	sort.Slice(bids, func(i, j int) bool { return bids[i] < bids[j] })
	reads := make([]ld.BlockRead, len(bids)) // what each Read below returned
	vals := make([][]byte, len(bids))
	for i, bid := range bids {
		bs := m.blocks[bid]
		n, err := l.Read(bid, buf)
		reads[i], vals[i] = ld.BlockRead{N: n, Err: err}, append([]byte(nil), buf[:n]...)
		switch {
		case err == nil:
			if !bs.acceptableValue(buf[:n]) {
				if degraded && bs.preFloorValue(buf[:n]) {
					// An acknowledged-but-superseded version resurfaced
					// because the newer record's segment was quarantined;
					// with the degradation admitted, the old version is
					// the best surviving evidence, not a ghost.
					continue
				}
				return fmt.Errorf("block %d: recovered %d bytes matching no acknowledged version (degraded=%v, preFloor=%v, floor=%d, vers=%d, inflight=%d)",
					bid, n, degraded, bs.preFloorValue(buf[:n]), bs.floor, len(bs.vers), len(bs.inflight))
			}
		case errors.Is(err, ld.ErrBadBlock):
			if !bs.mayNotExist(degraded) {
				return fmt.Errorf("block %d: durable below the floor but recovered as nonexistent", bid)
			}
		case errors.Is(err, ld.ErrCorrupt):
			if !degraded {
				return fmt.Errorf("block %d: reads corrupt but the recovery report admits no degradation", bid)
			}
		default:
			return fmt.Errorf("block %d: unexpected read error after recovery: %w", bid, err)
		}
	}
	// One batch over the same blocks: every recovered image — torn tails,
	// quarantined segments, degraded mirrors — must read entry for entry as
	// it just did block by block.
	bufs := make([][]byte, len(bids))
	for i := range bufs {
		bufs[i] = make([]byte, l.MaxBlockSize())
	}
	batch, err := l.ReadBlocks(bids, bufs)
	if err != nil {
		return fmt.Errorf("ReadBlocks after recovery: %w", err)
	}
	for i, bid := range bids {
		got, want := batch[i], reads[i]
		if got.N != want.N || !bytes.Equal(bufs[i][:got.N], vals[i]) || (got.Err == nil) != (want.Err == nil) ||
			errors.Is(got.Err, ld.ErrBadBlock) != errors.Is(want.Err, ld.ErrBadBlock) ||
			errors.Is(got.Err, ld.ErrCorrupt) != errors.Is(want.Err, ld.ErrCorrupt) {
			return fmt.Errorf("block %d: ReadBlocks returned %d bytes, %v; Read returned %d bytes, %v",
				bid, got.N, got.Err, want.N, want.Err)
		}
	}
	if !degraded {
		if err := m.verifyMembership(l); err != nil {
			return err
		}
	}
	return nil
}

// verifyMembership checks that every block whose newest version is at
// the durability floor sits on the list it was acknowledged on. Blocks
// with post-floor activity are exempt — their membership records may
// legally have been lost with the cache.
func (m *model) verifyMembership(l *lld.LLD) error {
	members := make(map[ld.ListID]map[ld.BlockID]bool)
	lids, err := l.Lists()
	if err != nil {
		return fmt.Errorf("Lists after recovery: %w", err)
	}
	for _, lid := range lids {
		bs, err := l.ListBlocks(lid)
		if err != nil {
			return fmt.Errorf("ListBlocks(%d) after recovery: %w", lid, err)
		}
		set := make(map[ld.BlockID]bool, len(bs))
		for _, b := range bs {
			set[b] = true
		}
		members[lid] = set
	}
	for bid, bs := range m.blocks {
		if bs.floor < 0 || bs.floor != len(bs.vers)-1 {
			continue
		}
		v := bs.vers[bs.floor]
		if v.val == nil {
			continue // floored tombstone: nonexistence already checked
		}
		if !members[v.list][bid] {
			return fmt.Errorf("block %d: durable member of list %d but absent from it after recovery", bid, v.list)
		}
	}
	return nil
}

// errPowerLost is the workload's internal signal that the simulated
// power went out mid-operation; the run then moves to recovery.
var errPowerLost = errors.New("torture: power lost")

// workload drives a deterministic operation mix against one Logical
// Disk instance, recording acknowledgments in the shadow model. The
// operation sequence is a pure function of the seed, so the reference
// run and every crash-point run see identical histories up to the cut.
type workload struct {
	l    *lld.LLD
	r    *rig
	m    *model
	rng  *rand.Rand
	seed int64

	lists     []ld.ListID
	blocks    []ld.BlockID
	blockList map[ld.BlockID]ld.ListID
	valSeq    int64
	opIndex   int
	target    point // op-granular crash point, if any
}

func newWorkload(l *lld.LLD, r *rig, seed int64, target point) *workload {
	return &workload{
		l: l, r: r, m: newModel(),
		rng:       rand.New(rand.NewSource(seed)),
		seed:      seed,
		blockList: make(map[ld.BlockID]ld.ListID),
		target:    target,
	}
}

// genVal produces a unique, deterministic payload.
func (w *workload) genVal(size int) []byte {
	w.valSeq++
	v := make([]byte, size)
	vr := rand.New(rand.NewSource(mixSeed(w.seed, w.valSeq)))
	vr.Read(v)
	// Stamp the sequence number so even 1-byte payload collisions are
	// astronomically unlikely to alias a different version.
	for i := 0; i < len(v) && i < 8; i++ {
		v[i] = byte(w.valSeq >> (8 * i))
	}
	return v
}

// check classifies an operation error: power loss stops the run,
// anything else is a genuine failure the harness must surface.
func (w *workload) check(op string, err error) error {
	if err == nil {
		return nil
	}
	if w.r.rail.Lost() {
		return errPowerLost
	}
	return fmt.Errorf("op %d (%s): %w", w.opIndex, op, err)
}

// run executes ops operations. A nil return means either the workload
// completed or the power went out (check r.rail.Lost()); a non-nil
// return is a harness-level failure.
func (w *workload) run(ops int) error {
	for w.opIndex = 0; w.opIndex < ops; w.opIndex++ {
		if err := w.step(); err != nil {
			if errors.Is(err, errPowerLost) {
				return nil
			}
			return err
		}
		if w.target.kind == ptOp && int64(w.opIndex+1) == w.target.n {
			w.r.rail.PowerLoss(mixSeed(w.seed, w.target.n))
			return nil
		}
		if w.r.rail.Lost() {
			return nil // a schedule hook tripped inside the last op
		}
	}
	return nil
}

func (w *workload) step() error {
	// The very first ops bootstrap a list so every later op has a target.
	if len(w.lists) == 0 {
		return w.opNewList()
	}
	switch p := w.rng.Intn(100); {
	case p < 10:
		return w.opNewBlock()
	case p < 55:
		return w.opWrite()
	case p < 63:
		return w.opDelete()
	case p < 71:
		return w.opARU()
	case p < 79:
		return w.opFlush()
	case p < 85:
		return w.opFlushSync()
	case p < 90:
		return w.opClean()
	case p < 93:
		return w.opScrub()
	case p < 97:
		return w.opMove()
	default:
		return w.opNewList()
	}
}

func (w *workload) pickList() ld.ListID { return w.lists[w.rng.Intn(len(w.lists))] }

func (w *workload) opNewList() error {
	hints := ld.ListHints{Cluster: w.rng.Intn(2) == 0}
	lid, err := w.l.NewList(ld.NilList, hints)
	if err := w.check("NewList", err); err != nil {
		return err
	}
	w.lists = append(w.lists, lid)
	w.m.lists[lid] = true
	return nil
}

func (w *workload) opNewBlock() error {
	lid := w.pickList()
	bid, err := w.l.NewBlock(lid, ld.NilBlock)
	if err := w.check("NewBlock", err); err != nil {
		return err
	}
	w.blocks = append(w.blocks, bid)
	w.blockList[bid] = lid
	w.m.ack(bid, []byte{}, lid) // a fresh block reads back empty
	return nil
}

func (w *workload) opWrite() error {
	if len(w.blocks) == 0 {
		return w.opNewBlock()
	}
	bid := w.blocks[w.rng.Intn(len(w.blocks))]
	val := w.genVal(1 + w.rng.Intn(w.l.MaxBlockSize()))
	bs := w.m.state(bid)
	bs.inflight = append(bs.inflight, val)
	if err := w.check("Write", w.l.Write(bid, val)); err != nil {
		return err
	}
	bs.inflight = bs.inflight[:len(bs.inflight)-1]
	w.m.ack(bid, val, w.blockList[bid])
	return nil
}

func (w *workload) opDelete() error {
	if len(w.blocks) < 4 {
		return w.opWrite()
	}
	i := w.rng.Intn(len(w.blocks))
	bid := w.blocks[i]
	err := w.l.DeleteBlock(bid, w.blockList[bid], ld.NilBlock)
	// Acknowledged or in flight at the loss, the delete may have won
	// either way; a tombstone version makes both outcomes legal (only a
	// later Flush+Sync would pin it down, and none follows a loss).
	w.m.ack(bid, nil, w.blockList[bid])
	if err := w.check("DeleteBlock", err); err != nil {
		return err
	}
	w.blocks = append(w.blocks[:i], w.blocks[i+1:]...)
	delete(w.blockList, bid)
	return nil
}

// opARU writes 2-4 blocks inside an atomic recovery unit. Values of an
// ARU that never reached EndARU must not survive recovery (abort
// guarantee) — they stay out of the model entirely, so their appearance
// trips the ghost check. Values of an EndARU in flight at the loss may
// legally appear: they are parked as inflight.
func (w *workload) opARU() error {
	if len(w.blocks) < 4 {
		return w.opWrite()
	}
	n := 2 + w.rng.Intn(3)
	picked := make(map[ld.BlockID]bool, n)
	var bids []ld.BlockID
	for len(bids) < n {
		b := w.blocks[w.rng.Intn(len(w.blocks))]
		if !picked[b] {
			picked[b] = true
			bids = append(bids, b)
		}
	}
	vals := make([][]byte, len(bids))
	for i := range bids {
		vals[i] = w.genVal(1 + w.rng.Intn(512))
	}
	if err := w.check("BeginARU", w.l.BeginARU()); err != nil {
		return err
	}
	for i, bid := range bids {
		if err := w.check("ARU Write", w.l.Write(bid, vals[i])); err != nil {
			return err // uncommitted: vals stay ghosts
		}
	}
	for i, bid := range bids {
		bs := w.m.state(bid)
		bs.inflight = append(bs.inflight, vals[i])
	}
	if err := w.check("EndARU", w.l.EndARU()); err != nil {
		return err // EndARU in flight: vals remain (acceptable) inflight
	}
	for i, bid := range bids {
		bs := w.m.state(bid)
		bs.inflight = bs.inflight[:len(bs.inflight)-1]
		w.m.ack(bid, vals[i], w.blockList[bid])
	}
	return nil
}

func (w *workload) opFlush() error {
	return w.check("Flush", w.l.Flush(ld.FailPower))
}

// opFlushSync is the durability point: records reach the cache via
// Flush, then the platter via the device barrier. Only after both may
// the model's floor advance.
func (w *workload) opFlushSync() error {
	if err := w.check("Flush", w.l.Flush(ld.FailPower)); err != nil {
		return err
	}
	if err := w.check("Sync", w.r.sync()); err != nil {
		return err
	}
	w.m.advanceFloor()
	return nil
}

func (w *workload) opClean() error {
	_, err := w.l.Clean(1 + w.rng.Intn(2))
	return w.check("Clean", err)
}

func (w *workload) opScrub() error {
	if _, err := w.l.Scrub(); err != nil {
		return w.check("Scrub", err)
	}
	_, err := w.l.ReclaimQuarantined()
	return w.check("ReclaimQuarantined", err)
}

func (w *workload) opMove() error {
	if len(w.blocks) == 0 || len(w.lists) < 2 {
		return w.opWrite()
	}
	bid := w.blocks[w.rng.Intn(len(w.blocks))]
	src := w.blockList[bid]
	dst := w.pickList()
	if dst == src {
		return w.opFlush()
	}
	err := w.l.MoveBlocks(bid, bid, src, dst, ld.NilBlock, ld.NilBlock)
	// Record the move optimistically: membership is only enforced at the
	// durability floor, which cannot advance between a lost move and the
	// crash.
	bs := w.m.state(bid)
	if len(bs.vers) > 0 {
		w.m.ack(bid, bs.vers[len(bs.vers)-1].val, dst)
	}
	if err := w.check("MoveBlocks", err); err != nil {
		return err
	}
	w.blockList[bid] = dst
	return nil
}
