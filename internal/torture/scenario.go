package torture

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/lld"
)

// Directed scenarios: the reclaim kind (crash inside Scrub salvage and
// ReclaimQuarantined over a genuinely quarantined image) and the
// rebuild kind (crash mid mirror re-silver with concurrent writes).
// Both are built from the same primitives as the generic runPoint but
// need multi-phase setups, so they live here.

// ---------------------------------------------------------------------------
// Baseline observations.
//
// Maintenance passes (scrub salvage, reclaim) must never lose a fact
// that was observable before they started: a crash in the middle may
// leave the pass incomplete, but every block that was readable before
// must still read the same bytes after recovery, and nothing deleted
// may resurrect. The shadow model alone cannot say this — it admits any
// acknowledged version — so directed scenarios snapshot the observable
// state first and check it again after the crash.

const (
	obsVal     = iota // block read a value
	obsCorrupt        // block read ld.ErrCorrupt (degraded)
	obsAbsent         // block read ld.ErrBadBlock
)

type obs struct {
	kind int
	val  []byte
}

// observe reads every model-known block from a live instance.
func observe(l *lld.LLD, m *model) map[ld.BlockID]obs {
	out := make(map[ld.BlockID]obs, len(m.blocks))
	buf := make([]byte, l.MaxBlockSize())
	for bid := range m.blocks {
		n, err := l.Read(bid, buf)
		switch {
		case err == nil:
			out[bid] = obs{kind: obsVal, val: append([]byte(nil), buf[:n]...)}
		case errors.Is(err, ld.ErrCorrupt):
			out[bid] = obs{kind: obsCorrupt}
		default:
			out[bid] = obs{kind: obsAbsent}
		}
	}
	return out
}

// checkBaseline verifies a recovered instance against pre-crash
// observations:
//
//   - readable before → must read the identical bytes now (the
//     maintenance pass held no license to change or lose it);
//   - corrupt before → may stay corrupt, read an acknowledged value
//     (salvage completed durably), or be absent (its quarantined
//     evidence was legally superseded) — but a value matching no
//     acknowledged version is a salvage corruption;
//   - absent before → must stay absent: maintenance resurrects nothing.
func checkBaseline(l2 *lld.LLD, base map[ld.BlockID]obs, m *model) error {
	bids := make([]ld.BlockID, 0, len(base))
	for b := range base {
		bids = append(bids, b)
	}
	sort.Slice(bids, func(i, j int) bool { return bids[i] < bids[j] })
	buf := make([]byte, l2.MaxBlockSize())
	for _, bid := range bids {
		b := base[bid]
		n, err := l2.Read(bid, buf)
		switch b.kind {
		case obsVal:
			if err != nil {
				return fmt.Errorf("block %d: readable before the maintenance crash (%d bytes) but now %v — fact lost", bid, len(b.val), err)
			}
			if !bytes.Equal(buf[:n], b.val) {
				return fmt.Errorf("block %d: bytes changed across a maintenance crash", bid)
			}
		case obsCorrupt:
			if err == nil && !m.state(bid).acceptableValue(buf[:n]) {
				return fmt.Errorf("block %d: salvage produced %d bytes matching no acknowledged version", bid, n)
			}
		case obsAbsent:
			if err == nil {
				return fmt.Errorf("block %d: absent before the maintenance crash but resurrected with %d bytes", bid, n)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Reclaim scenario.

// reclaimFractions is the deterministic damage search: cut the power at
// these fractions of the reference sector span (crossed with a few loss
// seeds), rot one summary slot the cut left decodable, and mount, until
// recovery quarantines a segment. A cut alone rarely does: lld drains before
// a segment's first summary write, so what reordered persistence can drop
// is the log's tail, which recovery discards as torn; rot of a slot the log
// has since moved past is mid-log damage.
var reclaimFractions = []struct{ num, den int64 }{
	{2, 3}, {1, 2}, {3, 4}, {1, 3}, {5, 6}, {7, 12},
}

const reclaimSalts = 4

// reclaimPhaseA manufactures a quarantined image: run the seeded
// workload, cut the power mid-run, restart, recover. It returns the rig
// and recovered instance of the first attempt whose recovery reports a
// quarantined segment, with target's schedule hook installed and
// counting from zero — phase B (Scrub + ReclaimQuarantined) is the
// schedule the hook directs. A nil instance (and nil error) means no
// attempt produced quarantine.
func reclaimPhaseA(cfg Config, target point) (*rig, *model, *lld.LLD, *scheduler, error) {
	span, _, _, err := runReference(cfg)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	for ai := 0; ai < len(reclaimFractions)*reclaimSalts; ai++ {
		f := reclaimFractions[ai%len(reclaimFractions)]
		budget := span * f.num / f.den
		if budget <= 0 {
			continue
		}
		r, err := newRig(cfg)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		opts := tortureOptions(nil)
		if err := lld.Format(r.back, opts); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("format: %w", err)
		}
		r.rail.Arm(budget, mixSeed(cfg.Seed, 300+int64(ai)))
		m := newModel()
		l, err := lld.Open(r.back, opts)
		if err == nil {
			w := newWorkload(l, r, cfg.Seed, point{})
			if err := w.run(cfg.Ops); err != nil {
				return nil, nil, nil, nil, err
			}
			m = w.m
			if !r.rail.Lost() {
				r.rail.PowerLoss(mixSeed(cfg.Seed, 400+int64(ai)))
			}
			_ = l.Shutdown(false)
		} else if !r.rail.Lost() {
			return nil, nil, nil, nil, fmt.Errorf("phase-A open: %w", err)
		}

		r.rail.Restart()
		if err := rotSummarySlot(r, ai); err != nil {
			return nil, nil, nil, nil, err
		}
		m.rotted = true
		// The schedule counts from the end of this mount: phase B is what
		// it directs.
		sched := newScheduler(r.rail, cfg.Seed, target)
		armed := false
		l2, err := lld.Open(r.back, tortureOptions(func(site string) {
			if armed {
				sched.hook(site)
			}
		}))
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("phase-A recovery (attempt %d): %w", ai, err)
		}
		armed = true
		rep := l2.RecoveryReport()
		if err := m.verify(l2, rep); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("phase-A recovered state (attempt %d): %w", ai, err)
		}
		// Rot of the log's newest summary is indistinguishable from a torn
		// tail: recovery discards it and quarantines nothing. Such an attempt
		// is passed over, as is one that leaves no block in the quarantined
		// segment for phase B to salvage, or one whose mount could not go on
		// along the chain (the segment phase B salvages from is then no link
		// of it). The loss the rot caused ends with this mount: phase B is
		// checked against what it recovered.
		if len(rep.DegradedBlocks) > 0 && rep.FullSweep == "" {
			if err := m.rebase(l2); err != nil {
				return nil, nil, nil, nil, fmt.Errorf("phase-A rebase (attempt %d): %w", ai, err)
			}
			return r, m, l2, sched, nil
		}
		_ = l2.Shutdown(false)
		r.close()
	}
	return nil, nil, nil, nil, nil
}

// rotSummarySlot flips bytes past the header of one summary slot on the
// platter of every leg: of those that decode, the n-th (cyclically) of the
// rotSpan newest after the newest. The mount probes only the segments
// written since the checkpoint, so a slot the log wrote long ago is rot the
// mount never meets (Scrub's), and the newest is a torn tail.
func rotSummarySlot(r *rig, n int) error {
	for _, c := range r.caches {
		offs, _, err := lld.SummarySlots(c.Disk())
		if err != nil {
			return err
		}
		if k := min(len(offs)-1, rotSpan); k > 0 {
			c.Disk().CorruptRange(offs[1+n%k]+64, 8, 0xFF)
		} else if len(offs) > 0 {
			c.Disk().CorruptRange(offs[0]+64, 8, 0xFF)
		}
	}
	return nil
}

// rotSpan is how many of the newest summary slots rotSummarySlot cycles
// through.
const rotSpan = 8

// reclaimPhaseB runs the maintenance pass under the armed schedule
// hook: salvage via Scrub, then ReclaimQuarantined. Power may go out at
// any hooked site; errors after the loss are expected.
func reclaimPhaseB(cfg Config, r *rig, l2 *lld.LLD) error {
	if _, err := l2.Scrub(); err != nil && !r.rail.Lost() {
		return fmt.Errorf("scrub: %w", err)
	}
	if !r.rail.Lost() {
		if _, err := l2.ReclaimQuarantined(); err != nil && !r.rail.Lost() {
			return fmt.Errorf("reclaim: %w", err)
		}
	}
	return nil
}

func enumerateReclaim(cfg Config) ([]point, error) {
	r, _, l2, sched, err := reclaimPhaseA(cfg, point{})
	if err != nil {
		return nil, err
	}
	if l2 == nil {
		cfg.Logf("torture reclaim: no power cut produced a quarantined segment at seed %d; 0 points", cfg.Seed)
		return nil, nil
	}
	defer r.close()
	if err := reclaimPhaseB(cfg, r, l2); err != nil {
		return nil, fmt.Errorf("reference %w", err)
	}
	_ = l2.Shutdown(false)
	return sitePoints(cfg, sched.snapshot()), nil
}

func runReclaimPoint(cfg Config, pt point) error {
	r, m, l2, _, err := reclaimPhaseA(cfg, pt)
	if err != nil {
		return err
	}
	if l2 == nil {
		return fmt.Errorf("torture: reclaim point %s: quarantined image no longer reproducible", pt)
	}
	defer r.close()
	base := observe(l2, m)
	if err := reclaimPhaseB(cfg, r, l2); err != nil {
		return err
	}
	if !r.rail.Lost() {
		// The target site was not reached again (a later occurrence the
		// reference pass had but this one lacks): cut at the end anyway.
		r.rail.PowerLoss(mixSeed(cfg.Seed, 9000+pt.n))
	}
	_ = l2.Shutdown(false)
	return recoverAndVerify(cfg, r, m, base)
}

// ---------------------------------------------------------------------------
// Rebuild scenario.

const rebuildStepChunks = 4

// runRebuildFlow is the shared mid-rebuild crash flow: populate a 2-way
// mirror, make everything durable, fail replica 1, attach a blank
// cached platter on the same rail, and re-silver it with modelled
// writes landing between copy steps. When pt is a rebuild point the
// power dies at progress step pt.n. Returns the interior progress-step
// count, the rig (replica 1's cache already swapped for the blank), and
// the shadow model.
func runRebuildFlow(cfg Config, pt point) (steps int, r *rig, m *model, err error) {
	r, err = newRig(cfg)
	if err != nil {
		return 0, nil, nil, err
	}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()
	opts := tortureOptions(nil)
	if err := lld.Format(r.back, opts); err != nil {
		return 0, nil, nil, fmt.Errorf("format: %w", err)
	}
	l, err := lld.Open(r.back, opts)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("open: %w", err)
	}
	w := newWorkload(l, r, cfg.Seed, point{})
	if err := w.run(cfg.Ops); err != nil {
		return 0, nil, nil, err
	}
	if r.rail.Lost() {
		return 0, nil, nil, fmt.Errorf("rebuild flow lost power during the populate workload")
	}
	m = w.m
	// Everything acknowledged so far becomes the durability floor: the
	// surviving replica holds it all, so none of it may vanish in the
	// crash — only the writes issued during the rebuild are above water.
	if err := l.Flush(ld.FailPower); err != nil {
		return 0, nil, nil, fmt.Errorf("pre-rebuild flush: %w", err)
	}
	if err := r.sync(); err != nil {
		return 0, nil, nil, fmt.Errorf("pre-rebuild sync: %w", err)
	}
	m.advanceFloor()

	r.mirror.FailReplica(1)
	blank := disk.NewWBCache(disk.New(disk.DefaultConfig(cfg.DiskBytes)), r.rail)
	if err := r.mirror.AttachBlank(1, blank); err != nil {
		return 0, nil, nil, fmt.Errorf("attach blank: %w", err)
	}
	// The old replica-1 platter is gone for good; from here on the rig's
	// second leg — including after the restart — is the replacement.
	r.caches[1] = blank

	var wErr error
	_, rerr := r.mirror.Rebuild(1, rebuildStepChunks, func(done, total int) {
		if done >= total {
			return // completion callback, not an interior pause
		}
		steps++
		if pt.kind == ptRebuild && int64(steps) == pt.n {
			r.rail.PowerLoss(mixSeed(cfg.Seed, 5000+pt.n))
			return
		}
		if r.rail.Lost() || wErr != nil {
			return
		}
		// Concurrent traffic: a modelled write every few pauses, so the
		// crash interleaves copy chunks with fresh log appends that the
		// rebuilding replica also receives.
		if steps%3 == 0 {
			if err := w.opWrite(); err != nil && !errors.Is(err, errPowerLost) {
				wErr = err
			}
		}
	})
	if wErr != nil {
		return 0, nil, nil, fmt.Errorf("mid-rebuild write: %w", wErr)
	}
	if rerr != nil && !r.rail.Lost() {
		return 0, nil, nil, fmt.Errorf("rebuild: %w", rerr)
	}
	if pt.kind == ptRebuild && !r.rail.Lost() {
		// Point beyond this run's step count: cut right after completion.
		r.rail.PowerLoss(mixSeed(cfg.Seed, 5000+pt.n))
	}
	_ = l.Shutdown(false)
	ok = true
	return steps, r, m, nil
}

func enumerateRebuild(cfg Config) ([]point, error) {
	steps, r, _, err := runRebuildFlow(cfg, point{})
	if err != nil {
		return nil, err
	}
	r.close()
	pts := make([]point, 0, steps)
	for k := 1; k <= steps; k++ {
		pts = append(pts, point{kind: ptRebuild, n: int64(k)})
	}
	return pts, nil
}

func runRebuildPoint(cfg Config, pt point) error {
	_, r, m, err := runRebuildFlow(cfg, pt)
	if err != nil {
		return err
	}
	defer r.close()

	// Restart. The operator knows replica 1 was mid-rebuild when the
	// lights went out, so it must not serve reads until re-silvered:
	// recompose, fail it back out, and rebuild it to completion before
	// recovery mounts the mirror.
	r.rail.Restart()
	if err := r.compose(true); err != nil {
		return fmt.Errorf("recompose after restart: %w", err)
	}
	r.mirror.FailReplica(1)
	if err := r.mirror.AttachBlank(1, r.caches[1]); err != nil {
		return fmt.Errorf("post-restart attach: %w", err)
	}
	if _, err := r.mirror.Rebuild(1, 0, nil); err != nil {
		return fmt.Errorf("post-restart rebuild: %w", err)
	}
	return verifyRecovered(cfg, r, m, nil)
}
