package lld

import (
	"runtime"

	"repro/internal/ld"
)

// Background cleaner (DESIGN.md §8). With Options.BackgroundClean the
// instance owns one goroutine that runs watermark cleaning passes in
// bounded steps: it claims the exclusive lock for one victim segment,
// releases it, yields, and reacquires, so concurrent commands wait for one
// step instead of a whole multi-segment clean. The pass state (cleanPass)
// is carried across steps, which makes an uncontended background pass
// process the identical victim sequence — and produce byte-identical
// durable state — as the synchronous inline pass.
//
// Protocol:
//   - maybeClean (the watermark check inside every mutator) signals the
//     goroutine instead of cleaning, via a buffered coalescing channel.
//   - A mutator that finds the free pool truly exhausted blocks on
//     spaceCond in awaitFreeSegment; the goroutine broadcasts whenever a
//     step grows the free pool and when a pass ends. A waiter that saw
//     two whole passes complete without winning a segment reclaims inline
//     once the cleaner is idle, so the error surface matches sync mode.
//   - Shutdown quiesces the goroutine first (stopBGClean joins it), so a
//     checkpoint can never race a cleaning step.

// startBGClean launches the background cleaner (see startBackground).
func (l *LLD) startBGClean() {
	l.bg = l.startWorker(func(bg *bgWorker) {
		if !l.cleaning && l.cleanNeeded() {
			l.runBGPass(bg)
		}
	})
}

// stopBGClean detaches and joins the cleaning goroutine. Idempotent; safe
// when BackgroundClean was never enabled. Callers must not hold l.mu.
func (l *LLD) stopBGClean() {
	l.mu.Lock()
	bg := l.bg
	if bg != nil {
		l.bg = nil
		// Waiters must not sleep on a goroutine that is going away.
		l.spaceCond.Broadcast()
	}
	l.mu.Unlock()
	if bg != nil {
		bg.stop()
	}
}

// cleanNeeded reports whether the goroutine has work: the pool is at or
// below the low watermark, or a mutator is blocked waiting for space.
// Callers hold l.mu.
func (l *LLD) cleanNeeded() bool {
	return len(l.freeSegs)+len(l.cooling) <= l.opts.CleanLow || l.waiters > 0
}

// cleanReserve is how many free segments are held back from foreground
// allocation when a background cleaner exists. Inline cleaning triggers
// while the pool still has room to move blocks into, but a background
// pass races foreground consumers — without a reserved segment the pool
// can reach empty-with-nothing-open, where no pass can clean at all
// (every victim's re-log fails for space) and a 25%-utilized disk reads
// as full. The cleaner's own stack bypasses the reserve. Callers hold l.mu.
func (l *LLD) cleanReserve() int {
	if l.bg != nil {
		return 1
	}
	return 0
}

// runBGPass runs one watermark cleaning pass in bounded steps, releasing
// the lock between them. Callers hold l.mu with l.cleaning unset; the
// lock is held on return, with the same pass bookkeeping an inline pass
// leaves behind.
func (l *LLD) runBGPass(bg *bgWorker) {
	l.cleaning = true
	l.cleaningBG = true
	l.stats.CleanerRuns++
	p := cleanPass{maxIter: 8 * l.opts.CleanHigh}
	for {
		l.cleaningStep = true
		freeBefore := len(l.freeSegs)
		finished, err := l.cleanSome(&p, 1, l.watermarkTarget)
		l.cleaningStep = false
		l.stats.BGCleanSteps++
		// Wake one waiter per segment freed, not all of them: a broadcast
		// here stampedes every blocked writer at mu for (usually) a single
		// segment, and all but one go straight back to sleep.
		l.signalSpace(len(l.freeSegs) - freeBefore)
		if err != nil {
			// Abandon the pass; the foreground reproduces the error on its
			// own stack if the condition persists (a waiter finding the
			// cleaner idle and the pool empty reclaims inline).
			l.stats.BGCleanErrors++
			break
		}
		if finished || bg.stopping(l) {
			break
		}
		// Yield between steps: this is the bounded pause — every command
		// queued on mu gets in before the next victim.
		l.mu.Unlock()
		runtime.Gosched()
		l.mu.Lock()
		if bg.stopping(l) {
			break
		}
	}
	l.cleaning = false
	l.cleaningBG = false
	l.stats.BGCleanPasses++
	l.spaceCond.Broadcast()
}

// awaitFreeSegment is the slow path of ensureRoom when no segment is open
// and the free pool is empty. In background mode the caller blocks on
// spaceCond until the goroutine frees a segment — the only place a
// foreground command waits on the cleaner. In synchronous mode, on a
// cleaning pass's own stack, or mid-ARU it returns immediately so the
// caller's openNewSegment surfaces ErrNoSpace exactly as before (the
// bootstrap skip path depends on seeing that error). Callers hold l.mu.
// A Write caller also holds its block's stripe lock across this wait —
// safe, because the background cleaner acquires only mu, never a stripe
// lock, so the stalled writer can never block the path that frees its
// segment (see shard.go).
func (l *LLD) awaitFreeSegment() error {
	if l.cleaningStep || (l.cleaning && !l.cleaningBG) {
		// A cleaning pass's own stack (background step or inline pass):
		// ErrNoSpace must reach cleanSome's bootstrap handler.
		return nil
	}
	if l.bg == nil {
		return nil
	}
	if l.aruOpen {
		// Never release the lock mid-ARU: interleaved mutators would be
		// tagged into this caller's recovery unit. Clean inline instead,
		// matching synchronous semantics (mid-ARU cleaning parks victims
		// in pendingARU, so exhaustion stays ErrNoSpace either way).
		if l.cleaning {
			return nil
		}
		return l.cleanInline()
	}
	l.stats.WriterWaits++
	l.waiters++
	defer func() { l.waiters-- }()
	start := l.stats.BGCleanPasses
	for {
		if l.shut {
			return ld.ErrShutdown
		}
		if len(l.freeSegs) > l.cleanReserve() || l.cur != nil {
			return nil
		}
		if l.bg == nil {
			return nil
		}
		if !l.cleaning && l.stats.BGCleanPasses >= start+2 {
			// The goroutine ran two whole passes since this caller started
			// waiting and competing waiters drained every freed segment (or
			// the disk is truly full). Reclaim on this stack: the inline
			// pass frees space or leaves the pool empty, in which case the
			// caller's openNewSegment surfaces ErrNoSpace exactly as sync
			// mode would.
			return l.cleanInline()
		}
		// Defer to the goroutine; it signals one waiter per freed segment
		// after each step and broadcasts when a pass ends.
		l.bg.signal()
		l.spaceCond.Wait()
		if !l.shut && len(l.freeSegs) <= l.cleanReserve() && l.cur == nil {
			l.stats.SpuriousWakeups++
		}
	}
}

// signalSpace wakes up to n waiters blocked in awaitFreeSegment — one
// per segment that just became allocatable, instead of a broadcast that
// wakes every waiter to fight over one segment. Callers hold l.mu
// exclusively.
func (l *LLD) signalSpace(n int) {
	if n > l.waiters {
		n = l.waiters
	}
	for ; n > 0; n-- {
		l.spaceCond.Signal()
	}
}
