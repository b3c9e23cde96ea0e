package lld

import "runtime"

// Background scrubber (DESIGN.md §9). With Options.BackgroundScrub the
// instance owns one goroutine that runs verification passes over the sealed
// segments in bounded steps, mirroring the background cleaner's machinery:
// it claims the exclusive lock for at most Options.ScrubStepSegments
// segments, releases it, yields, and reacquires, so concurrent commands see
// bounded pauses. Background passes only verify (and count) — salvage of
// quarantined blocks writes to the log and stays with the explicit Scrub
// call, which keeps background operation read-only and the durable state
// byte-identical to a scrubber-less run on a healthy image.
//
// The goroutine is woken by sealSegment (fresh durable bytes to verify) and
// once at Open (verify the image we just recovered); wake signals coalesce.
// Shutdown quiesces it first (stopBGScrub joins), like the cleaner.

// bgScrubber is the handle the LLD keeps on its scrubbing goroutine.
type bgScrubber struct {
	wake chan struct{} // buffered(1): coalesced "new sealed data" signal
	done chan struct{} // closed when the goroutine has exited
	quit bool          // guarded by l.mu: tells the goroutine to exit
}

// signal wakes the goroutine without blocking; concurrent signals coalesce.
// Safe to call with or without l.mu held.
func (b *bgScrubber) signal() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// startBGScrub launches the background scrubber. Called from Open before
// the instance is shared, so no locking is needed.
func (l *LLD) startBGScrub() {
	bg := &bgScrubber{wake: make(chan struct{}, 1), done: make(chan struct{})}
	l.bgScrub = bg
	go l.bgScrubLoop(bg)
	bg.signal() // verify the just-recovered image
}

// stopBGScrub detaches and joins the scrubbing goroutine. Idempotent; safe
// when BackgroundScrub was never enabled. Callers must not hold l.mu.
func (l *LLD) stopBGScrub() {
	l.mu.Lock()
	bg := l.bgScrub
	if bg != nil {
		l.bgScrub = nil
		bg.quit = true
	}
	l.mu.Unlock()
	if bg != nil {
		bg.signal()
		<-bg.done
	}
}

// bgScrubLoop is the goroutine body: wait for a signal, run one bounded
// verification pass, repeat until told to quit. The wake channel is never
// closed (sealSegment signals would race a close); exit is via the quit flag.
func (l *LLD) bgScrubLoop(bg *bgScrubber) {
	defer close(bg.done)
	for range bg.wake {
		l.mu.Lock()
		if bg.quit || l.shut {
			l.mu.Unlock()
			return
		}
		if !l.scrubbing {
			l.runBGScrubPass(bg)
		}
		quit := bg.quit || l.shut
		l.mu.Unlock()
		if quit {
			return
		}
	}
}

// runBGScrubPass runs one verification pass in bounded steps, releasing the
// lock between them. Callers hold l.mu with l.scrubbing unset; the lock is
// held on return. An I/O error abandons the pass (media faults are counted
// per block and do not error).
func (l *LLD) runBGScrubPass(bg *bgScrubber) {
	l.scrubbing = true
	step := l.opts.scrubStep()
	v := l.newVerifier()
	var res ScrubResult
	for seg := 0; seg < l.lay.nSegments; {
		stop := seg + step
		for ; seg < stop && seg < l.lay.nSegments; seg++ {
			if err := l.scrubSegment(v, seg, false, &res); err != nil {
				seg = l.lay.nSegments // abandon the pass
				break
			}
		}
		l.stats.BGScrubSteps++
		if seg >= l.lay.nSegments || bg.quit || l.shut {
			break
		}
		// Yield between steps: this is the bounded pause — every command
		// queued on mu gets in before the next segment batch.
		l.mu.Unlock()
		runtime.Gosched()
		l.mu.Lock()
		if bg.quit || l.shut {
			break
		}
	}
	v.finish()
	l.scrubbing = false
	l.stats.BGScrubPasses++
}
