package lld

import "runtime"

// Background scrubber (DESIGN.md §9). With Options.BackgroundScrub the
// instance owns one goroutine that runs verification passes over the sealed
// segments in bounded steps, mirroring the background cleaner's machinery:
// it claims the exclusive lock for one segment, releases it, yields, and
// reacquires, so concurrent commands see bounded pauses. Background passes
// only verify (and count) — salvage of quarantined blocks writes to the log
// and stays with the explicit Scrub call, which keeps background operation
// read-only and the durable state byte-identical to a scrubber-less run on
// a healthy image.
//
// The goroutine is woken by sealSegment (fresh durable bytes to verify) and
// once at Open (verify the image we just recovered); wake signals coalesce.
// Shutdown quiesces it first (stopBGScrub joins), like the cleaner.

// startBGScrub launches the background scrubber (see startBackground) and
// wakes it for a first pass.
func (l *LLD) startBGScrub() {
	l.bgScrub = l.startWorker(func(bg *bgWorker) {
		if !l.scrubbing {
			l.runBGScrubPass(bg)
		}
	})
	l.bgScrub.signal() // verify the image as mounted
}

// stopBGScrub detaches and joins the scrubbing goroutine. Idempotent; safe
// when BackgroundScrub was never enabled. Callers must not hold l.mu.
func (l *LLD) stopBGScrub() {
	l.mu.Lock()
	bg := l.bgScrub
	l.bgScrub = nil
	l.mu.Unlock()
	if bg != nil {
		bg.stop()
	}
}

// runBGScrubPass runs one verification pass in bounded steps, releasing the
// lock between them. Callers hold l.mu with l.scrubbing unset; the lock is
// held on return. An I/O error abandons the pass (media faults are counted
// per block and do not error).
func (l *LLD) runBGScrubPass(bg *bgWorker) {
	l.scrubbing = true
	v := l.newVerifier()
	var res ScrubResult
	for seg := 0; seg < l.lay.nSegments; seg++ {
		err := l.scrubSegment(v, seg, false, &res)
		l.stats.BGScrubSteps++
		if err != nil || seg == l.lay.nSegments-1 || bg.stopping(l) {
			break // an I/O error abandons the pass
		}
		// Yield between steps: this is the bounded pause — every command
		// queued on mu gets in before the next segment.
		l.mu.Unlock()
		runtime.Gosched()
		l.mu.Lock()
		if bg.stopping(l) {
			break
		}
	}
	v.finish()
	l.scrubbing = false
	l.stats.BGScrubPasses++
}
