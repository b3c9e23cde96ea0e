package lld

import "sync/atomic"

// bgWorker is the goroutine shell the background cleaner and scrubber
// share: a coalescing wake channel, a quit flag, and a join. The worker
// owns no policy — each pass body (runBGPass, runBGScrubPass) decides
// under l.mu whether it has work and yields the lock between its own
// bounded steps.
type bgWorker struct {
	wake chan struct{} // buffered(1): concurrent signals coalesce into one pass
	done chan struct{} // closed when the goroutine has exited
	quit atomic.Bool   // tells the goroutine, and a pass between steps, to exit
}

// startWorker launches a goroutine that runs pass once per wake-up with
// l.mu held exclusively, until stopped or the instance shuts.
func (l *LLD) startWorker(pass func(w *bgWorker)) *bgWorker {
	w := &bgWorker{wake: make(chan struct{}, 1), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		// The wake channel is never closed (foreground signals would race
		// a close); exit is via the quit flag.
		for range w.wake {
			l.mu.Lock()
			if !w.stopping(l) {
				pass(w)
			}
			quit := w.stopping(l)
			l.mu.Unlock()
			if quit {
				return
			}
		}
	}()
	return w
}

// startBackground launches the workers the options ask for. Callers hold
// l.mu, or own the instance outright (Open, before it is shared).
func (l *LLD) startBackground() {
	if l.opts.BackgroundClean {
		l.startBGClean()
	}
	if l.opts.BackgroundScrub {
		l.startBGScrub()
	}
}

// stopping reports that the worker must wind down. Callers hold l.mu.
func (w *bgWorker) stopping(l *LLD) bool { return w.quit.Load() || l.shut }

// signal wakes the goroutine without blocking. Safe to call with or
// without l.mu held.
func (w *bgWorker) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// stop tells the goroutine to exit and joins it. Callers must not hold
// l.mu: a pass in flight needs it to reach its next quit check.
func (w *bgWorker) stop() {
	w.quit.Store(true)
	w.signal()
	<-w.done
}
