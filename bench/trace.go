package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// A span is one call across a layer boundary: name, start, end and the
// span that caused it. Spans are recorded only by the benchmark's own
// wrappers (wrap.go) and by the drivers around each op.
//
// Every span updates exact per-name sums (count, duration, self time) and
// a log2 histogram; one op in sampleEvery also keeps its full span tree,
// written to -trace-out at exit.

type spanKind uint8

const (
	// B1: one driver op against the top API of the stack.
	spFsCreate spanKind = iota // create + write + close of one file
	spFsRead                   // open + read + close of one file, or one chunk read
	spFsWrite                  // one chunk write
	spFsUnlink
	spFsSync
	spNetRead
	spNetWrite // includes the Flush it triggers
	spNetScan  // one ReadBlocks batch
	// B2/B4 (and B1 of ld-churn): one call into lld through ld.Disk.
	spLLDRead
	spLLDWrite
	spLLDFlush
	spLLDAlloc  // NewBlock, DeleteBlock
	spLLDListOp // every other list call
	spLLDReadBlocks
	spLLDOther
	// B3: one request inside the server, fully read → reply written.
	spNetServer
	// B5: one call from lld into its disk.Backend.
	spDevRead
	spDevWrite
	spDevNVRAM
	spDevSync
	// B6: one call from the mirror into a leg.
	spLegRead
	spLegWrite
	spLegNVRAM
	spLegSync
	nSpanKinds
	spNone = nSpanKinds // no span of the driver's own
)

var spanNames = [nSpanKinds]string{
	"fs.create", "fs.read", "fs.write", "fs.unlink", "fs.sync",
	"netld.read", "netld.write", "netld.scan",
	"lld.read", "lld.write", "lld.flush", "lld.alloc", "lld.listop", "lld.readblocks", "lld.other",
	"netld.server",
	"dev.read", "dev.write", "dev.nvram", "dev.sync",
	"leg.read", "leg.write", "leg.nvram", "leg.sync",
}

const sampleEvery = 1024

// kindStat is the exact accounting of one span name.
type kindStat struct {
	count, dur, self int64 // ns
	h                *hist
}

type frame struct {
	kind   spanKind
	start  int64
	child  int64 // ns covered by child spans
	id     uint64
	parent uint64
}

// spanRec is one kept span of a sampled op.
type spanRec struct {
	id, parent uint64
	kind       spanKind
	thread     string
	start, end int64
}

// thread is the trace context of one closed-loop actor: a client
// goroutine, a server session, or (bg) everything else. Only its owner
// touches the stack; mu orders the sums against collect (and against the
// several goroutines that share bg).
type thread struct {
	tr    *tracer
	name  string
	ctx   context.Context // carries the goroutine label that finds this thread
	stack []frame
	stat  [nSpanKinds]kindStat
	ops   uint64 // top-level spans begun
	kept  []spanRec

	// sampled is the id of the top-level span of the op being kept, 0
	// when the current op is not sampled. A server session reads its
	// client's value to join the same tree.
	sampled atomic.Uint64
	peer    *thread // server session → the client it serves

	mu sync.Mutex
}

// tracer owns the threads of one traced stack.
type tracer struct {
	clock   func() int64 // ns since the tracer was made; tests substitute it
	enabled atomic.Bool
	nextID  atomic.Uint64
	bgOps   atomic.Uint64

	mu      sync.Mutex
	threads []*thread
	byLabel sync.Map // label pointer → *thread
	bg      *thread
}

func newTracer() *tracer {
	base := time.Now()
	tr := &tracer{clock: func() int64 { return int64(time.Since(base)) }}
	tr.bg = &thread{tr: tr, name: "bg"}
	return tr
}

func (tr *tracer) now() int64 { return tr.clock() }

// goroutineLabels returns the calling goroutine's pprof label set, the
// only goroutine-local value Go offers. The runtime keeps this symbol for
// outside users (go.dev/issue/67401); reading it costs ~10 ns where
// parsing runtime.Stack for a goroutine id costs 2–8 µs, more than the
// lld calls being timed.
//
//go:linkname goroutineLabels runtime/pprof.runtime_getProfLabel
func goroutineLabels() unsafe.Pointer

// newThread registers a trace context. The goroutine that will run it
// calls adopt first.
func (tr *tracer) newThread(name string) *thread {
	t := &thread{tr: tr, name: name, stack: make([]frame, 0, 8)}
	t.ctx = pprof.WithLabels(context.Background(), pprof.Labels("bench.thread", name))
	tr.mu.Lock()
	tr.threads = append(tr.threads, t)
	tr.mu.Unlock()
	return t
}

// adopt binds the calling goroutine to t until it exits or adopts again.
func (t *thread) adopt() {
	pprof.SetGoroutineLabels(t.ctx)
	t.tr.byLabel.Store(goroutineLabels(), t)
}

// current returns the calling goroutine's thread, or nil for a goroutine
// no driver or session owns (the seal flusher, a cleaner).
func (tr *tracer) current() *thread {
	p := goroutineLabels()
	if p == nil {
		return nil
	}
	if t, ok := tr.byLabel.Load(p); ok {
		return t.(*thread)
	}
	return nil
}

// begin opens a span on t. A nil thread (untraced run) records nothing.
func (t *thread) begin(k spanKind) {
	if t == nil || !t.tr.enabled.Load() {
		return
	}
	f := frame{kind: k, start: t.tr.now()}
	if n := len(t.stack); n > 0 {
		f.parent = t.stack[n-1].id
		if t.sampled.Load() != 0 {
			f.id = t.tr.nextID.Add(1)
		}
	} else {
		t.ops++
		switch {
		case t.peer != nil:
			if p := t.peer.sampled.Load(); p != 0 {
				f.parent, f.id = p, t.tr.nextID.Add(1)
				t.sampled.Store(f.id)
			}
		case t.ops%sampleEvery == 0:
			f.id = t.tr.nextID.Add(1)
			t.sampled.Store(f.id)
		}
	}
	t.stack = append(t.stack, f)
}

// end closes the innermost span of t.
func (t *thread) end() {
	if t == nil || len(t.stack) == 0 {
		return
	}
	now := t.tr.now()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	t.record(f, now)
	if n > 0 {
		t.stack[n-1].child += now - f.start
	} else {
		t.sampled.Store(0)
	}
}

func (t *thread) record(f frame, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := end - f.start
	s := &t.stat[f.kind]
	s.count++
	s.dur += d
	s.self += d - f.child
	if s.h == nil {
		s.h = new(hist)
	}
	s.h.add(d)
	if f.id != 0 {
		t.kept = append(t.kept, spanRec{f.id, f.parent, f.kind, t.name, f.start, end})
	}
}

// enter opens a span of kind k for a wrapper: on the calling goroutine's
// thread when it has one, otherwise as a parentless background span timed
// from the returned start. exit closes it.
func (tr *tracer) enter(k spanKind) (t *thread, start int64) {
	if !tr.enabled.Load() {
		return nil, -1
	}
	if t = tr.current(); t != nil {
		t.begin(k)
		return t, 0
	}
	return nil, tr.now()
}

func (tr *tracer) exit(t *thread, k spanKind, start int64) {
	if t != nil {
		t.end()
		return
	}
	if start < 0 {
		return
	}
	end := tr.now()
	f := frame{kind: k, start: start}
	if tr.bgOps.Add(1)%sampleEvery == 0 {
		f.id = tr.nextID.Add(1)
	}
	tr.bg.record(f, end)
}

// totals is the merged accounting of a set of threads.
type totals struct {
	fg, bg [nSpanKinds]kindStat
}

func mergeStat(dst *kindStat, src *kindStat) {
	dst.count += src.count
	dst.dur += src.dur
	dst.self += src.self
	if src.h != nil {
		if dst.h == nil {
			dst.h = new(hist)
		}
		dst.h.merge(src.h)
	}
}

// collect merges and clears every thread's sums.
func (tr *tracer) collect() *totals {
	var tt totals
	tr.mu.Lock()
	defer tr.mu.Unlock()
	drain := func(dst *[nSpanKinds]kindStat, t *thread) {
		t.mu.Lock()
		for k := range t.stat {
			mergeStat(&dst[k], &t.stat[k])
			t.stat[k] = kindStat{}
		}
		t.mu.Unlock()
	}
	for _, t := range tr.threads {
		drain(&tt.fg, t)
	}
	drain(&tt.bg, tr.bg)
	return &tt
}

// sum adds up the foreground sums of several kinds.
func (tt *totals) sum(kinds ...spanKind) kindStat {
	var s kindStat
	for _, k := range kinds {
		mergeStat(&s, &tt.fg[k])
	}
	return s
}

// all adds up the foreground and background sums of several kinds.
func (tt *totals) all(kinds ...spanKind) kindStat {
	s := tt.sum(kinds...)
	for _, k := range kinds {
		mergeStat(&s, &tt.bg[k])
	}
	return s
}

// The kinds of each backend boundary.
var (
	devKinds = []spanKind{spDevRead, spDevWrite, spDevNVRAM, spDevSync}
	legKinds = []spanKind{spLegRead, spLegWrite, spLegNVRAM, spLegSync}
)

// writeSpans writes every kept span tree as one JSON object per line.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	tr.mu.Lock()
	for _, t := range append(tr.threads[:len(tr.threads):len(tr.threads)], tr.bg) {
		t.mu.Lock()
		for _, s := range t.kept {
			fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"thread":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				s.id, s.parent, spanNames[s.kind], s.thread, s.start, s.end)
		}
		t.mu.Unlock()
	}
	tr.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
