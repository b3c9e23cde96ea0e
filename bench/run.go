package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one of the four stacks with its driver. The runner calls
// build once per set-up, round until the run's time is used, then finish,
// crash, recover and verify in that order.
type workload interface {
	// build makes the stack on the shipped defaults, with the boundary
	// wrappers when e.tr is set, populates it and registers the clients.
	build(e *env) error
	// round runs the workload's phases once through e.phase.
	round(e *env)
	// finish leaves the state the crash test checks and makes it durable
	// through the top API (Flush(FailPower) or Sync).
	finish(e *env)
	// crash closes whatever sits above lld and shuts lld down uncleanly.
	crash(e *env) error
	// recover reopens lld on the same backend and re-attaches what verify
	// needs above it.
	recover(e *env) error
	// verify reads back everything the driver's model says was
	// acknowledged; every mismatch is a failed op on a client.
	verify(e *env)
	// cuttable reports whether a round ends in the state finish leaves, so
	// that a power cut between two rounds is a sample of the crash that
	// ends the run.
	cuttable() bool
	// discard stops the goroutines of a stack that was not crashed.
	discard(e *env)
	// layers fills the metrics of the layers above lld from the
	// snapshots the workload took in snap.
	layers(e *env, tt *totals, ops float64, m map[string]float64)
	// snap records the Stats() of the layers above lld as reading i: 0
	// when the traced region begins, 1 when it ends.
	snap(e *env, i int)
}

type phaseKind uint8

const (
	pureRead phaseKind = iota
	pureWrite
	mixedPhase
)

// client is one closed-loop client: it sends its next op only when the
// previous one has completed.
type client struct {
	id  uint32
	rng *rand.Rand
	th  *thread // nil in an untraced run

	readLat, writeLat hist // single-op wall latencies of the current round

	ops, attempted, failed int64 // ops: completed and verified
	readBytes, writeBytes  int64 // user bytes of completed ops
	scanned                int64 // blocks read through ReadBlocks
	loopNS, apiNS          int64 // time in phase loops / inside top-API calls

	beat atomic.Int64 // bumped per op, watched by the watchdog
}

// start opens one op against the top API; k names its span, spNone when
// the top API's own wrapper records it.
func (c *client) start(k spanKind) time.Time {
	if k != spNone {
		c.th.begin(k)
	}
	return time.Now()
}

// stop closes the op started at t0 and adds its latency to lat when that
// is not nil. Verifying what the op returned comes after stop, so it is
// driver time, not latency.
func (c *client) stop(k spanKind, t0 time.Time, lat *hist) {
	d := int64(time.Since(t0))
	if k != spNone {
		c.th.end()
	}
	c.apiNS += d
	if lat != nil {
		lat.add(d)
	}
}

// count books n logical ops as completed and verified, or as failed, and
// returns ok.
func (c *client) count(n int64, ok bool) bool {
	c.attempted += n
	if ok {
		c.ops += n
	} else {
		c.failed += n
	}
	c.beat.Add(1)
	return ok
}

// check counts one verification outside the timed ops.
func (c *client) check(ok bool) {
	c.attempted++
	if !ok {
		c.failed++
	}
	c.beat.Add(1)
}

type phaseStat struct {
	name                       string
	kind                       phaseKind
	ops, readBytes, writeBytes int64
	wall, virt                 time.Duration
}

type roundStat struct {
	phases       []phaseStat
	wall, cpu    time.Duration
	platterBytes int64
	rp50, rp99   float64 // ns
	wp50, wp99   float64
}

// env is one set-up of a workload: its stack, clients and measurements.
type env struct {
	seed    int64
	tr      *tracer
	st      *stack
	clients []*client
	rounds  []roundStat
	warm    roundStat // the warm-up round: round 1 on the fresh stack

	cur *roundStat

	base snapshot // the drivers' counters when the traced region began

	// lld.Open after the crash: its cost on both clocks and, in a traced
	// run, the backend reads it made.
	recVirt, recWall       time.Duration
	recReads, recReadBytes int64
}

// reopen runs recovery on the crashed stack and keeps its cost.
func (e *env) reopen() (err error) {
	var before devCounts
	if e.st.dev != nil {
		before = e.st.dev.values()
	}
	e.recVirt, e.recWall, err = e.st.reopen()
	if e.st.dev != nil {
		after := e.st.dev.values()
		e.recReads, e.recReadBytes = after.Reads-before.Reads, after.ReadBytes-before.ReadBytes
	}
	return err
}

// nClients is min(nproc, 4).
func nClients() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

func (e *env) addClients(n int) {
	for i := 0; i < n; i++ {
		c := &client{id: uint32(i), rng: rand.New(rand.NewSource(e.seed*1000003 + int64(i)))}
		if e.tr != nil {
			c.th = e.tr.newThread(fmt.Sprintf("client-%d", i))
		}
		e.clients = append(e.clients, c)
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (e *env) counters() (ops, rb, wb int64) {
	for _, c := range e.clients {
		ops += c.ops
		rb += c.readBytes
		wb += c.writeBytes
	}
	return
}

// phase runs fn once per client, each on its own goroutine, and waits for
// all of them: phases never overlap, so a pure-read phase is pure.
func (e *env) phase(name string, kind phaseKind, fn func(c *client)) {
	p := phaseStat{name: name, kind: kind}
	o0, r0, w0 := e.counters()
	v0, t0 := e.st.backend.Now(), time.Now()
	var wg sync.WaitGroup
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			if c.th != nil {
				c.th.adopt()
			}
			l0 := time.Now()
			fn(c)
			c.loopNS += int64(time.Since(l0))
		}(c)
	}
	wg.Wait()
	p.wall, p.virt = time.Since(t0), e.st.backend.Now()-v0
	o1, r1, w1 := e.counters()
	p.ops, p.readBytes, p.writeBytes = o1-o0, r1-r0, w1-w0
	e.cur.phases = append(e.cur.phases, p)
}

// runRound runs one round of w and returns its measurements.
func (e *env) runRound(w workload) roundStat {
	var r roundStat
	e.cur = &r
	wr0, cpu0, t0 := e.st.bytesWritten(), cpuTime(), time.Now()
	w.round(e)
	r.wall, r.cpu, r.platterBytes = time.Since(t0), cpuTime()-cpu0, e.st.bytesWritten()-wr0
	var rd, wr hist
	for _, c := range e.clients {
		rd.merge(&c.readLat)
		wr.merge(&c.writeLat)
		c.readLat.reset()
		c.writeLat.reset()
	}
	r.rp50, r.rp99 = rd.quantile(0.5), rd.quantile(0.99)
	r.wp50, r.wp99 = wr.quantile(0.5), wr.quantile(0.99)
	e.cur = nil
	return r
}

// setup builds w and runs the warm-up round.
func setup(w workload, seed int64, tr *tracer) (*env, error) {
	e := &env{seed: seed, tr: tr}
	if err := w.build(e); err != nil {
		return nil, err
	}
	e.warm = e.runRound(w)
	return e, nil
}

// runFor runs whole rounds of w until d has passed.
func (e *env) runFor(w workload, d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		e.rounds = append(e.rounds, e.runRound(w))
	}
}

func (e *env) totals() (attempted, failed int64) {
	for _, c := range e.clients {
		attempted += c.attempted
		failed += c.failed
	}
	return
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// over returns the median over rounds of f.
func over(rounds []roundStat, f func(r *roundStat) float64) float64 {
	v := make([]float64, len(rounds))
	for i := range rounds {
		v[i] = f(&rounds[i])
	}
	return median(v)
}

func (r *roundStat) ops() (n int64) {
	for _, p := range r.phases {
		n += p.ops
	}
	return
}

func (r *roundStat) virt() (d time.Duration) {
	for _, p := range r.phases {
		d += p.virt
	}
	return
}

// kbPerVirtS is user KB moved per virtual second over the pure phases of
// one kind.
func (r *roundStat) kbPerVirtS(kind phaseKind) float64 {
	var bytes int64
	var virt time.Duration
	for _, p := range r.phases {
		if p.kind == kind {
			bytes += p.readBytes + p.writeBytes
			virt += p.virt
		}
	}
	return ratio(float64(bytes)/1024, virt.Seconds())
}

func (r *roundStat) opsPerS() float64 { return ratio(float64(r.ops()), r.wall.Seconds()) }

// The timed region of an untraced run is a fixed amount of work, timedRounds
// rounds, not a fixed time: every bounded metric but setup_s is read off the
// disk arm's clock or the heap, and those depend on what state the stack is
// in, not on how long it took to get there. recovery_virt_s most of all: on
// fs-large it reads 302, 353 and 306 virtual seconds after 6, 16 and 23
// rounds, and how many rounds fit into a given time is the host's business.
//
// The four per-round metrics are medians over the last virtRounds of those
// rounds. The virtSkip before them are the transient of a fresh disk: until
// the log has wrapped once there is nothing to clean (net-mixed wraps in its
// sixth round, the others sooner), and the paper.* metrics cover that state.
const (
	virtSkip    = 6
	virtRounds  = 12
	timedRounds = virtSkip + virtRounds
)

// virtMetrics computes the metrics on the disk arm's clock: medians over
// rounds virtSkip+1 to timedRounds.
func virtMetrics(rounds []roundStat, m map[string]float64) {
	rounds = rounds[virtSkip:timedRounds]
	m["virt_ops_s"] = over(rounds, func(r *roundStat) float64 {
		return ratio(float64(r.ops()), r.virt().Seconds())
	})
	m["virt_read_kb_s"] = over(rounds, func(r *roundStat) float64 { return r.kbPerVirtS(pureRead) })
	m["virt_write_kb_s"] = over(rounds, func(r *roundStat) float64 { return r.kbPerVirtS(pureWrite) })
	m["write_amp"] = over(rounds, func(r *roundStat) float64 {
		var user int64
		for _, p := range r.phases {
			user += p.writeBytes
		}
		return ratio(float64(r.platterBytes), float64(user))
	})
}

// wallMetrics computes the metrics on the wall clock, as wall.<name>:
// medians over all rounds.
func wallMetrics(rounds []roundStat, m map[string]float64) {
	m["wall.ops_s"] = over(rounds, (*roundStat).opsPerS)
	m["wall.cpu_us_op"] = over(rounds, func(r *roundStat) float64 {
		return ratio(float64(r.cpu.Microseconds()), float64(r.ops()))
	})
	m["wall.read_p50_us"] = over(rounds, func(r *roundStat) float64 { return r.rp50 / 1e3 })
	m["wall.read_p99_us"] = over(rounds, func(r *roundStat) float64 { return r.rp99 / 1e3 })
	m["wall.write_p50_us"] = over(rounds, func(r *roundStat) float64 { return r.wp50 / 1e3 })
	m["wall.write_p99_us"] = over(rounds, func(r *roundStat) float64 { return r.wp99 / 1e3 })
}

// heapMB is the live heap after a collection, less the platters: what
// the layers and the driver's model keep in memory.
func heapMB(st *stack) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return (float64(ms.HeapAlloc) - float64(st.platterBytes())) / (1 << 20)
}

// watchdog turns a hang into a goroutine dump and a non-zero exit. It
// watches every client's op counter, and the main goroutine's steps
// through its own beat; anything silent for stall fires it.
type watchdog struct {
	mu      sync.Mutex
	clients []*client
	main    atomic.Int64
	step    atomic.Value // string: what the main goroutine is doing
}

const stall = 60 * time.Second

func (wd *watchdog) watch(e *env) {
	wd.mu.Lock()
	wd.clients = e.clients
	wd.mu.Unlock()
}

// enter names the step the main goroutine starts and counts as progress.
func (wd *watchdog) enter(step string) {
	wd.step.Store(step)
	wd.main.Add(1)
}

func (wd *watchdog) run() {
	last, since := int64(-1), time.Now()
	for range time.Tick(time.Second) {
		sum := wd.main.Load()
		wd.mu.Lock()
		for _, c := range wd.clients {
			sum += c.beat.Load()
		}
		wd.mu.Unlock()
		if sum != last {
			last, since = sum, time.Now()
			continue
		}
		if time.Since(since) > stall {
			fmt.Fprintf(os.Stderr, "bench: no op completed for %v during %v; goroutines:\n", stall, wd.step.Load())
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
			os.Exit(3)
		}
	}
}
