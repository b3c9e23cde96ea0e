// Command bench is the one benchmark of this repository: four closed-loop
// workloads over the whole stack (minixfs, netld, lld, mdisk, disk) built
// from the shipped defaults, measured on two clocks, verified byte for
// byte, and ended by an unclean shutdown whose recovery must give back
// everything that was acknowledged. README.md describes it.
//
//	bash bench/run.sh --workload ld-churn --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh                      # all four, untraced then traced
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const (
	minSetups = 6 // set-ups per untraced run, at least; setup_s is their median
	// crashes is how many recoveries an untraced run times, one after each
	// of its last rounds. The layout a round of fs-large leaves alternates
	// between two shapes from one round to the next, 300 and 355 virtual
	// seconds to recover, and which of them round 18 gets is the scheduler's
	// choice; an even number of crashes takes as many of each, and their mean
	// repeats where a single crash, or a median, does not.
	crashes = 4
)

func newWorkload(name string) workload {
	switch name {
	case "fs-small":
		return &fsSmall{}
	case "fs-large":
		return &fsLarge{}
	case "ld-churn":
		return ldChurn()
	case "net-mixed":
		return netMixed()
	}
	return nil
}

func main() {
	var (
		name     = flag.String("workload", "all", "fs-small, fs-large, ld-churn, net-mixed or all")
		seed     = flag.Int64("seed", 1, "drives op order and payload stamps")
		seconds  = flag.Int("seconds", 10, "length of each run: an untraced run does a fixed number of rounds and fills the rest with set-ups, a traced run does rounds until the time is up")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run; -1: both, one after the other")
		traceOut = flag.String("trace-out", "", "write the kept span trees (1 op in 1024) of a traced run to this file")
		out      = flag.String("out", "", "write the results and their provenance to this JSON file, the input of -compare")
		cmp      = flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 when the second is worse than the first by more than a bound")
		desc     = flag.Bool("describe", false, "print BENCHMARK.json")
	)
	flag.Parse()

	switch {
	case *desc:
		b, err := describe(*seconds)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", b)
		return
	case *cmp:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		ok, err := compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, d := range workloadDefs {
			names = append(names, d.Name)
		}
	} else if newWorkload(*name) == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}

	wd := &watchdog{}
	go wd.run()

	rep := report{Env: environment(*seed, *seconds), Workloads: map[string]*result{}}
	var last *result
	for _, n := range names {
		res := &result{Correct: true, Metrics: map[string]value{}}
		for _, traced := range []bool{false, true} {
			if *trace == 0 && traced || *trace == 1 && !traced {
				continue
			}
			r := &run{name: n, seed: *seed, dur: time.Duration(*seconds) * time.Second, wd: wd, traceOut: *traceOut}
			var err error
			if traced {
				err = r.traced()
			} else {
				err = r.untraced()
			}
			if err != nil {
				fatal(fmt.Errorf("%s: %w", n, err))
			}
			res.Attempted += r.attempted
			res.Failed += r.failed
			// An untraced run measures the end-to-end metrics and, over
			// its whole timed region, the wall-clock ones; a traced run
			// measures every per-layer metric, the wall-clock ones on its
			// short bare-stack reference. When both ran, the untraced
			// run's wall-clock numbers are the ones kept.
			defs, mode := untracedDefs, "untraced"
			if traced {
				defs, mode = perLayer, "traced"
			}
			for _, d := range defs {
				if _, have := res.Metrics[d.Name]; !have {
					res.Metrics[d.Name] = value{r.m[d.Name], d.Unit}
				}
			}
			fmt.Printf("%s  %s  set-ups %d  rounds %d  wall %.2fs  attempted %d  failed %d\n",
				n, mode, r.setups, r.rounds, r.wall.Seconds(), r.attempted, r.failed)
			printMetrics(os.Stdout, defs, r.m)
		}
		res.Correct = res.Failed == 0
		rep.Workloads[n] = res
		last = res
	}

	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	env, _ := json.Marshal(rep.Env)
	fmt.Printf("env %s\n", env)
	// The contract's result line, the last line of standard output: with
	// -trace 0 exactly the end-to-end metrics, with -trace 1 exactly the
	// per-layer ones.
	if *trace == 0 {
		for _, d := range wallClock {
			delete(last.Metrics, d.Name)
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(2)
}

// environment is the provenance printed with every result.
func environment(seed int64, seconds int) map[string]any {
	rev := "unknown"
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		// Only a repository rooted at the checkout counts, not one above it.
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := git.Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"git":        rev,
		"seed":       seed,
		"seconds":    seconds,
		"clients":    nClients(),
	}
}

// run is one measurement of one workload.
type run struct {
	name     string
	seed     int64
	dur      time.Duration
	wd       *watchdog
	traceOut string

	m                 map[string]float64
	attempted, failed int64
	rounds, setups    int
	wall              time.Duration
}

// epilogue is the durability test every run ends with: make everything
// durable through the top API, shut lld down uncleanly, recover on the
// same backend, read everything back.
func (r *run) epilogue(w workload, e *env) error {
	r.wd.enter("finish")
	w.finish(e)
	r.wd.enter("unclean shutdown")
	if err := w.crash(e); err != nil {
		return fmt.Errorf("unclean shutdown: %w", err)
	}
	r.wd.enter("recovery")
	if err := w.recover(e); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	r.wd.enter("verify")
	w.verify(e)
	r.attempted, r.failed = e.totals()
	r.rounds = len(e.rounds)
	for _, rd := range e.rounds {
		r.wall += rd.wall
	}
	return nil
}

// untraced measures the end-to-end metrics. The stack holds no wrapper.
// The run is minSetups/2 set-ups, timedRounds rounds on the last of them,
// the epilogue, and then set-ups again until -seconds have passed since the
// run began: the rounds are a fixed amount of work, so that every run crashes
// and recovers the same state, and the time left over buys more samples of
// setup_s, the one bounded metric on the wall clock.
func (r *run) untraced() error {
	w := newWorkload(r.name)
	began := time.Now()
	var took []float64
	timedSetup := func() (*env, error) {
		r.wd.enter("set-up")
		t0 := time.Now()
		e, err := setup(w, r.seed, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, (time.Since(t0) - e.st.alloc).Seconds())
		r.wd.watch(e)
		return e, nil
	}
	var e *env
	for i := 0; i < minSetups/2; i++ {
		if e != nil {
			w.discard(e)
		}
		var err error
		if e, err = timedSetup(); err != nil {
			return err
		}
	}
	runtime.GC() // the discarded set-ups' platters

	// recovery_virt_s is the mean over the run's crashes: power cuts after
	// rounds 15 to 17 where a round ends in the state the last crash finds,
	// and the crash after round 18 that the epilogue verifies.
	var recovery []float64
	for i := 1; i <= timedRounds; i++ {
		r.wd.enter("timed region")
		e.rounds = append(e.rounds, e.runRound(w))
		if w.cuttable() && i > timedRounds-crashes && i < timedRounds {
			r.wd.enter("power-cut recovery")
			virt, err := e.st.powerCut()
			if err != nil {
				return err
			}
			recovery = append(recovery, virt.Seconds())
		}
	}
	r.m = map[string]float64{}
	virtMetrics(e.rounds, r.m)
	wallMetrics(e.rounds, r.m)
	r.m["heap_mb"] = heapMB(e.st)
	if err := r.epilogue(w, e); err != nil {
		return err
	}
	r.m["recovery_virt_s"] = mean(append(recovery, e.recVirt.Seconds()))
	w.discard(e)

	for len(took) < minSetups || time.Since(began) < r.dur {
		e, err := timedSetup()
		if err != nil {
			return err
		}
		w.discard(e)
	}
	r.setups = len(took)
	r.m["setup_s"] = median(took)
	return nil
}

// traced measures the per-layer metrics: a third of the time on a bare
// stack for the reference rate, the rest on a stack with the benchmark's
// wrappers at every boundary.
func (r *run) traced() error {
	w := newWorkload(r.name)
	r.wd.enter("set-up")
	e, err := setup(w, r.seed, nil)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.wd.watch(e)
	r.wd.enter("untraced reference")
	e.runFor(w, r.dur/3)
	r.m = map[string]float64{}
	wallMetrics(e.rounds, r.m)
	bare := r.m["wall.ops_s"]
	w.discard(e)

	r.wd.enter("set-up")
	tr := newTracer()
	if e, err = setup(w, r.seed, tr); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.wd.watch(e)
	runtime.GC()

	r.wd.enter("timed region")
	before := takeSnapshot(e)
	w.snap(e, 0)
	tr.enabled.Store(true)
	e.runFor(w, r.dur-r.dur/3)
	tr.enabled.Store(false)
	w.snap(e, 1)
	after := takeSnapshot(e)
	tt := tr.collect()

	ops := float64(after.ops - before.ops)
	r.m["bench.trace_overhead_frac"] = ratio(bare, over(e.rounds, (*roundStat).opsPerS)) - 1
	r.m["bench.gen_us_op"] = ratio(float64((after.loopNS-before.loopNS)-(after.apiNS-before.apiNS))/1e3, ops)
	r.m["bench.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	r.m["bench.clients"] = float64(len(e.clients))
	e.base = before
	w.layers(e, tt, ops, r.m)
	lowerLayers(e, tt, before, after, ops, r.m)

	if err := r.epilogue(w, e); err != nil {
		return err
	}
	r.m["lld.recovery.wall_ms"] = float64(e.recWall.Microseconds()) / 1e3
	r.m["lld.recovery.dev_reads"] = float64(e.recReads)
	r.m["lld.recovery.dev_read_bytes"] = float64(e.recReadBytes)
	ls := e.st.l.Stats()
	r.m["lld.recovery.sweep_segments"] = float64(ls.RecoverySweepSegments)
	r.m["lld.recovery.anomalies"] = float64(ls.RecoveryAnomalies)
	w.discard(e)
	r.setups = 2
	if r.traceOut != "" {
		if err := tr.writeSpans(r.traceOut); err != nil {
			return err
		}
	}
	return nil
}
