// Command ldbench reproduces every table and in-text experiment from the
// evaluation of "The Logical Disk" (SOSP 1993) on the simulated disk.
//
// Usage:
//
//	ldbench -list             # show available experiments
//	ldbench table4 table5     # run specific experiments
//	ldbench all               # run everything
//	ldbench -scale 1 all      # full paper-sized workloads (slower)
//
// Results are printed as paper-style tables; throughput numbers come from
// the simulated disk's virtual clock.
//
// The LD-level microbenchmarks (small-file create/read/delete, large-file
// write) also run over the netld wire against a live ldserver, or against
// an equivalent in-process LLD for comparison; these report wall time,
// since the point is to measure what the network adds:
//
//	ldbench -remote localhost:7093   # microbenchmarks against ldserver
//	ldbench -micro                   # same suite, in-process LLD
//
// The multi-client throughput suite runs read-heavy, mixed, and write-heavy
// randomized workloads at several client counts, in-process or against a
// live server (one connection per client):
//
//	ldbench -conc                          # concurrent suite, in-process LLD
//	ldbench -conc -clients 1,4,16          # choose the client counts
//	ldbench -conc -remote localhost:7093   # same suite over netld
//
// The batched-read benchmark scans a working set per-block and then
// through one OpReadMulti batch per sweep, in-process or against a live
// server; on a latency-bearing link the batch amortizes the per-block
// round trips:
//
//	ldbench -batchbench                          # in-process LLD
//	ldbench -batchbench -remote localhost:7093   # over netld
//	ldbench -batchbench -batch-blocks 256        # bigger working set
//
// The cleaner-stall benchmark runs the same write-heavy workload on a
// space-tight in-process LLD twice — once with inline cleaning on the
// write path, once with the background cleaner goroutine — and reports
// the per-write stall quantiles side by side:
//
//	ldbench -cleanbench
//
// The scrubber-stall benchmark runs the same workload with and without the
// background scrubber verifying checksums behind the writers, showing what
// continuous integrity checking costs the foreground:
//
//	ldbench -scrubbench
//
// The shard benchmark measures all-write throughput across the block-map
// stripe count (lld.Options.MapShards) at several client counts, showing
// how far independent writes scale once the map stops sharing one lock:
//
//	ldbench -shardbench
//	ldbench -shardbench -shard-ops 500   # smaller cells
//
// The multi-disk suite measures sequential throughput on the virtual
// clock over striped and mirrored backends (internal/mdisk): stripe
// read/write scaling across leg counts, and mirror write fan-out and
// degraded-read cost across replica counts:
//
//	ldbench -stripe            # stripe scaling sweep (1, 2, 4, 8 legs)
//	ldbench -mirror            # mirror overhead sweep (1, 2, 3 replicas)
//	ldbench -stripe -mirror    # both
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/disk"
	"repro/internal/harness"
	"repro/internal/ld"
	"repro/internal/ldmicro"
	"repro/internal/lld"
	"repro/internal/netld/client"
)

// runMicro executes the LD-level microbenchmark suite against d.
func runMicro(d ld.Disk, label string, files int) error {
	fmt.Printf("# LD microbenchmarks (%s) — wall time, %d small files\n", label, files)
	results, err := ldmicro.Run(d, ldmicro.Config{SmallFiles: files})
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Println(r)
	}
	return nil
}

// localMicroDisk builds the in-process LLD that mirrors ldserver's
// default backing store.
func localMicroDisk() (ld.Disk, error) {
	d := disk.New(disk.DefaultConfig(64 << 20))
	o := lld.DefaultOptions()
	if err := lld.Format(d, o); err != nil {
		return nil, err
	}
	return lld.Open(d, o)
}

// stallDisk builds the space-tight LLD for the cleaner-stall benchmark:
// 4 MB of disk with 128 KiB segments, so the workload's working set
// occupies most of it and rewrites keep cycling the free-segment pool
// through the cleaning watermarks.
func stallDisk(background bool) (ld.Disk, error) {
	return stallDiskScrub(background, false)
}

// stallDiskScrub is stallDisk with an optional background scrubber, used
// by the scrubber-overhead benchmark.
func stallDiskScrub(background, scrub bool) (ld.Disk, error) {
	d := disk.New(disk.DefaultConfig(4 << 20))
	o := lld.DefaultOptions()
	o.SegmentSize = 128 * 1024
	o.SummarySize = 4 * 1024
	o.CompressBandwidth = 0
	if background {
		o.BackgroundClean = true
		o.CleanStepSegments = 1
	}
	if scrub {
		o.BackgroundScrub = true
		o.ScrubStepSegments = 1
	}
	if err := lld.Format(d, o); err != nil {
		return nil, err
	}
	return lld.Open(d, o)
}

// runCleanBench runs the write-stall workload twice — inline cleaning,
// then the background cleaner — and prints the quantiles side by side.
func runCleanBench(clients, ops int) error {
	fmt.Printf("# LD cleaner stalls — per-write latency on a space-tight disk, %d clients × %d rewrites\n", clients, ops)
	cfg := ldmicro.StallConfig{Clients: clients, OpsPerClient: ops}
	var results []ldmicro.StallResult
	for _, mode := range []struct {
		name       string
		background bool
	}{{"inline cleaning", false}, {"background cleaner", true}} {
		l, err := stallDisk(mode.background)
		if err != nil {
			return err
		}
		r, err := ldmicro.RunWriteStall(mode.name, ldmicro.SingleHandle(l), cfg)
		if err != nil {
			l.Shutdown(true)
			return err
		}
		if err := l.Shutdown(true); err != nil {
			return err
		}
		fmt.Println(r)
		results = append(results, r)
	}
	if s, b := results[0], results[1]; b.P99 > 0 {
		fmt.Printf("p99 writer stall: %s inline vs %s background (%.2fx)\n",
			s.P99.Round(time.Microsecond), b.P99.Round(time.Microsecond),
			float64(s.P99)/float64(b.P99))
	}
	return nil
}

// runScrubBench runs the write-stall workload twice — without and with the
// background scrubber re-verifying every sealed segment behind the writers —
// and prints the quantiles side by side. Both runs use the background
// cleaner so the only variable is the scrubber's lock traffic.
func runScrubBench(clients, ops int) error {
	fmt.Printf("# LD scrubber overhead — per-write latency with checksum scrubbing behind the writers, %d clients × %d rewrites\n", clients, ops)
	cfg := ldmicro.StallConfig{Clients: clients, OpsPerClient: ops}
	var results []ldmicro.StallResult
	for _, mode := range []struct {
		name  string
		scrub bool
	}{{"no scrubber", false}, {"background scrubber", true}} {
		l, err := stallDiskScrub(true, mode.scrub)
		if err != nil {
			return err
		}
		r, err := ldmicro.RunWriteStall(mode.name, ldmicro.SingleHandle(l), cfg)
		if err != nil {
			l.Shutdown(true)
			return err
		}
		if err := l.Shutdown(true); err != nil {
			return err
		}
		if ll, ok := l.(*lld.LLD); ok && mode.scrub {
			s := ll.Stats()
			fmt.Printf("scrubber: %d passes, %d segments, %d blocks (%d KB) verified, %d errors\n",
				s.BGScrubPasses, s.ScrubSegments, s.ScrubBlocks, s.ScrubBytes>>10, s.ScrubErrors)
		}
		fmt.Println(r)
		results = append(results, r)
	}
	if base, scrub := results[0], results[1]; base.P99 > 0 {
		fmt.Printf("p99 writer stall: %s without vs %s with scrubbing (%.2fx)\n",
			base.P99.Round(time.Microsecond), scrub.P99.Round(time.Microsecond),
			float64(scrub.P99)/float64(base.P99))
	}
	return nil
}

// runMultiDisk runs the requested striped/mirrored throughput sweeps
// and prints one line per phase plus the stripe scaling factors.
func runMultiDisk(stripe, mirror bool, ioBytes int64) error {
	cfg := ldmicro.MultiDiskConfig{IOBytes: ioBytes}
	if !stripe {
		cfg.StripeCounts = []int{} // non-nil empty: skip the mode
	}
	if !mirror {
		cfg.MirrorCounts = []int{}
	}
	fmt.Printf("# multi-disk throughput (virtual clock) — %d KB per phase, sequential\n", ioBytes>>10)
	results, err := ldmicro.RunMultiDisk(cfg)
	if err != nil {
		return err
	}
	base := make(map[string]float64) // mode+op of the smallest count
	for _, r := range results {
		line := r.String()
		key := r.Mode + r.Op
		if _, ok := base[key]; !ok {
			base[key] = r.MBPerSec()
		} else if b := base[key]; b > 0 && r.Backends > 1 {
			line += fmt.Sprintf("  (%.2fx vs 1)", r.MBPerSec()/b)
		}
		fmt.Println(line)
	}
	return nil
}

// runBatchBench scans the same working set per-block and batched and
// prints both rates plus the round-trip amortization factor.
func runBatchBench(open ldmicro.OpenFunc, label string, blocks, rounds int) error {
	fmt.Printf("# LD batched reads (%s) — wall time, %d blocks x %d sweeps\n", label, blocks, rounds)
	per, batched, err := ldmicro.RunBatchReadComparison(label, open, ldmicro.BatchReadConfig{
		Blocks: blocks,
		Rounds: rounds,
	})
	if err != nil {
		return err
	}
	fmt.Println(per)
	fmt.Println(batched)
	if pb := per.BlocksPerSec(); pb > 0 {
		fmt.Printf("batched speedup: %.2fx\n", batched.BlocksPerSec()/pb)
	}
	return nil
}

// parseClients parses a comma-separated client-count list like "1,4,16".
func parseClients(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad client count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// runConcurrent executes the multi-client throughput suite against open.
func runConcurrent(open ldmicro.OpenFunc, label string, clients []int, ops int) error {
	fmt.Printf("# LD concurrent throughput (%s) — wall time, %d ops/client\n", label, ops)
	results, err := ldmicro.RunConcurrentSuite(open, clients, ldmicro.ConcurrentConfig{OpsPerClient: ops})
	if err != nil {
		return err
	}
	base := make(map[string]float64)
	for _, r := range results {
		line := r.String()
		if r.Clients == clients[0] {
			base[r.Name] = r.OpsPerSec()
		} else if b := base[r.Name]; b > 0 {
			line += fmt.Sprintf("  (%.2fx vs %d)", r.OpsPerSec()/b, clients[0])
		}
		fmt.Println(line)
	}
	return nil
}

// runShardBench measures all-write throughput across the MapShards ×
// clients matrix, each cell on a fresh in-process LLD. Writes go to a
// Compress-hinted working set, so every write carries real compression and
// checksum CPU — the work the striped write path runs outside the instance
// lock, and therefore the component that scales with the stripe count.
func runShardBench(ops int) error {
	newDisk := func(shards int) (ld.Disk, func() error, error) {
		d := disk.New(disk.DefaultConfig(64 << 20))
		o := lld.DefaultOptions()
		o.CompressBandwidth = 0 // wall-time benchmark; no virtual CPU charge
		o.MapShards = shards
		if err := lld.Format(d, o); err != nil {
			return nil, nil, err
		}
		l, err := lld.Open(d, o)
		if err != nil {
			return nil, nil, err
		}
		return l, func() error { return l.Shutdown(true) }, nil
	}
	fmt.Printf("# LD write scaling vs map shards — all-write, compress-hinted, wall time, %d ops/client\n", ops)
	results, err := ldmicro.RunShardSweep(newDisk, ldmicro.ShardSweepConfig{
		Base: ldmicro.ConcurrentConfig{OpsPerClient: ops},
	})
	if err != nil {
		return err
	}
	base := make(map[int]float64) // client count -> ops/s at one stripe
	for _, r := range results {
		line := r.String()
		if r.Shards == 1 {
			base[r.Clients] = r.OpsPerSec()
		} else if b := base[r.Clients]; b > 0 {
			line += fmt.Sprintf("  (%.2fx vs 1 shard)", r.OpsPerSec()/b)
		}
		fmt.Println(line)
	}
	return nil
}

func main() {
	scale := flag.Int("scale", 10, "divide the paper's workload sizes by this factor (1 = full size)")
	list := flag.Bool("list", false, "list available experiments and exit")
	remote := flag.String("remote", "", "run LD microbenchmarks against a netld server at this address")
	micro := flag.Bool("micro", false, "run LD microbenchmarks against an in-process LLD")
	microFiles := flag.Int("micro-files", 500, "small-file count for the microbenchmarks")
	conc := flag.Bool("conc", false, "run the multi-client throughput suite (in-process, or against -remote)")
	concClients := flag.String("clients", "1,4,16", "comma-separated client counts for -conc")
	concOps := flag.Int("conc-ops", 2000, "operations per client for -conc")
	batchbench := flag.Bool("batchbench", false, "run the per-block vs batched read scan (in-process, or against -remote)")
	batchBlocks := flag.Int("batch-blocks", 64, "working-set size for -batchbench")
	batchRounds := flag.Int("batch-rounds", 8, "sweeps per mode for -batchbench")
	cleanbench := flag.Bool("cleanbench", false, "run the sync-vs-background cleaner writer-stall comparison")
	cleanOps := flag.Int("clean-ops", 500, "rewrites per client for -cleanbench")
	scrubbench := flag.Bool("scrubbench", false, "run the with-vs-without background scrubber writer-stall comparison")
	scrubOps := flag.Int("scrub-ops", 500, "rewrites per client for -scrubbench")
	shardbench := flag.Bool("shardbench", false, "run the write-scaling sweep across block-map lock stripes (1/4/16 clients x 1/4/8 shards)")
	shardOps := flag.Int("shard-ops", 2000, "writes per client for -shardbench")
	stripeBench := flag.Bool("stripe", false, "run the striped-backend throughput sweep (virtual clock, 1/2/4/8 legs)")
	mirrorBench := flag.Bool("mirror", false, "run the mirrored-backend overhead sweep (virtual clock, 1/2/3 replicas)")
	mdiskBytes := flag.Int64("mdisk-bytes", 8<<20, "bytes moved per phase in the -stripe/-mirror sweeps")
	tortureSmoke := flag.Bool("torture", false, "run the bounded power-failure torture smoke (all topologies)")
	tortureSeed := flag.Int64("torture-seed", 1, "master seed for -torture")
	tortureOps := flag.Int("torture-ops", 160, "workload length per crash point for -torture")
	torturePoints := flag.Int("torture-points", 40, "max crash points per topology for -torture (0 = all)")
	tortureReplay := flag.String("torture-replay", "", "replay one torture reproducer line and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ldbench [-scale N] [-list] <experiment>... | all\n")
		fmt.Fprintf(os.Stderr, "       ldbench -remote addr | -micro   (LD microbenchmarks)\n")
		fmt.Fprintf(os.Stderr, "       ldbench -conc [-clients 1,4,16] [-remote addr]   (multi-client throughput)\n")
		fmt.Fprintf(os.Stderr, "       ldbench -batchbench [-remote addr] [-batch-blocks N]   (per-block vs batched reads)\n")
		fmt.Fprintf(os.Stderr, "       ldbench -cleanbench [-clean-ops N]   (cleaner writer-stall quantiles)\n")
		fmt.Fprintf(os.Stderr, "       ldbench -scrubbench [-scrub-ops N]   (background-scrubber overhead)\n")
		fmt.Fprintf(os.Stderr, "       ldbench -shardbench [-shard-ops N]   (write scaling vs map-shard count)\n")
		fmt.Fprintf(os.Stderr, "       ldbench -stripe | -mirror [-mdisk-bytes N]   (multi-disk throughput, virtual clock)\n")
		fmt.Fprintf(os.Stderr, "       ldbench -torture [-torture-seed N] [-torture-points N]   (power-failure torture smoke)\n")
		fmt.Fprintf(os.Stderr, "       ldbench -torture-replay \"seed=... point=...\"   (replay one torture reproducer)\n\nExperiments:\n")
		for _, e := range harness.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", e.ID, e.Title)
		}
	}
	flag.Parse()

	if *tortureReplay != "" {
		if err := runTortureReplay(*tortureReplay); err != nil {
			fmt.Fprintf(os.Stderr, "ldbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *tortureSmoke {
		if err := runTortureSmoke(*tortureSeed, *tortureOps, *torturePoints); err != nil {
			fmt.Fprintf(os.Stderr, "ldbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *stripeBench || *mirrorBench {
		if err := runMultiDisk(*stripeBench, *mirrorBench, *mdiskBytes); err != nil {
			fmt.Fprintf(os.Stderr, "ldbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *batchbench {
		var open ldmicro.OpenFunc
		label := "local in-process LLD"
		if *remote != "" {
			label = "remote " + *remote
			addr := *remote
			open = func() (ld.Disk, func() error, error) {
				c, err := client.Dial(addr, client.Options{})
				if err != nil {
					return nil, nil, err
				}
				return c, c.Close, nil
			}
		} else {
			d, err := localMicroDisk()
			if err != nil {
				fmt.Fprintf(os.Stderr, "ldbench: %v\n", err)
				os.Exit(1)
			}
			open = ldmicro.SingleHandle(d)
		}
		if err := runBatchBench(open, label, *batchBlocks, *batchRounds); err != nil {
			fmt.Fprintf(os.Stderr, "ldbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *cleanbench {
		if err := runCleanBench(4, *cleanOps); err != nil {
			fmt.Fprintf(os.Stderr, "ldbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *scrubbench {
		if err := runScrubBench(4, *scrubOps); err != nil {
			fmt.Fprintf(os.Stderr, "ldbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *shardbench {
		if err := runShardBench(*shardOps); err != nil {
			fmt.Fprintf(os.Stderr, "ldbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *conc {
		clients, err := parseClients(*concClients)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ldbench: %v\n", err)
			os.Exit(2)
		}
		var open ldmicro.OpenFunc
		label := "local in-process LLD"
		if *remote != "" {
			label = "remote " + *remote
			open = func() (ld.Disk, func() error, error) {
				c, err := client.Dial(*remote, client.Options{})
				if err != nil {
					return nil, nil, err
				}
				return c, c.Close, nil
			}
		} else {
			d, err := localMicroDisk()
			if err != nil {
				fmt.Fprintf(os.Stderr, "ldbench: %v\n", err)
				os.Exit(1)
			}
			open = ldmicro.SingleHandle(d)
		}
		if err := runConcurrent(open, label, clients, *concOps); err != nil {
			fmt.Fprintf(os.Stderr, "ldbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *remote != "" {
		c, err := client.Dial(*remote, client.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ldbench: %v\n", err)
			os.Exit(1)
		}
		defer c.Close()
		if err := runMicro(c, "remote "+*remote, *microFiles); err != nil {
			fmt.Fprintf(os.Stderr, "ldbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *micro {
		d, err := localMicroDisk()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ldbench: %v\n", err)
			os.Exit(1)
		}
		if err := runMicro(d, "local in-process LLD", *microFiles); err != nil {
			fmt.Fprintf(os.Stderr, "ldbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	var todo []harness.Experiment
	if len(args) == 1 && args[0] == "all" {
		todo = harness.All()
	} else {
		for _, id := range args {
			e, ok := harness.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "ldbench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}

	cfg := harness.Config{Scale: *scale}
	fmt.Printf("# The Logical Disk (SOSP '93) reproduction — scale 1/%d of the paper's workloads\n", *scale)
	fmt.Printf("# partition %d MB, large file %d MB, cache %d KB\n\n",
		cfg.PartitionBytes()>>20, cfg.LargeFileBytes()>>20, harness.CacheBytes/1024)
	for _, e := range todo {
		start := time.Now()
		tab, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ldbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(tab.Render())
		fmt.Printf("(%s ran in %.1fs wall time)\n\n", e.ID, time.Since(start).Seconds())
	}
}
