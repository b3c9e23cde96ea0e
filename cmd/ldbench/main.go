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
// It also runs the bounded power-failure torture smoke over every
// topology, and replays one of its reproducer lines:
//
//	ldbench -torture [-torture-seed N] [-torture-points N]
//	ldbench -torture-replay "seed=... point=..."
//
// The whole-stack benchmark (throughput, latency, recovery cost, per-layer
// metrics) is bench/run.sh, not this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/harness"
)

func main() {
	scale := flag.Int("scale", 10, "divide the paper's workload sizes by this factor (1 = full size)")
	list := flag.Bool("list", false, "list available experiments and exit")
	tortureSmoke := flag.Bool("torture", false, "run the bounded power-failure torture smoke (all topologies)")
	tortureSeed := flag.Int64("torture-seed", 1, "master seed for -torture")
	tortureOps := flag.Int("torture-ops", 160, "workload length per crash point for -torture")
	torturePoints := flag.Int("torture-points", 40, "max crash points per topology for -torture (0 = all)")
	tortureReplay := flag.String("torture-replay", "", "replay one torture reproducer line and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ldbench [-scale N] [-list] <experiment>... | all\n")
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
