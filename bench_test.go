package repro

// One benchmark per table and in-text experiment of the paper's evaluation.
// Each runs the corresponding harness experiment end to end on the
// simulated disk and reports the headline numbers as custom metrics, so
// `go test -bench=. -benchmem` regenerates the whole evaluation at reduced
// scale (cmd/ldbench -scale 1 runs the paper-sized versions).

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/harness"
)

// benchConfig keeps the benchmarks quick; the shapes are scale-invariant.
func benchConfig() harness.Config { return harness.Config{Scale: 20} }

// metric extracts a numeric cell from a rendered experiment table.
func metric(b *testing.B, tab *harness.Table, row, col int) float64 {
	b.Helper()
	s := strings.TrimSuffix(strings.TrimPrefix(tab.Rows[row][col], "+"), "%")
	s = strings.Fields(s)[0]
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell (%d,%d)=%q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func runExperiment(b *testing.B, id string, report func(*harness.Table)) {
	b.Helper()
	e, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := benchConfig()
	var tab *harness.Table
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if report != nil {
		report(tab)
	}
	b.Logf("\n%s", tab.Render())
}

// BenchmarkTable2 regenerates paper Table 2 (LLD memory per GB of disk).
func BenchmarkTable2(b *testing.B) {
	runExperiment(b, "table2", nil)
}

// BenchmarkTable3 regenerates paper Table 3 (memory cost as % of disk price).
func BenchmarkTable3(b *testing.B) {
	runExperiment(b, "table3", nil)
}

// BenchmarkTable4 regenerates paper Table 4 (small-file files/sec for
// MINIX LLD, MINIX, and the SunOS-like FFS).
func BenchmarkTable4(b *testing.B) {
	runExperiment(b, "table4", func(t *harness.Table) {
		b.ReportMetric(metric(b, t, 0, 1), "LLD-create-files/s")
		b.ReportMetric(metric(b, t, 1, 1), "MINIX-create-files/s")
		b.ReportMetric(metric(b, t, 2, 1), "SunOS-create-files/s")
	})
}

// BenchmarkTable5 regenerates paper Table 5 (large-file KB/s, five phases).
func BenchmarkTable5(b *testing.B) {
	runExperiment(b, "table5", func(t *harness.Table) {
		b.ReportMetric(metric(b, t, 0, 1), "LLD-seqwrite-KB/s")
		b.ReportMetric(metric(b, t, 1, 1), "MINIX-seqwrite-KB/s")
		b.ReportMetric(metric(b, t, 0, 3), "LLD-randwrite-KB/s")
	})
}

// BenchmarkTable6 regenerates paper Table 6 (blocks written per operation,
// Sprite LFS vs MINIX LLD, analytic plus measured).
func BenchmarkTable6(b *testing.B) {
	runExperiment(b, "table6", nil)
}

// BenchmarkRecovery regenerates the §4.2 recovery measurement (one-sweep
// rebuild after a crash).
func BenchmarkRecovery(b *testing.B) {
	runExperiment(b, "recovery", func(t *harness.Table) {
		b.ReportMetric(metric(b, t, 2, 1), "recovery-s")
		b.ReportMetric(metric(b, t, 1, 1), "summaries")
	})
}

// BenchmarkSegmentSize regenerates the §4.2 segment-size sweep.
func BenchmarkSegmentSize(b *testing.B) {
	runExperiment(b, "segsize", func(t *harness.Table) {
		b.ReportMetric(metric(b, t, 0, 1), "512K-KB/s")
		b.ReportMetric(metric(b, t, 3, 1), "64K-KB/s")
	})
}

// BenchmarkListOverhead regenerates the §4.2 list-maintenance measurement.
func BenchmarkListOverhead(b *testing.B) {
	runExperiment(b, "listcost", nil)
}

// BenchmarkInodeBlocks regenerates the §4.2 i-node block-size comparison.
func BenchmarkInodeBlocks(b *testing.B) {
	runExperiment(b, "inodesize", nil)
}

// BenchmarkCompression regenerates the §4.2 compression measurement.
func BenchmarkCompression(b *testing.B) {
	runExperiment(b, "compressbw", func(t *harness.Table) {
		b.ReportMetric(metric(b, t, 1, 1), "compressed-write-KB/s")
		b.ReportMetric(metric(b, t, 1, 2), "compressed-read-KB/s")
	})
}

// BenchmarkFlushCost regenerates the §3.2 partial-segment ablation.
func BenchmarkFlushCost(b *testing.B) {
	runExperiment(b, "flushcost", nil)
}

// BenchmarkLDImpl regenerates the §5.2 comparison: the same MINIX file
// system on the log-structured LD versus the update-in-place LD.
func BenchmarkLDImpl(b *testing.B) {
	runExperiment(b, "ldimpl", func(t *harness.Table) {
		b.ReportMetric(metric(b, t, 0, 2), "LLD-seqwrite-KB/s")
		b.ReportMetric(metric(b, t, 1, 2), "ULD-seqwrite-KB/s")
	})
}

// BenchmarkReorganizer regenerates the §3.5 reorganizer measurement.
func BenchmarkReorganizer(b *testing.B) {
	runExperiment(b, "reorg", func(t *harness.Table) {
		b.ReportMetric(metric(b, t, 1, 1), "scattered-KB/s")
		b.ReportMetric(metric(b, t, 2, 1), "reorganized-KB/s")
	})
}

// BenchmarkARUConsistency regenerates the §2.1 fsck-elimination
// demonstration (crash trials with and without atomic recovery units).
func BenchmarkARUConsistency(b *testing.B) {
	runExperiment(b, "aru", nil)
}

// BenchmarkCleaner regenerates the §3.5 hot/cold cleaning experiment.
func BenchmarkCleaner(b *testing.B) {
	runExperiment(b, "cleaner", func(t *harness.Table) {
		b.ReportMetric(metric(b, t, 0, 3), "write-amplification")
		b.ReportMetric(metric(b, t, 0, 4), "KB-read/victim")
	})
}
