package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// metricDef is one metric the benchmark prints. BENCHMARK.json at the
// root of the repository lists the same names, units, directions and
// bounds (benchjson_test.go keeps the two in step).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only: relative worsening that is a regression
	doc    string
}

// endToEnd are measured by the untraced run, on every workload, and carry
// the bound by which a later change may worsen them: set-up time, the
// disk arm's clock, bytes and memory. README.md says why the issue's
// wall-clock metrics are in wallClock instead and why its fail_frac is the
// result's attempted/failed/correct fields.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "median wall time of one set-up: format, mkfs, populate, listen/dial and one warm-up round"},
	{"virt_ops_s", "op/s", "higher", 0.05, "ops / virtual (disk-arm) time, median over rounds 7-18"},
	{"virt_read_kb_s", "KB/s", "higher", 0.05, "user KB read / virtual time in pure-read phases, median over rounds 7-18"},
	{"virt_write_kb_s", "KB/s", "higher", 0.05, "user KB written / virtual time in pure-write phases, median over rounds 7-18"},
	{"write_amp", "ratio", "lower", 0.05, "bytes written to all platters / user bytes written, median over rounds 7-18"},
	{"recovery_virt_s", "s", "lower", 0.15, "virtual time of lld.Open after the unclean shutdown that ends the run"},
	{"heap_mb", "MB", "lower", 0.10, "HeapAlloc after GC at the end of the timed region, minus the platters"},
}

// wallClock are measured on every workload too, over every round of the
// timed region, but carry no bound: on this sandbox their run-to-run
// spread reaches 25-50 % when the host is busy, wider than any bound the
// driver accepts. Untraced runs print them and write them to -out;
// traced runs report them to the driver as per-layer metrics, measured on
// the bare-stack reference segment.
var wallClock = []metricDef{
	layer("wall.ops_s", "op/s", "higher", "ops completed / wall time, median over rounds"),
	layer("wall.cpu_us_op", "us", "lower", "getrusage user+sys / ops (clients and in-process server), median over rounds"),
	layer("wall.read_p50_us", "us", "lower", "wall latency of single read ops, median over rounds of the round's p50"),
	layer("wall.read_p99_us", "us", "lower", "same, p99"),
	layer("wall.write_p50_us", "us", "lower", "wall latency of write ops including the Flush/Sync they trigger, median over rounds of the round's p50"),
	layer("wall.write_p99_us", "us", "lower", "same, p99"),
}

func layer(name, unit, better, doc string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, doc: doc}
}

// perLayer are measured by the traced run. A metric whose layer is not in
// a workload's stack reads 0 there.
var perLayer = append(append([]metricDef(nil), wallClock...), []metricDef{
	layer("bench.trace_overhead_frac", "ratio", "lower", "untraced ops_s / traced ops_s - 1, both measured in the traced invocation"),
	layer("bench.gen_us_op", "us", "lower", "driver time outside the top API per op: RNG, stamping, verifying, bookkeeping"),
	layer("bench.gomaxprocs", "count", "higher", "GOMAXPROCS as found"),
	layer("bench.clients", "count", "higher", "closed-loop clients: min(nproc, 4), 1 on the fs workloads"),

	layer("minixfs.self_us_op", "us", "lower", "B1 span time not covered by B2 spans, per op"),
	layer("minixfs.ld_reads_op", "count", "lower", "lld Read+ReadBlocks calls per op"),
	layer("minixfs.ld_writes_op", "count", "lower", "lld Write calls per op"),
	layer("minixfs.ld_allocs_op", "count", "lower", "lld NewBlock+DeleteBlock calls per op"),
	layer("minixfs.ld_listops_op", "count", "lower", "other lld list calls per op"),
	layer("minixfs.ld_flushes", "count", "lower", "lld Flush+FlushList calls"),
	layer("minixfs.cache_hit_frac", "ratio", "higher", "buffer-cache hits / lookups"),
	layer("minixfs.readahead_blocks", "count", "higher", "blocks read ahead"),

	layer("netld.client.self_us_op", "us", "lower", "B1 span time minus the server span it waits for, per op: client code, TCP loopback, wake-ups"),
	layer("netld.server.self_us_op", "us", "lower", "B3 server span time not covered by B4 spans, per op"),
	layer("netld.wire.bytes_op", "B", "lower", "bytes on the client connections, both directions, per op"),
	layer("netld.wire.overhead_frac", "ratio", "lower", "wire bytes / user payload bytes - 1"),
	layer("netld.wire.frames_op", "count", "lower", "frames on the client connections per op"),
	layer("netld.wire.conn_calls_op", "count", "lower", "net.Conn Read+Write calls on the client side per op"),
	layer("netld.scan.batch_p50_us", "us", "lower", "wall latency of one 256-block ReadBlocks"),
	layer("netld.scan.batch_p99_us", "us", "lower", "same, p99"),
	layer("netld.scan.blocks_s", "1/s", "higher", "blocks scanned / wall time in scan batches"),
	layer("netld.server.op_errors", "count", "lower", "requests answered with a non-OK status"),
	layer("netld.server.readmulti_chunks", "count", "lower", "continuation frames of ReadMulti replies"),
	layer("netld.client.dials", "count", "lower", "connections established, all clients"),

	layer("lld.read.mean_us", "us", "lower", "wall time of one Read call"),
	layer("lld.read.p99_us", "us", "lower", "same, p99"),
	layer("lld.write.mean_us", "us", "lower", "wall time of one Write call"),
	layer("lld.write.p99_us", "us", "lower", "same, p99"),
	layer("lld.flush.mean_us", "us", "lower", "wall time of one Flush/FlushList call"),
	layer("lld.flush.p99_us", "us", "lower", "same, p99"),
	layer("lld.listop.mean_us", "us", "lower", "wall time of one allocation or list call"),
	layer("lld.readblocks.mean_us", "us", "lower", "wall time of one ReadBlocks call"),
	layer("lld.self_us_op", "us", "lower", "lld span time not covered by foreground device spans, per op"),
	layer("lld.dev.writes", "count", "lower", "WriteAt calls on lld's backend"),
	layer("lld.dev.write_bytes", "B", "lower", "bytes of those"),
	layer("lld.dev.full_seg_writes", "count", "higher", "WriteAt of at least half a segment"),
	layer("lld.dev.partial_writes", "count", "lower", "WriteAt between a summary slot and half a segment"),
	layer("lld.dev.small_writes", "count", "lower", "WriteAt of at most one summary slot"),
	layer("lld.dev.nvram_writes", "count", "higher", "WriteAtNVRAM calls"),
	layer("lld.dev.syncs", "count", "lower", "Sync calls"),
	layer("lld.dev.reads", "count", "lower", "read calls on lld's backend"),
	layer("lld.dev.read_bytes", "B", "lower", "bytes of those"),
	layer("lld.dev.wall_us_call", "us", "lower", "mean wall time of one backend call"),
	layer("lld.read_amp", "ratio", "lower", "backend bytes read / user bytes read"),
	layer("lld.bg.dev_writes", "count", "lower", "backend writes made outside any foreground call (seal flusher, cleaner)"),
	layer("lld.bg.dev_wall_s", "s", "lower", "wall time of backend calls made outside any foreground call"),
	layer("lld.segments_sealed", "count", "lower", "lld.Stats"),
	layer("lld.partial_seg_writes", "count", "lower", "lld.Stats PartialWrites"),
	layer("lld.flushes", "count", "lower", "lld.Stats"),
	layer("lld.cleaner_runs", "count", "lower", "lld.Stats"),
	layer("lld.segments_cleaned", "count", "lower", "lld.Stats"),
	layer("lld.blocks_moved", "count", "lower", "lld.Stats"),
	layer("lld.clean_moved_frac", "ratio", "lower", "blocks moved by the cleaner / blocks written"),
	layer("lld.writer_waits", "count", "lower", "lld.Stats"),
	layer("lld.seal_waits", "count", "lower", "lld.Stats"),
	layer("lld.async_seals", "count", "higher", "lld.Stats"),
	layer("lld.group_commits", "count", "higher", "lld.Stats"),
	layer("lld.grouped_seals", "count", "higher", "lld.Stats"),
	layer("lld.spurious_wakeups", "count", "lower", "lld.Stats"),
	layer("lld.sharded_writes", "count", "higher", "lld.Stats"),
	layer("lld.batch_reads", "count", "higher", "lld.Stats"),
	layer("lld.hint_hit_frac", "ratio", "higher", "predecessor hints that were right"),
	layer("lld.consolidations", "count", "lower", "lld.Stats"),
	layer("lld.map_shards", "count", "higher", "resolved Options.MapShards"),
	layer("lld.segment_lanes", "count", "higher", "resolved Options.SegmentLanes"),
	layer("lld.recovery.wall_ms", "ms", "lower", "wall time of lld.Open after the unclean shutdown"),
	layer("lld.recovery.dev_reads", "count", "lower", "backend reads during that Open"),
	layer("lld.recovery.dev_read_bytes", "B", "lower", "bytes of those"),
	layer("lld.recovery.sweep_segments", "count", "lower", "lld.Stats RecoverySweepSegments"),
	layer("lld.recovery.anomalies", "count", "lower", "lld.Stats RecoveryAnomalies"),

	layer("mdisk.self_us_call", "us", "lower", "B5 span time not covered by B6 leg spans, per backend call (legs run one after the other)"),
	layer("mdisk.leg_ops", "count", "lower", "calls on the mirror legs"),
	layer("mdisk.leg_read_imbalance", "ratio", "lower", "max / min read requests over the legs"),
	layer("mdisk.degraded_reads", "count", "lower", "mdisk.MirrorStats"),
	layer("mdisk.heals", "count", "lower", "mdisk.MirrorStats"),

	layer("disk.busy_virt_s", "s", "lower", "virtual time servicing requests, summed over platters"),
	layer("disk.seek_frac", "ratio", "lower", "seek share of busy time"),
	layer("disk.rotate_frac", "ratio", "lower", "rotational-wait share of busy time"),
	layer("disk.transfer_frac", "ratio", "higher", "transfer share of busy time"),
	layer("disk.overhead_frac", "ratio", "lower", "per-request overhead share of busy time"),
	layer("disk.seeks", "count", "lower", "seeks that moved the arm"),
	layer("disk.seeks_per_req", "ratio", "lower", "seeks / requests"),
	layer("disk.read_req_kb", "KB", "higher", "mean read request size"),
	layer("disk.write_req_kb", "KB", "higher", "mean write request size"),
	layer("disk.wall_us_call", "us", "lower", "mean wall time of one platter call"),

	layer("paper.t4.c1k_files_s", "1/s", "higher", "Table 4 create 10,000 x 1 KB, virtual clock, round 1"),
	layer("paper.t4.r1k_files_s", "1/s", "higher", "Table 4 read"),
	layer("paper.t4.d1k_files_s", "1/s", "higher", "Table 4 delete"),
	layer("paper.t4.c10k_files_s", "1/s", "higher", "Table 4 create 1,000 x 10 KB"),
	layer("paper.t4.r10k_files_s", "1/s", "higher", "Table 4 read"),
	layer("paper.t4.d10k_files_s", "1/s", "higher", "Table 4 delete"),
	layer("paper.t5.wseq_kb_s", "KB/s", "higher", "Table 5 sequential write of 80 MB in 8-KB chunks, virtual clock, round 1"),
	layer("paper.t5.rseq_kb_s", "KB/s", "higher", "Table 5 sequential read"),
	layer("paper.t5.wrand_kb_s", "KB/s", "higher", "Table 5 random write"),
	layer("paper.t5.rrand_kb_s", "KB/s", "higher", "Table 5 random read"),
	layer("paper.t5.rrseq_kb_s", "KB/s", "higher", "Table 5 sequential re-read"),
}...)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"fs-small", "24 rounds' worth of the paper's Table 4 on one aging MINIX-LLD file system: minixfs and lld's list, allocation and small-record paths do the work, bulk data almost none"},
	{"fs-large", "Table 5 rounds on one 80-MB file: segment fill/seal, clustering by list on reads and the cleaner do the work, minixfs little; read phases sit beside write phases"},
	{"ld-churn", "clients on one shared lld handle, hot/cold overwrites of a 60 % full 64-MB disk: map shards, lanes, seal pipeline, steady-state cleaner and full-disk recovery; no netld, no minixfs"},
	{"net-mixed", "netld clients over TCP loopback to an lld on a two-disk mirror, light cleaning: single writes, single reads and ReadBlocks scans share one wire; the only workload through netld and mdisk"},
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one invocation measures on one workload. Its first four
// fields are the line the benchmark contract asks for.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is the -out file: provenance plus one result per workload run.
type report struct {
	Env       map[string]any     `json:"env"`
	Workloads map[string]*result `json:"workloads"`
}

// untracedDefs are the metrics an untraced run measures.
var untracedDefs = append(append([]metricDef(nil), endToEnd...), wallClock...)

// printMetrics lists the metrics of defs by name with unit, direction and
// bound.
func printMetrics(w io.Writer, defs []metricDef, m map[string]float64) {
	for _, d := range defs {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", d.Bound*100)
		}
		fmt.Fprintf(w, "  %-32s %16.6g %-6s %s is better%s\n", d.Name, m[d.Name], d.Unit, d.Better, bound)
	}
}

// worsening returns by what share of a the value b is worse than a.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compare prints, per workload and end-to-end metric, both values, the
// relative difference and the bound, and reports whether any metric of b
// is worse than a's by more than its bound or b has failed ops.
func compare(w io.Writer, pathA, pathB string) (bool, error) {
	ra, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	rb, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(ra.Workloads))
	for n := range ra.Workloads {
		if _, ok := rb.Workloads[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("%s and %s share no workload", pathA, pathB)
	}
	ok := true
	for _, n := range names {
		a, b := ra.Workloads[n], rb.Workloads[n]
		fmt.Fprintf(w, "%s\n", n)
		if b.Failed > 0 || !b.Correct {
			fmt.Fprintf(w, "  FAILED OPS: %d of %d attempted\n", b.Failed, b.Attempted)
			ok = false
		}
		for _, d := range untracedDefs {
			va, oka := a.Metrics[d.Name]
			vb, okb := b.Metrics[d.Name]
			if !oka || !okb {
				continue
			}
			worse := worsening(d, va.Value, vb.Value)
			verdict := fmt.Sprintf("(bound %.0f%%)", d.Bound*100)
			switch {
			case d.Bound == 0:
				verdict = "(no bound: host noise)"
			case worse > d.Bound:
				verdict += "  WORSE THAN BOUND"
				ok = false
			}
			fmt.Fprintf(w, "  %-18s %14.6g %14.6g %-6s %+7.2f%% worse %s\n",
				d.Name, va.Value, vb.Value, d.Unit, worse*100, verdict)
		}
	}
	return ok, nil
}

// describe renders BENCHMARK.json.
func describe(runSeconds int) ([]byte, error) {
	type perLayerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	pl := make([]perLayerDef, len(perLayer))
	for i, d := range perLayer {
		pl[i] = perLayerDef{d.Name, d.Unit, d.Better}
	}
	return json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []perLayerDef `json:"per_layer"`
	}{[]string{"bash", "bench/run.sh"}, []string{"bench"}, runSeconds, workloadDefs, endToEnd, pl}, "", "  ")
}
