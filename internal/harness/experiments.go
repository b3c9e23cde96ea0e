package harness

import (
	"fmt"

	"repro/internal/compress"
	"repro/internal/disk"
	"repro/internal/lld"
	"repro/internal/spritelfs"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// Table2 reproduces the paper's Table 2: LLD main-memory use per Gbyte of
// physical disk, for the no-compression single-list configuration and the
// compression one-list-per-8-KB-file configuration.
func Table2(cfg Config) (*Table, error) {
	plain := lld.MemoryModel{
		DiskBytes: 1 << 30, AvgBlockSize: 4096, SegmentSize: 512 * 1024,
	}
	comp := lld.MemoryModel{
		DiskBytes: 1 << 30, AvgBlockSize: 4096, SegmentSize: 512 * 1024,
		Compression: true, CompressionRatio: 0.60, BlocksPerList: 2,
	}
	mb := func(v int64) string { return fmt.Sprintf("%.1f Mbyte", float64(v)/(1<<20)) }
	kb := func(v int64) string { return fmt.Sprintf("%.0f Kbyte", float64(v)/1024) }
	return &Table{
		ID:     "Table 2",
		Title:  "Main memory used by LLD per Gbyte of physical disk space",
		Header: []string{"Data structure", "single list", "compression + list per 8K file"},
		Rows: [][]string{
			{"Block-number map", mb(plain.BlockMapBytes()), mb(comp.BlockMapBytes())},
			{"List table", fmt.Sprintf("%d byte", plain.ListTableBytes()), mb(comp.ListTableBytes())},
			{"Segment usage table", kb(plain.SegmentUsageBytes()), kb(comp.SegmentUsageBytes())},
			{"Total", mb(plain.TotalBytes()), mb(comp.TotalBytes())},
		},
		Notes: []string{fmt.Sprintf("with compression the file system gets %.1f Gbyte of effective storage",
			float64(comp.EffectiveStorageBytes())/(1<<30))},
	}, nil
}

// Table3 reproduces Table 3: the memory cost as a percentage of disk price.
func Table3(cfg Config) (*Table, error) {
	low := lld.MemoryModel{DiskBytes: 1 << 30, AvgBlockSize: 4096, SegmentSize: 512 * 1024}
	high := lld.MemoryModel{
		DiskBytes: 1 << 30, AvgBlockSize: 4096, SegmentSize: 512 * 1024,
		Compression: true, CompressionRatio: 0.60, BlocksPerList: 2,
	}
	cell := func(ram, dsk float64) string {
		a := lld.CostModel{RAMDollarsPerMB: ram, DiskDollarsPerGB: dsk}
		return fmt.Sprintf("%.0f%% or %.0f%%",
			a.OverheadPercent(low.TotalBytes(), 1<<30),
			a.OverheadPercent(high.TotalBytes(), 1<<30))
	}
	return &Table{
		ID:     "Table 3",
		Title:  "Cost LLD adds to disks (best case 1.5 MB/GB, worst case 4.6 MB/GB)",
		Header: []string{"Price of a Mbyte RAM", "$750/Gbyte disk", "$1500/Gbyte disk"},
		Rows: [][]string{
			{"$30", cell(30, 750), cell(30, 1500)},
			{"$50", cell(50, 750), cell(50, 1500)},
		},
	}, nil
}

// runSmall runs the small-file benchmark on one file system.
func runSmall(fs vfs.FileSystem, clk workload.Clock, n, size int) (workload.SmallFileResult, error) {
	return workload.SmallFile(fs, clk, n, size)
}

// Table4 reproduces Table 4: small-file create/read/delete throughput for
// MINIX LLD, MINIX and the SunOS-like FFS. Those three rows are the paper's
// (MINIX LLD built with WholeBlockIO); the fourth is MINIX LLD as shipped.
func Table4(cfg Config) (*Table, error) {
	sizes := cfg.SmallFiles()
	t := &Table{
		ID:    "Table 4",
		Title: fmt.Sprintf("Small-file performance in files/sec (%d x %dK and %d x %dK files)", sizes[0][0], sizes[0][1]/1024, sizes[1][0], sizes[1][1]/1024),
		Header: []string{"File system",
			"C(1K)", "R(1K)", "D(1K)", "C(10K)", "R(10K)", "D(10K)"},
	}
	type sys struct {
		name string
		mk   func() (vfs.FileSystem, workload.Clock, func(), error)
	}
	minixLLD := func(shipped bool) func() (vfs.FileSystem, workload.Clock, func(), error) {
		return func() (vfs.FileSystem, workload.Clock, func(), error) {
			s, err := BuildMinixLLD(cfg.PartitionBytes(), LLDVariant{PerFileLists: true, Shipped: shipped})
			if err != nil {
				return nil, nil, nil, err
			}
			return s.FS, s.Disk, func() { s.FS.Close() }, nil
		}
	}
	systems := []sys{
		{"MINIX LLD", minixLLD(false)},
		{"MINIX", func() (vfs.FileSystem, workload.Clock, func(), error) {
			fs, d, err := BuildMinix(cfg.PartitionBytes())
			if err != nil {
				return nil, nil, nil, err
			}
			return fs, d, func() { fs.Close() }, nil
		}},
		{"SunOS (FFS-like)", func() (vfs.FileSystem, workload.Clock, func(), error) {
			fs, d, err := BuildFFS(cfg.PartitionBytes())
			if err != nil {
				return nil, nil, nil, err
			}
			return fs, d, func() { fs.Close() }, nil
		}},
		{shippedRow, minixLLD(true)},
	}
	deletes := make(map[string][]float64) // D(1K), D(10K) by row
	for _, s := range systems {
		row := []string{s.name}
		for _, sz := range sizes {
			fs, clk, done, err := s.mk()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.name, err)
			}
			r, err := runSmall(fs, clk, sz[0], sz[1])
			done()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.name, err)
			}
			row = append(row, f0(r.Create), f0(r.Read), f0(r.Delete))
			deletes[s.name] = append(deletes[s.name], r.Delete)
		}
		// Reorder: the two workloads' columns interleave C,R,D per size.
		t.Rows = append(t.Rows, row)
	}
	paper, shipped := deletes["MINIX LLD"], deletes[shippedRow]
	t.Notes = append(t.Notes, "last row is beyond the paper: a block is stored up to its last non-zero "+
		"sector (a 1-KB file costs 1 KB of log, not 4) and a miss is one ld.ReadBlocks; "+
		fmt.Sprintf("deletes write no file data: D(1K) runs %s the paper row, and D(10K) %s it",
			relative(shipped[0], paper[0]), relative(shipped[1], paper[1])))
	return t, nil
}

// relative says how a rate compares with a reference one, to the percent
// the table's rounding leaves.
func relative(v, ref float64) string {
	switch d := (v/ref - 1) * 100; {
	case d >= 0.5:
		return fmt.Sprintf("%.0f %% above", d)
	case d <= -0.5:
		return fmt.Sprintf("%.0f %% below", -d)
	}
	return "within 1 % of"
}

// shippedRow names, in Tables 4 and 5, MINIX LLD built without WholeBlockIO.
const shippedRow = "MINIX LLD, shipped (short blocks + batched reads)"

// Table5 reproduces Table 5: the five large-file phases in KB/s. The first
// three rows are the paper's (MINIX LLD built with WholeBlockIO, §4.1); the
// fourth goes beyond it: MINIX LLD as shipped, its short blocks stored short
// (this file has none but its youngest metadata), its reads batched through
// ld.ReadBlocks and sequential files read ahead.
func Table5(cfg Config) (*Table, error) {
	size := cfg.LargeFileBytes()
	t := &Table{
		ID:     "Table 5",
		Title:  fmt.Sprintf("Large-file performance in Kbyte/sec (%d-MB file, 8-KB chunks)", size>>20),
		Header: []string{"File system", "Write seq", "Read seq", "Write rand", "Read rand", "Re-read seq"},
	}
	run := func(name string, fs vfs.FileSystem, clk workload.Clock) error {
		r, err := workload.LargeFile(fs, clk, size, 8192, 42)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		t.Rows = append(t.Rows, []string{name,
			f0(r.WriteSeq), f0(r.ReadSeq), f0(r.WriteRand), f0(r.ReadRand), f0(r.ReReadSeq)})
		return nil
	}
	s, err := BuildMinixLLD(cfg.PartitionBytes(), LLDVariant{PerFileLists: true})
	if err != nil {
		return nil, err
	}
	if err := run("MINIX LLD", s.FS, s.Disk); err != nil {
		return nil, err
	}
	s.FS.Close()

	mfs, d, err := BuildMinix(cfg.PartitionBytes())
	if err != nil {
		return nil, err
	}
	if err := run("MINIX", mfs, d); err != nil {
		return nil, err
	}
	mfs.Close()

	ffsys, fd, err := BuildFFS(cfg.PartitionBytes())
	if err != nil {
		return nil, err
	}
	if err := run("SunOS (FFS-like)", ffsys, fd); err != nil {
		return nil, err
	}
	ffsys.Close()

	s, err = BuildMinixLLD(cfg.PartitionBytes(), LLDVariant{PerFileLists: true, Shipped: true})
	if err != nil {
		return nil, err
	}
	if err := run(shippedRow, s.FS, s.Disk); err != nil {
		return nil, err
	}
	s.FS.Close()
	t.Notes = append(t.Notes, "last row is beyond the paper: it disabled read-ahead on LD (§4.1); "+
		"here a miss is one ld.ReadBlocks, a file read in order is fetched in batches that grow with the run, "+
		"lld reads up to 256 KB ahead along the log, and a file's dirty blocks are written back in file order")
	return t, nil
}

// Table6 reproduces Table 6: the symbolic write-cost comparison plus
// measured MINIX LLD block counts for the same operations.
func Table6(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "Table 6",
		Title:  "Blocks written per operation (δ: shared i-node map block, ε: dirty i-node)",
		Header: []string{"Operation", "Sprite LFS", "MINIX LLD", "MINIX LLD measured"},
	}
	// Measured: drive MINIX LLD (small i-node blocks, so i-node writes are
	// the paper's ε) and count logical block writes per operation.
	s, err := BuildMinixLLD(cfg.PartitionBytes(), LLDVariant{PerFileLists: true, SmallInodes: true, NInodes: 2048})
	if err != nil {
		return nil, err
	}
	defer s.FS.Close()

	measure := func(work func() error, ops int) (float64, error) {
		if err := s.FS.Sync(); err != nil {
			return 0, err
		}
		before := s.LLD.Stats().BlocksWritten
		if err := work(); err != nil {
			return 0, err
		}
		if err := s.FS.Sync(); err != nil {
			return 0, err
		}
		after := s.LLD.Stats().BlocksWritten
		return float64(after-before) / float64(ops), nil
	}

	const n = 64
	createCost, err := measure(func() error {
		for i := 0; i < n; i++ {
			f, err := s.FS.Create(fmt.Sprintf("/t6-%d", i))
			if err != nil {
				return err
			}
			f.Close()
		}
		return nil
	}, n)
	if err != nil {
		return nil, err
	}

	// Overwrite: one existing block of a large file, repeatedly.
	f, err := s.FS.Create("/t6-big")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	big := make([]byte, 1<<20)
	if _, err := f.WriteAt(big, 0); err != nil {
		return nil, err
	}
	block := make([]byte, 4096)
	overwriteCost, err := measure(func() error {
		for i := 0; i < n; i++ {
			if _, err := f.WriteAt(block, int64(i%64)*4096); err != nil {
				return err
			}
		}
		return nil
	}, n)
	if err != nil {
		return nil, err
	}

	appendCost, err := measure(func() error {
		for i := 0; i < n; i++ {
			if _, err := f.WriteAt(block, f.Size()); err != nil {
				return err
			}
		}
		return nil
	}, n)
	if err != nil {
		return nil, err
	}

	deleteCost, err := measure(func() error {
		for i := 0; i < n; i++ {
			if err := s.FS.Unlink(fmt.Sprintf("/t6-%d", i)); err != nil {
				return err
			}
		}
		return nil
	}, n)
	if err != nil {
		return nil, err
	}

	rows := spritelfs.Table6()
	meas := []string{
		fmt.Sprintf("create %.2f / delete %.2f", createCost, deleteCost),
		fmt.Sprintf("%.2f", overwriteCost),
		fmt.Sprintf("%.2f", appendCost),
	}
	for i, r := range rows {
		sp := ""
		for j, c := range r.Sprite {
			if j > 0 {
				sp += ", "
			}
			sp += c.String()
		}
		ll := ""
		for j, c := range r.LLD {
			if j > 0 {
				ll += ", "
			}
			ll += c.String()
		}
		t.Rows = append(t.Rows, []string{r.Operation, sp, ll, meas[i]})
	}
	t.Notes = append(t.Notes,
		"measured counts are logical block writes per op on MINIX LLD with 64-byte i-node blocks",
		"an i-node write (ε) counts as a full logical write here, so measured ≈ blocks + ε-writes")
	return t, nil
}

// Recovery reproduces the paper's §4.2 recovery measurement: populate the
// file system, crash, and time the one-sweep rebuild (paper: 12 seconds,
// 788 segment summaries on a 400-MB partition). The last row is the mount
// lld.Open does instead, on the same crash image: the newest checkpoint and
// the chain of segments written since.
func Recovery(cfg Config) (*Table, error) {
	s, err := BuildMinixLLD(cfg.PartitionBytes(), LLDVariant{PerFileLists: true})
	if err != nil {
		return nil, err
	}
	sizes := cfg.SmallFiles()
	if _, err := workload.SmallFileCreateOnly(s.FS, sizes[0][0], sizes[0][1]); err != nil {
		return nil, err
	}
	if err := s.FS.Sync(); err != nil {
		return nil, err
	}
	// Crash the host.
	if err := s.LLD.Shutdown(false); err != nil {
		return nil, err
	}
	swept := disk.New(disk.DefaultConfig(s.Disk.Capacity()))
	if err := swept.Restore(s.Disk.Snapshot()); err != nil {
		return nil, err
	}
	opts := lld.DefaultOptions()
	chainStart := s.Disk.Now()
	lc, err := lld.Open(s.Disk, opts)
	if err != nil {
		return nil, err
	}
	chain, chainRep := s.Disk.Now()-chainStart, lc.RecoveryReport()
	start := swept.Now()
	l2, err := lld.OpenFullSweep(swept, opts)
	if err != nil {
		return nil, err
	}
	elapsed := swept.Now() - start
	stats, rep := l2.Stats(), l2.RecoveryReport()
	return &Table{
		ID:     "Recovery (§4.2)",
		Title:  "One-sweep recovery after failure",
		Header: []string{"Metric", "Value"},
		Rows: [][]string{
			{"Partition size", fmt.Sprintf("%d MB", cfg.PartitionBytes()>>20)},
			{"Segment summaries read", fmt.Sprintf("%d", stats.RecoverySweepSegments)},
			{"Summary sweep (virtual)", fmt.Sprintf("%.2f s", rep.SweepTime.Seconds())},
			{"Data verification (virtual)", fmt.Sprintf("%.2f s", rep.VerifyTime.Seconds())},
			{"Recovery time (virtual)", fmt.Sprintf("%.2f s", elapsed.Seconds())},
			{"Segments above the mark", fmt.Sprintf("%d read back, %d at or below durable mark ts=%d left alone",
				rep.VerifySegments, rep.VerifySkippedSegments, rep.DurableMark)},
			{"Blocks verified / skipped", fmt.Sprintf("%d in %d extents, %.1f MB read, %d fallbacks / %d",
				rep.VerifiedBlocks, rep.VerifyExtents, float64(rep.VerifyBytes)/(1<<20), rep.VerifyFallbacks, rep.VerifySkippedBlocks)},
			{"Replay anomalies", fmt.Sprintf("%d", stats.RecoveryAnomalies)},
			{"Chain mount (virtual)", fmt.Sprintf("%.2f s: %d summaries read, a chain of %d from the checkpoint @%d",
				chain.Seconds(), chainRep.SweptSegments, chainRep.ChainSegments, chainRep.CheckpointTS)},
		},
		Notes: []string{
			"paper: 12 s for 788 summaries on a 400-MB partition (scale accordingly); the sweep row is that measurement, its summaries read 8 at a time, soonest first (14.5 s read one at a time in address order)",
			"data verification reads back, in platter order, the mapped payloads of segments stamped above the durable mark — what no completed drain or write-through covered; the paper's LLD trusts its summaries",
			"the rows above are the paper's one sweep (lld.OpenFullSweep); lld.Open replays the same records from the newest checkpoint and the segments written since, a deviation from §3.6 (DESIGN §5)",
		},
	}, nil
}

// SegmentSize reproduces the §4.2 segment-size sweep: 128-512-KB segments
// perform within a few percent; 64-KB segments lose ~23% of write speed.
func SegmentSize(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "Segment size (§4.2)",
		Title:  "Sequential write bandwidth vs segment size (MINIX LLD)",
		Header: []string{"Segment size", "Write seq KB/s", "vs 512K"},
	}
	size := cfg.LargeFileBytes()
	var base float64
	for _, seg := range []int{512 * 1024, 256 * 1024, 128 * 1024, 64 * 1024} {
		s, err := BuildMinixLLD(cfg.PartitionBytes(), LLDVariant{SegmentSize: seg, PerFileLists: true})
		if err != nil {
			return nil, err
		}
		kbs, err := seqWriteKBs(s, size)
		s.FS.Close()
		if err != nil {
			return nil, err
		}
		if seg == 512*1024 {
			base = kbs
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d KB", seg/1024), f0(kbs), fmt.Sprintf("%+.0f%%", 100*(kbs-base)/base),
		})
	}
	t.Notes = append(t.Notes, "paper: 128-512 KB within a few percent; 64 KB writes ~23% slower")
	return t, nil
}

func seqWriteKBs(s *MinixLLDStack, size int64) (float64, error) {
	f, err := s.FS.Create("/seq")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	chunk := make([]byte, 8192)
	start := s.Disk.Now()
	for off := int64(0); off < size; off += int64(len(chunk)) {
		if _, err := f.WriteAt(chunk, off); err != nil {
			return 0, err
		}
	}
	if err := s.FS.Sync(); err != nil {
		return 0, err
	}
	elapsed := s.Disk.Now() - start
	return float64(size) / 1024 / elapsed.Seconds(), nil
}

// ListCost reproduces the §4.2 list-overhead measurement: the create and
// delete phases pay roughly 15% for list maintenance; reads and writes pay
// almost nothing. "Without lists" is approximated by the single-shared-list
// configuration, which performs two orders of magnitude fewer list
// operations.
func ListCost(cfg Config) (*Table, error) {
	sizes := cfg.SmallFiles()
	n, sz := sizes[0][0], sizes[0][1]
	withLists, err := BuildMinixLLD(cfg.PartitionBytes(), LLDVariant{PerFileLists: true})
	if err != nil {
		return nil, err
	}
	rWith, err := workload.SmallFile(withLists.FS, withLists.Disk, n, sz)
	withLists.FS.Close()
	if err != nil {
		return nil, err
	}
	single, err := BuildMinixLLD(cfg.PartitionBytes(), LLDVariant{PerFileLists: false})
	if err != nil {
		return nil, err
	}
	rNo, err := workload.SmallFile(single.FS, single.Disk, n, sz)
	single.FS.Close()
	if err != nil {
		return nil, err
	}
	pct := func(with, without float64) string {
		return fmt.Sprintf("%+.0f%%", 100*(without-with)/with)
	}
	return &Table{
		ID:     "List overhead (§4.2)",
		Title:  fmt.Sprintf("Per-file lists vs a single shared list (%d x %dK files)", n, sz/1024),
		Header: []string{"Phase", "per-file lists (files/s)", "single list (files/s)", "list cost"},
		Rows: [][]string{
			{"Create", f0(rWith.Create), f0(rNo.Create), pct(rWith.Create, rNo.Create)},
			{"Read", f0(rWith.Read), f0(rNo.Read), pct(rWith.Read, rNo.Read)},
			{"Delete", f0(rWith.Delete), f0(rNo.Delete), pct(rWith.Delete, rNo.Delete)},
		},
		Notes: []string{"paper: ~15% overhead during create/delete, little during read/write"},
	}, nil
}

// InodeBlocks reproduces the §4.2 i-node block-size comparison: per-i-node
// 64-byte blocks write less but read worse on the small-file benchmark,
// and equal out on the large-file benchmark.
func InodeBlocks(cfg Config) (*Table, error) {
	sizes := cfg.SmallFiles()
	n, sz := sizes[0][0], sizes[0][1]
	t := &Table{
		ID:     "I-node blocks (§4.2)",
		Title:  fmt.Sprintf("Packed i-node blocks vs 64-byte i-node blocks (%d x %dK files)", n, sz/1024),
		Header: []string{"Configuration", "Create/s", "Read/s", "Delete/s", "Write seq KB/s"},
	}
	for _, small := range []bool{false, true} {
		nino := uint32(0)
		if small {
			nino = uint32(2 * n)
			if nino < 2048 {
				nino = 2048
			}
		}
		s, err := BuildMinixLLD(cfg.PartitionBytes(), LLDVariant{PerFileLists: true, SmallInodes: small, NInodes: nino})
		if err != nil {
			return nil, err
		}
		r, err := workload.SmallFile(s.FS, s.Disk, n, sz)
		if err != nil {
			s.FS.Close()
			return nil, err
		}
		kbs, err := seqWriteKBs(s, cfg.LargeFileBytes()/4)
		s.FS.Close()
		if err != nil {
			return nil, err
		}
		name := "packed (64 i-nodes/block)"
		if small {
			name = "64-byte i-node blocks"
		}
		t.Rows = append(t.Rows, []string{name, f0(r.Create), f0(r.Read), f0(r.Delete), f0(kbs)})
	}
	t.Notes = append(t.Notes, "paper: similar create/delete and large-file results, worse small-file reads")
	return t, nil
}

// CompressBW reproduces the §4.2 compression measurement (paper: 1600 KB/s
// writes — within 21% of uncompressed — and 800 KB/s reads).
func CompressBW(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "Compression (§4.2)",
		Title:  "Large-file throughput with transparent compression",
		Header: []string{"Configuration", "Write seq KB/s", "Read seq KB/s", "Stored/logical"},
	}
	size := cfg.LargeFileBytes() / 2
	for _, cc := range []struct {
		name string
		comp bool
	}{
		{"uncompressed", false},
		{"compressed (Compress hint)", true},
	} {
		s, err := BuildMinixLLD(cfg.PartitionBytes(), LLDVariant{PerFileLists: true, Compress: cc.comp})
		if err != nil {
			return nil, err
		}
		// Compressible content approximating the paper's 60% ratio.
		data := compress.SyntheticData(64*1024, 0.60, 7)
		f, err := s.FS.Create("/comp")
		if err != nil {
			return nil, err
		}
		start := s.Disk.Now()
		for off := int64(0); off < size; off += int64(len(data)) {
			if _, err := f.WriteAt(data, off); err != nil {
				return nil, err
			}
		}
		if err := s.FS.Sync(); err != nil {
			return nil, err
		}
		wkbs := float64(size) / 1024 / (s.Disk.Now() - start).Seconds()

		if err := s.FS.DropCaches(); err != nil {
			return nil, err
		}
		buf := make([]byte, len(data))
		start = s.Disk.Now()
		for off := int64(0); off < size; off += int64(len(buf)) {
			if _, err := f.ReadAt(buf, off); err != nil {
				return nil, err
			}
		}
		rkbs := float64(size) / 1024 / (s.Disk.Now() - start).Seconds()

		ratio := 1.0
		st := s.LLD.Stats()
		if st.CompressInBytes > 0 {
			ratio = float64(st.CompressOutBytes) / float64(st.CompressInBytes)
		}
		t.Rows = append(t.Rows, []string{cc.name, f0(wkbs), f0(rkbs), fmt.Sprintf("%.2f", ratio)})
		f.Close()
		s.FS.Close()
	}
	t.Notes = append(t.Notes, "paper: write 1600 KB/s (compression of one segment overlaps the previous write), read 800 KB/s")
	return t, nil
}

// FlushCost is the §3.2 partial-segment ablation: sweep the sync frequency
// during the create workload and report throughput and partial writes.
func FlushCost(cfg Config) (*Table, error) {
	sizes := cfg.SmallFiles()
	n, sz := sizes[0][0], sizes[0][1]
	t := &Table{
		ID:     "Flush cost (§3.2)",
		Title:  fmt.Sprintf("Create throughput vs sync frequency (%d x %dK files)", n, sz/1024),
		Header: []string{"Sync every", "NVRAM", "Create files/s", "Partial writes", "NVRAM flushes", "KB written / flush"},
	}
	type cfgRow struct {
		every int
		nvram int
	}
	rows := []cfgRow{{0, 0}, {100, 0}, {10, 0}, {1, 0}, {1, 512 * 1024}}
	for _, rc := range rows {
		every := rc.every
		s, err := BuildMinixLLD(cfg.PartitionBytes(), LLDVariant{PerFileLists: true, NVRAMBytes: rc.nvram})
		if err != nil {
			return nil, err
		}
		payload := make([]byte, sz)
		start := s.Disk.Now()
		for i := 0; i < n; i++ {
			f, err := s.FS.Create(fmt.Sprintf("/fc-%d", i))
			if err != nil {
				return nil, err
			}
			if _, err := f.WriteAt(payload, 0); err != nil {
				return nil, err
			}
			f.Close()
			if every > 0 && i%every == every-1 {
				if err := s.FS.Sync(); err != nil {
					return nil, err
				}
			}
		}
		if err := s.FS.Sync(); err != nil {
			return nil, err
		}
		elapsed := s.Disk.Now() - start
		st := s.LLD.Stats()
		label := "never (end only)"
		if every > 0 {
			label = fmt.Sprintf("%d files", every)
		}
		nv := "-"
		if rc.nvram > 0 {
			nv = fmt.Sprintf("%d KB", rc.nvram/1024)
		}
		perFlush := "-"
		if st.PartialWrites > 0 {
			perFlush = f1(float64(st.PartialBytes) / 1024 / float64(st.PartialWrites))
		}
		t.Rows = append(t.Rows, []string{label, nv,
			f0(float64(n) / elapsed.Seconds()),
			fmt.Sprintf("%d", st.PartialWrites),
			fmt.Sprintf("%d", st.NVRAMFlushes),
			perFlush})
		s.FS.Close()
	}
	t.Notes = append(t.Notes,
		"below the 75% threshold a Flush writes a partial segment: the data since the last flush plus one summary slot; later flushes and the seal append to it",
		"KB written / flush = bytes the partial writes sent to the disk, summaries included, per partial write",
		"the NVRAM row models §5.3 (Baker et al.): battery-backed memory absorbs the partial writes; the seal still writes those bytes to the disk")
	return t, nil
}

// Cleaner is the §3.5 experiment: hot/cold overwrites at high utilization
// under the one victim rule lld ships (empty segments first, the rest by
// cost-benefit); reports what cleaning cost.
func Cleaner(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "Cleaner (§3.5)",
		Title:  "Cleaning under hot/cold overwrites (90% hot traffic to 1% of blocks)",
		Header: []string{"Victim rule", "Segments cleaned", "Blocks moved", "Write amplification", "KB read / segment cleaned"},
	}
	// A small cache keeps the hot/cold traffic from being absorbed in
	// memory; the experiment targets the disk layout.
	s, err := BuildMinixLLD(32<<20, LLDVariant{PerFileLists: true, CacheBytes: 512 * 1024})
	if err != nil {
		return nil, err
	}
	defer s.FS.Close()
	// Fill to ~70% with one large file, then overwrite hot/cold.
	f, err := s.FS.Create("/hotcold")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	usable := s.LLD.UsableBytes()
	nBlocks := int(usable / 2 / 4096)
	chunk := make([]byte, 4096)
	for i := 0; i < nBlocks; i++ {
		if _, err := f.WriteAt(chunk, int64(i)*4096); err != nil {
			return nil, err
		}
	}
	if err := s.FS.Sync(); err != nil {
		return nil, err
	}
	s.LLD.ResetStats()
	s.Disk.ResetStats()
	pattern := workload.HotCold(nBlocks, 0.01, 0.90, nBlocks*10, 3)
	for i, b := range pattern {
		if _, err := f.WriteAt(chunk, int64(b)*4096); err != nil {
			return nil, err
		}
		if i%512 == 511 {
			if err := s.FS.Sync(); err != nil {
				return nil, err
			}
		}
	}
	if err := s.FS.Sync(); err != nil {
		return nil, err
	}
	st := s.LLD.Stats()
	ds := s.Disk.Stats()
	// Write amplification relative to the bytes the file system handed
	// LD (the buffer cache already absorbed re-dirtied hot blocks).
	amp := float64(ds.BytesWritten(512)) / float64(st.UserBytesWritten)
	perSeg := "-"
	if st.SegmentsCleaned > 0 {
		perSeg = f1(float64(st.CleanReadBytes) / 1024 / float64(st.SegmentsCleaned))
	}
	t.Rows = append(t.Rows, []string{"empty first, then (1-u)*age/(2u)",
		fmt.Sprintf("%d", st.SegmentsCleaned),
		fmt.Sprintf("%d", st.BlocksMoved),
		fmt.Sprintf("%.2f", amp),
		perSeg})
	t.Notes = append(t.Notes,
		"write amplification = physical bytes written / logical bytes written",
		"KB read / segment cleaned = the victim's live extents; what its summary names is in memory, so a dead victim reads nothing (a 512-KB segment read whole would be 512)",
		"on this short run greedy cleaned 24 segments / moved 866 blocks / 1.16 and (1-u)*age/(1+u) 29 / 1,312 / 1.24 (EXPERIMENTS.md §3.5 has the long-horizon numbers)")
	return t, nil
}
