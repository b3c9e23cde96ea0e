// Package harness builds the measurement configurations of the paper's
// Section 4 and renders results as paper-style tables. Every table and
// in-text experiment of the evaluation has a corresponding Experiment here;
// cmd/ldbench and the repository's benchmarks drive them.
//
// The paper's setup: a 400-MB partition of an HP C3010 disk, MINIX and
// MINIX LLD with 4-KB blocks and a static 6,144-KB buffer cache, MINIX LLD
// with 0.5-MB segments, SunOS with 8-KB blocks. A Scale parameter shrinks
// workload sizes and the partition proportionally so the same experiments
// run quickly under `go test`; Scale=1 is the paper's full size.
package harness

import (
	"fmt"
	"strings"

	"repro/internal/disk"
	"repro/internal/ffs"
	"repro/internal/ld"
	"repro/internal/lld"
	"repro/internal/minixfs"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Config parameterizes an experiment run.
type Config struct {
	// Scale divides the paper's workload sizes; 1 reproduces the full
	// setup (10,000 files, 80-MB file, 400-MB partition), 10 is a quick
	// run. Must be >= 1.
	Scale int
}

// DefaultConfig returns the quick configuration used by `go test -bench`.
func DefaultConfig() Config { return Config{Scale: 10} }

func (c Config) scale() int {
	if c.Scale < 1 {
		return 1
	}
	return c.Scale
}

// PartitionBytes returns the benchmark partition size. The floor keeps the
// partition several times larger than the 6,144-KB buffer cache and the
// large file, as in the paper's setup.
func (c Config) PartitionBytes() int64 {
	v := int64(400<<20) / int64(c.scale())
	if v < 96<<20 {
		v = 96 << 20
	}
	return v
}

// SmallFiles returns the two small-file workload sizes (count, bytes).
func (c Config) SmallFiles() [2][2]int {
	n1 := 10000 / c.scale()
	n2 := 1000 / c.scale()
	if n1 < 50 {
		n1 = 50
	}
	if n2 < 20 {
		n2 = 20
	}
	return [2][2]int{{n1, 1024}, {n2, 10240}}
}

// LargeFileBytes returns the large-file size (paper: 80 MB). The floor
// keeps the file several times the buffer cache, which is what makes the
// benchmark measure the disk rather than the cache.
func (c Config) LargeFileBytes() int64 {
	v := int64(80<<20) / int64(c.scale())
	if v < 32<<20 {
		v = 32 << 20
	}
	return v
}

// CacheBytes is the paper's static buffer cache.
const CacheBytes = 6144 * 1024

// LLDVariant selects a MINIX LLD configuration. The zero value does its
// I/O as the paper's MINIX LLD did, one whole block per LD request
// (minixfs.LDConfig.WholeBlockIO), so every table is the paper's
// construction unless a row says otherwise.
type LLDVariant struct {
	SegmentSize  int    // 0 = the paper's 512 KB
	PerFileLists bool   // one LD list per file (the refined MINIX LLD)
	SmallInodes  bool   // 64-byte i-node blocks
	Compress     bool   // compress file data lists
	CacheBytes   int    // 0 = the paper's 6,144 KB
	NInodes      uint32 // 0 = 16384
	NVRAMBytes   int    // §5.3 NVRAM absorbing partial-segment writes
	Shipped      bool   // beyond the paper: short blocks stored short, misses read as ld.ReadBlocks batches
}

// MinixLLDStack bundles everything an experiment may need to inspect.
type MinixLLDStack struct {
	FS   *minixfs.FS
	LLD  *lld.LLD
	Disk *disk.Disk
}

// BuildMinixLLD creates a MINIX LLD instance on a fresh simulated disk.
func BuildMinixLLD(capacity int64, v LLDVariant) (*MinixLLDStack, error) {
	d := disk.New(disk.DefaultConfig(capacity))
	opts := lld.DefaultOptions()
	if v.SegmentSize != 0 {
		opts.SegmentSize = v.SegmentSize
	}
	opts.NVRAMBytes = v.NVRAMBytes
	if err := lld.Format(d, opts); err != nil {
		return nil, err
	}
	l, err := lld.Open(d, opts)
	if err != nil {
		return nil, err
	}
	be, err := minixfs.FormatLD(l, 4096, minixfs.LDConfig{
		PerFileLists: v.PerFileLists,
		Hints:        ld.ListHints{Cluster: true, Compress: v.Compress},
		Now:          func() uint32 { return uint32(d.Now().Seconds()) },
		WholeBlockIO: !v.Shipped,
	})
	if err != nil {
		return nil, err
	}
	cache := v.CacheBytes
	if cache == 0 {
		cache = CacheBytes
	}
	nInodes := v.NInodes
	if nInodes == 0 {
		nInodes = 16384 // covers the paper's 10,000-file workload
	}
	fs, err := minixfs.Mkfs(be, minixfs.Config{
		BlockSize:   4096,
		NInodes:     nInodes,
		SmallInodes: v.SmallInodes,
		CacheBytes:  cache,
	})
	if err != nil {
		return nil, err
	}
	return &MinixLLDStack{FS: fs, LLD: l, Disk: d}, nil
}

// BuildMinix creates the classic bitmap-backed MINIX on a fresh disk.
func BuildMinix(capacity int64) (*minixfs.FS, *disk.Disk, error) {
	d := disk.New(disk.DefaultConfig(capacity))
	be, err := minixfs.FormatBitmap(d, 4096)
	if err != nil {
		return nil, nil, err
	}
	fs, err := minixfs.Mkfs(be, minixfs.Config{
		BlockSize:  4096,
		NInodes:    16 * 1024,
		CacheBytes: CacheBytes,
	})
	if err != nil {
		return nil, nil, err
	}
	return fs, d, nil
}

// BuildFFS creates the SunOS-like baseline on a fresh disk.
func BuildFFS(capacity int64) (*ffs.FS, *disk.Disk, error) {
	d := disk.New(disk.DefaultConfig(capacity))
	fs, err := ffs.Mkfs(d, ffs.Config{BlockSize: 8192, CacheBytes: CacheBytes})
	if err != nil {
		return nil, nil, err
	}
	return fs, d, nil
}

// Experiment is one reproducible table or in-text measurement.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (*Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table2", "Main memory used by LLD per Gbyte of disk (paper Table 2)", Table2},
		{"table3", "LLD memory cost as % of disk price (paper Table 3)", Table3},
		{"table4", "Small-file create/read/delete, files/sec (paper Table 4)", Table4},
		{"table5", "Large-file phases, Kbyte/sec (paper Table 5)", Table5},
		{"table6", "Blocks written per operation, Sprite LFS vs MINIX LLD (paper Table 6)", Table6},
		{"recovery", "Failure recovery: one-sweep rebuild time (paper §4.2)", Recovery},
		{"segsize", "Write performance vs segment size (paper §4.2)", SegmentSize},
		{"listcost", "Overhead of maintaining block lists (paper §4.2)", ListCost},
		{"inodesize", "Packed i-node blocks vs 64-byte i-node blocks (paper §4.2)", InodeBlocks},
		{"compressbw", "Throughput with transparent compression (paper §4.2)", CompressBW},
		{"flushcost", "Partial-segment strategy: cost of Flush vs fill (paper §3.2)", FlushCost},
		{"cleaner", "Cleaning under hot/cold overwrites (paper §3.5)", Cleaner},
		{"ldimpl", "Log-structured vs update-in-place LD implementations (paper §5.2)", LDImpl},
		{"reorg", "Idle-time disk reorganizer restores sequential layout (paper §3.5)", Reorg},
		{"aru", "Atomic recovery units eliminate fsck (paper §2.1)", ARUConsistency},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
