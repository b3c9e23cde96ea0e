package harness

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/minixfs"
	"repro/internal/uld"
	"repro/internal/workload"
)

// BuildMinixULD creates MINIX on the update-in-place Logical Disk: the
// identical file system code on a different ld.Disk implementation, the
// flexibility claim of the paper's Figure 1.
func BuildMinixULD(capacity int64) (*minixfs.FS, *disk.Disk, *uld.ULD, error) {
	d := disk.New(disk.DefaultConfig(capacity))
	if err := uld.Format(d, uld.DefaultOptions()); err != nil {
		return nil, nil, nil, err
	}
	u, err := uld.Open(d, uld.DefaultOptions())
	if err != nil {
		return nil, nil, nil, err
	}
	be, err := minixfs.FormatLD(u, 4096, minixfs.LDConfig{
		PerFileLists: true,
		Hints:        ld.ListHints{Cluster: true},
		Now:          func() uint32 { return uint32(d.Now().Seconds()) },
		WholeBlockIO: true, // as the MINIX LLD row it is compared with
	})
	if err != nil {
		return nil, nil, nil, err
	}
	fs, err := minixfs.Mkfs(be, minixfs.Config{
		BlockSize:  4096,
		NInodes:    16384,
		CacheBytes: CacheBytes,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return fs, d, u, nil
}

// LDImpl compares the two LD implementations under the same file system:
// the log-structured LLD against the Loge-style update-in-place ULD. It
// makes the paper's §5.2 discussion concrete: "LLD will show better
// performance when disk traffic is dominated by writes" (every small write
// under ULD is a full disk operation), while both scatter logically
// related blocks under random updates — the paper notes Loge's write
// strategy "makes it likely that logically related blocks get scattered
// over the disk... somewhat similar to log-structured file systems".
func LDImpl(cfg Config) (*Table, error) {
	size := cfg.LargeFileBytes()
	t := &Table{
		ID:     "LD implementations (§5.2)",
		Title:  fmt.Sprintf("MINIX on log-structured vs update-in-place LD (%d-MB file; files/s and KB/s)", size>>20),
		Header: []string{"Implementation", "Create files/s", "Write seq KB/s", "Write rand KB/s", "Re-read seq KB/s"},
	}
	sizes := cfg.SmallFiles()

	type target struct {
		name string
		fs   *minixfs.FS
		clk  workload.Clock
	}
	var targets []target

	s, err := BuildMinixLLD(cfg.PartitionBytes(), LLDVariant{PerFileLists: true})
	if err != nil {
		return nil, err
	}
	targets = append(targets, target{"LLD (log-structured)", s.FS, s.Disk})

	ufs, udisk, _, err := BuildMinixULD(cfg.PartitionBytes())
	if err != nil {
		return nil, err
	}
	targets = append(targets, target{"ULD (update-in-place)", ufs, udisk})

	for _, tg := range targets {
		small, err := workload.SmallFile(tg.fs, tg.clk, sizes[0][0], sizes[0][1])
		if err != nil {
			return nil, fmt.Errorf("%s small: %w", tg.name, err)
		}
		large, err := workload.LargeFile(tg.fs, tg.clk, size, 8192, 7)
		if err != nil {
			return nil, fmt.Errorf("%s large: %w", tg.name, err)
		}
		t.Rows = append(t.Rows, []string{tg.name,
			f0(small.Create), f0(large.WriteSeq), f0(large.WriteRand), f0(large.ReReadSeq)})
		tg.fs.Close()
	}
	t.Notes = append(t.Notes,
		"same MINIX code on both; only the ld.Disk implementation differs",
		"§5.2: log-structuring wins write-dominated traffic; both scatter related blocks under random updates (Loge-like shadow writes)")
	return t, nil
}
