package lld

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/disk"
	"repro/internal/ld"
)

const gb = 1 << 30

// paperModel returns the configuration of paper §3.4 / Table 2.
func paperModel(compress bool, blocksPerList int) MemoryModel {
	return MemoryModel{
		DiskBytes:        gb,
		AvgBlockSize:     4096,
		SegmentSize:      512 * 1024,
		Compression:      compress,
		CompressionRatio: 0.60,
		BlocksPerList:    blocksPerList,
	}
}

func approx(t *testing.T, name string, got, want, tolFrac float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Errorf("%s = %v, want 0", name, got)
		}
		return
	}
	if math.Abs(got-want)/want > tolFrac {
		t.Errorf("%s = %.3g, want %.3g (±%.0f%%)", name, got, want, tolFrac*100)
	}
}

// TestTable2SingleList reproduces the first column of Table 2: 1.5 MB of
// block-number map, 4 bytes of list table, 6 KB of segment usage table.
func TestTable2SingleList(t *testing.T) {
	m := paperModel(false, 0)
	approx(t, "block map", float64(m.BlockMapBytes()), 1.5*(1<<20), 0.05)
	if m.ListTableBytes() != 4 {
		t.Errorf("list table = %d bytes, want 4", m.ListTableBytes())
	}
	approx(t, "segment usage", float64(m.SegmentUsageBytes()), 6*1024, 0.05)
	approx(t, "total", float64(m.TotalBytes()), 1.5*(1<<20), 0.05)
}

// TestTable2Compression reproduces the second column of Table 2: 3.8 MB of
// block-number map, 0.8 MB of list table (one list per 8-KB file), 4.6 MB
// total, per 1.7 GB of effective storage.
func TestTable2Compression(t *testing.T) {
	m := paperModel(true, 2) // 8-KB files of 4-KB blocks = 2 blocks/list
	approx(t, "block map", float64(m.BlockMapBytes()), 3.8*(1<<20), 0.07)
	approx(t, "list table", float64(m.ListTableBytes()), 0.8*(1<<20), 0.12)
	approx(t, "total", float64(m.TotalBytes()), 4.6*(1<<20), 0.07)
	approx(t, "effective storage", float64(m.EffectiveStorageBytes()), 1.7*gb, 0.05)
}

// TestTable3CostPercentages reproduces Table 3's four corners: with RAM at
// $30-50/MB and disk at $750-1500/GB, LLD adds from 3% to 31%.
func TestTable3CostPercentages(t *testing.T) {
	low := paperModel(false, 0).TotalBytes() // 1.5 MB per GB
	high := paperModel(true, 2).TotalBytes() // 4.6 MB per GB

	cases := []struct {
		ram, disk float64
		memBytes  int64
		want      float64
	}{
		{30, 750, low, 6},
		{30, 750, high, 18},
		{30, 1500, low, 3},
		{30, 1500, high, 9},
		{50, 750, low, 10},
		{50, 750, high, 31},
		{50, 1500, low, 5},
		{50, 1500, high, 15},
	}
	for _, c := range cases {
		cm := CostModel{RAMDollarsPerMB: c.ram, DiskDollarsPerGB: c.disk}
		got := cm.OverheadPercent(c.memBytes, gb)
		approx(t, "overhead", got, c.want, 0.10)
	}
}

// TestSummaryModel reproduces §3.4's summary accounting: 7 bytes per block
// without compression (889-byte summary for a 0.5-MB segment of 4-KB
// blocks), room for 267 tuples in a 4-KB summary; with compression 10
// bytes per block, ~211 blocks, room for 165 tuples.
func TestSummaryModel(t *testing.T) {
	sm := SummaryModel{}
	if sm.BytesPerBlock() != 7 {
		t.Fatalf("bytes/block = %d, want 7", sm.BytesPerBlock())
	}
	blocks := (512 * 1024) / 4096 // 128 blocks per 0.5-MB segment
	if got := blocks * sm.BytesPerBlock(); got != 896 {
		// The paper says 889 (127 blocks: one block of the segment is the
		// summary itself); accept the same ballpark.
		if got < 850 || got > 950 {
			t.Fatalf("summary size = %d, want ~889", got)
		}
	}
	if got := sm.TuplesFitting(4096, 127); got < 260 || got > 270 {
		t.Fatalf("tuples fitting = %d, want ~267", got)
	}

	smc := SummaryModel{Compression: true}
	if smc.BytesPerBlock() != 10 {
		t.Fatalf("compressed bytes/block = %d, want 10", smc.BytesPerBlock())
	}
	if got := smc.TuplesFitting(4096, 211); got < 160 || got > 170 {
		t.Fatalf("compressed tuples fitting = %d, want ~165", got)
	}
}

// TestSprite4GBComparison reproduces §5.1's 4-GB comparison: a simple LD
// without compression needs ~6 MB for the block-number map and ~2 MB for
// the list table (8-KB average files).
func TestSprite4GBComparison(t *testing.T) {
	m := MemoryModel{
		DiskBytes:     4 * gb,
		AvgBlockSize:  4096,
		SegmentSize:   512 * 1024,
		BlocksPerList: 2, // 8-KB files
	}
	approx(t, "4GB block map", float64(m.BlockMapBytes()), 6*(1<<20), 0.05)
	approx(t, "4GB list table", float64(m.ListTableBytes()), 2*(1<<20), 0.05)
}

// sparseDisk is a disk.Backend that keeps only the sectors holding a
// non-zero byte, so an instance formatted at Table 2's 1-GB configuration
// costs a few MB of test memory. It has no clock and no mechanics.
type sparseDisk struct {
	capacity int64
	sectors  map[int64][]byte
}

const sparseSector = 512

func (s *sparseDisk) span(p []byte, off int64) error {
	if off%sparseSector != 0 || len(p)%sparseSector != 0 || off < 0 || off+int64(len(p)) > s.capacity {
		return fmt.Errorf("sparse disk: %d bytes at %d: unaligned or out of range", len(p), off)
	}
	return nil
}

func (s *sparseDisk) ReadAt(p []byte, off int64) error {
	if err := s.span(p, off); err != nil {
		return err
	}
	for i := 0; i < len(p); i += sparseSector {
		sec := p[i : i+sparseSector]
		if stored, ok := s.sectors[(off+int64(i))/sparseSector]; ok {
			copy(sec, stored)
		} else {
			clear(sec)
		}
	}
	return nil
}

func (s *sparseDisk) WriteAt(p []byte, off int64) error {
	if err := s.span(p, off); err != nil {
		return err
	}
	for i := 0; i < len(p); i += sparseSector {
		sec, n := p[i:i+sparseSector], (off+int64(i))/sparseSector
		if slices.ContainsFunc(sec, func(b byte) bool { return b != 0 }) {
			s.sectors[n] = slices.Clone(sec)
		} else {
			delete(s.sectors, n)
		}
	}
	return nil
}

func (s *sparseDisk) WriteAtNVRAM(p []byte, off int64) error { return s.WriteAt(p, off) }
func (s *sparseDisk) Capacity() int64                        { return s.capacity }
func (s *sparseDisk) SectorSize() int                        { return sparseSector }
func (s *sparseDisk) Now() time.Duration                     { return 0 }
func (s *sparseDisk) AdvanceIdle(time.Duration)              {}
func (s *sparseDisk) ReadOrder(offs []int64, _ []int) []int  { return disk.InOrder(len(offs)) }

// TestTable2BlockMapAsImplemented is Table 2's implementation column: the
// block-number map an instance holds at the table's configuration (a 1-GB
// disk, 4-KB blocks, 512-KB segments). The map grows with the ids handed
// out, so an empty instance holds the one unused entry 0, and N allocations
// cost at most 1.25 entries each. Per GB that is one blockInfo per block
// stored: 24 B, 6 MB per GB, 4x the paper's 6 bytes (the location packed
// into 32 bits and the sizes into 16; the list, successor and checksum keep
// 32 bits each).
func TestTable2BlockMapAsImplemented(t *testing.T) {
	opts := DefaultOptions() // 512-KB segments of 4-KB blocks
	dsk := &sparseDisk{capacity: gb, sectors: make(map[int64][]byte)}
	if err := Format(dsk, opts); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dsk, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.blocks) != 1 {
		t.Fatalf("an empty instance's map holds %d entries, want 1", len(l.blocks))
	}
	const n = 50_000
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	for i := 0; i < n; i++ {
		mustNewBlock(t, l, lid, ld.NilBlock)
	}
	entry := int64(unsafe.Sizeof(blockInfo{}))
	if entry > 24 {
		t.Errorf("a block-map entry is %d B, want at most 24", entry)
	}
	held := int64(cap(l.blocks)) * entry
	if held > n*entry*5/4 {
		t.Errorf("after %d allocations the map holds %d B (%d entries), want at most %d", n, held, cap(l.blocks), n*entry*5/4)
	}
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariants: %v", viol)
	}
	const mb = 1 << 20
	full := paperModel(false, 0)
	t.Logf("%d allocations: %d entries of %d B, %.2f MB; full 4-KB occupancy: %.1f MB per GB (one entry per id of an address space of 4 ids per 4 KB of data: %.1f MB at any fill); paper model %.1f MB",
		n, cap(l.blocks), entry, float64(held)/mb,
		float64(full.Blocks()*entry)/mb, float64((4*l.lay.usableBytes()/int64(l.lay.maxBlockSize)+1)*entry)/mb, float64(full.BlockMapBytes())/mb)
}

func TestMemoryModelEdgeCases(t *testing.T) {
	m := MemoryModel{DiskBytes: 1024, AvgBlockSize: 4096, SegmentSize: 512 * 1024}
	if m.SegmentUsageBytes() != 3 {
		t.Fatalf("tiny disk usage table = %d, want 3 (one segment minimum)", m.SegmentUsageBytes())
	}
	if m.EffectiveStorageBytes() != 1024 {
		t.Fatal("no compression should not inflate storage")
	}
	m.BlocksPerList = 1 << 20
	if m.ListTableBytes() != 4 {
		t.Fatal("fewer blocks than a list should still cost one entry")
	}
	if (CostModel{}).OverheadPercent(100, 0) != 0 {
		t.Fatal("zero disk cost should not divide by zero")
	}
}
