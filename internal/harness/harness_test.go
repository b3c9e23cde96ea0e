package harness

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
)

func quick() Config { return Config{Scale: 20} }

// cell parses a numeric table cell.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(tab.Rows[row][col], "+"), "%"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d)=%q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID: "X", Title: "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n"},
	}
	out := tab.Render()
	for _, want := range []string{"X — demo", "long-header", "333", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	if len(All()) != 15 {
		t.Fatalf("%d experiments", len(All()))
	}
	if _, ok := ByID("table4"); !ok {
		t.Fatal("table4 missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("found a nonexistent experiment")
	}
}

func TestTable2and3AreAnalytic(t *testing.T) {
	for _, id := range []string{"table2", "table3"} {
		e, _ := ByID(id)
		tab, err := e.Run(quick())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: empty", id)
		}
	}
	tab, _ := Table2(quick())
	if tab.Rows[3][1] != "1.5 Mbyte" {
		t.Fatalf("Table 2 total = %q, want 1.5 Mbyte", tab.Rows[3][1])
	}
	if tab.Rows[3][2] != "4.6 Mbyte" {
		t.Fatalf("Table 2 compressed total = %q, want 4.6 Mbyte", tab.Rows[3][2])
	}
}

// TestTable4Shape verifies the paper's qualitative claims: MINIX LLD
// creates and deletes faster than (or on par with) MINIX because many
// changes go out in one segment write; SunOS is slowest on creates and
// deletes because its metadata writes are synchronous.
func TestTable4Shape(t *testing.T) {
	tab, err := Table4(quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab.Render())
	lldC, minixC, ffsC := cell(t, tab, 0, 1), cell(t, tab, 1, 1), cell(t, tab, 2, 1)
	if lldC < minixC {
		t.Errorf("MINIX LLD create (%.0f) should beat MINIX (%.0f)", lldC, minixC)
	}
	if ffsC > minixC || ffsC > lldC {
		t.Errorf("SunOS create (%.0f) should be slowest (MINIX %.0f, LLD %.0f)", ffsC, minixC, lldC)
	}
	lldD, ffsD := cell(t, tab, 0, 3), cell(t, tab, 2, 3)
	if ffsD > lldD {
		t.Errorf("SunOS delete (%.0f) should not beat MINIX LLD (%.0f)", ffsD, lldD)
	}
}

// TestTable4ShippedRow pins the beyond-paper row: storing a 1-KB file as
// 1 KB makes creating it at least twice as fast as the paper's construction
// and reading it no slower (at this scale it is faster: lld reads a stream
// of small files ahead, R(1K) 1,182 files/s against 272 and R(10K) 186
// against 131); deleting writes no file data and is held within a fifth of the
// paper row, since a few requests' rotation decides it at this scale. The
// three paper rows stay where they were.
func TestTable4ShippedRow(t *testing.T) {
	tab, err := Table4(quick())
	if err != nil {
		t.Fatal(err)
	}
	get := func(r, c int) float64 { return cell(t, tab, r, c) }
	const paper, shipped = 0, 3
	if len(tab.Rows) != 4 || tab.Rows[paper][0] != "MINIX LLD" || tab.Rows[shipped][0] != shippedRow {
		t.Fatalf("rows: %v", tab.Rows)
	}
	if get(shipped, 1) < 2*get(paper, 1) {
		t.Errorf("shipped C(1K) %.0f should be >= 2x the paper row's %.0f", get(shipped, 1), get(paper, 1))
	}
	for c, name := range map[int]string{2: "R(1K)", 4: "C(10K)", 5: "R(10K)"} {
		if get(shipped, c) < get(paper, c) {
			t.Errorf("shipped %s %.0f below the paper row's %.0f", name, get(shipped, c), get(paper, c))
		}
	}
	for c, name := range map[int]string{3: "D(1K)", 6: "D(10K)"} {
		if get(shipped, c) < 0.8*get(paper, c) {
			t.Errorf("shipped %s %.0f more than a fifth below the paper row's %.0f", name, get(shipped, c), get(paper, c))
		}
	}
}

// Table 4's C(1K) at full scale, on MINIX LLD as shipped: 10,000 1-KB
// files are about 11 MB of log. The 8-KB summary still fills before the
// 496-KB data area does, but with packed records (format v4) it holds a
// segment's worth of creates: 33 seals of 332 KB of data each, where
// 29-byte entries and fixed-width tuples sealed 101 of 108 KB.
func TestTable4CreateFillsItsSegments(t *testing.T) {
	cfg := Config{Scale: 1}
	s, err := BuildMinixLLD(cfg.PartitionBytes(), LLDVariant{PerFileLists: true, Shipped: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.FS.Close()
	n, size := cfg.SmallFiles()[0][0], cfg.SmallFiles()[0][1]
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i*7 + 13) // workload.SmallFile's, so no sector is trimmed
	}
	s.LLD.ResetStats()
	for i := 0; i < n; i++ {
		f, err := s.FS.Create(fmt.Sprintf("/sf-%06d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(payload, 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if err := s.FS.Sync(); err != nil {
		t.Fatal(err)
	}
	st := s.LLD.Stats()
	perSeal := float64(st.UserBytesWritten) / float64(st.SegmentsSealed) / 1024
	t.Logf("%d seals (%d data full, %d summary full, %d on flush), %.0f KB of data each",
		st.SegmentsSealed, st.SealsDataFull, st.SealsSummaryFull, st.SealsOnFlush, perSeal)
	if st.SegmentsSealed > 35 || perSeal < 300 {
		t.Errorf("%d seals of %.0f KB each; want at most 35 of at least 300 KB", st.SegmentsSealed, perSeal)
	}
	if causes := st.SealsDataFull + st.SealsSummaryFull + st.SealsOnFlush; causes != st.SegmentsSealed {
		t.Errorf("seals by cause sum to %d of %d seals", causes, st.SegmentsSealed)
	}
}

// TestTable5Shape verifies the large-file claims: MINIX LLD turns all
// writes into sequential log writes (large margins over MINIX on both
// write phases); MINIX wins sequential reads via prefetching and wins the
// re-read after random updates because it updates in place; MINIX LLD wins
// random reads because MINIX's read-ahead backfires. The MINIX LLD row is
// built as the paper's was, with minixfs.LDConfig.WholeBlockIO (LLDVariant's
// zero value); TestTable5ReadaheadRow covers the row that is not.
func TestTable5Shape(t *testing.T) {
	tab, err := Table5(quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab.Render())
	get := func(r, c int) float64 { return cell(t, tab, r, c) }
	const lld, minix = 0, 1
	if get(lld, 1) < 3*get(minix, 1) {
		t.Errorf("LLD seq write %.0f should be >> MINIX %.0f", get(lld, 1), get(minix, 1))
	}
	if get(lld, 3) < 3*get(minix, 3) {
		t.Errorf("LLD rand write %.0f should be >> MINIX %.0f", get(lld, 3), get(minix, 3))
	}
	if get(minix, 2) < get(lld, 2) {
		t.Errorf("MINIX seq read %.0f should be >= LLD %.0f (prefetching)", get(minix, 2), get(lld, 2))
	}
	if get(lld, 4) < get(minix, 4) {
		t.Errorf("LLD rand read %.0f should be >= MINIX %.0f (read-ahead fails)", get(lld, 4), get(minix, 4))
	}
	if get(minix, 5) < get(lld, 5) {
		t.Errorf("MINIX re-read %.0f should be >= LLD %.0f (update in place)", get(minix, 5), get(lld, 5))
	}
	// LLD's sequential write should use a large fraction of the raw disk
	// bandwidth (paper: 85% of 2400 KB/s).
	if get(lld, 1) < 1200 {
		t.Errorf("LLD seq write %.0f KB/s too slow for a log-structured disk", get(lld, 1))
	}
}

// TestTable5ReadaheadRow pins the beyond-paper row: with misses batched
// through ld.ReadBlocks and sequential files read ahead, MINIX LLD takes
// back the one column the paper concedes, and no read column pays for it.
func TestTable5ReadaheadRow(t *testing.T) {
	tab, err := Table5(quick())
	if err != nil {
		t.Fatal(err)
	}
	get := func(r, c int) float64 { return cell(t, tab, r, c) }
	const paper, ffs, batched = 0, 2, 3
	if len(tab.Rows) != 4 || !strings.Contains(tab.Rows[batched][0], "batched reads") {
		t.Fatalf("rows: %v", tab.Rows)
	}
	if get(batched, 2) < get(ffs, 2) || get(batched, 2) < 1.4*get(paper, 2) {
		t.Errorf("batched seq read %.0f should be >= FFS %.0f and >= 1.4x the paper row's %.0f",
			get(batched, 2), get(ffs, 2), get(paper, 2))
	}
	for c, name := range map[int]string{4: "random read", 5: "re-read"} {
		if get(batched, c) < get(paper, c) {
			t.Errorf("batched %s %.0f below the paper row's %.0f", name, get(batched, c), get(paper, c))
		}
	}
}

func TestTable6RunsAndIsSymbolic(t *testing.T) {
	tab, err := Table6(quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab.Render())
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	if tab.Rows[0][1] != "1+2δ+2ε" || tab.Rows[0][2] != "1+2ε" {
		t.Fatalf("create row: %v", tab.Rows[0])
	}
}

func TestRecoveryExperiment(t *testing.T) {
	tab, err := Recovery(quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab.Render())
	if len(tab.Rows) != 9 {
		t.Fatalf("%d rows, want 9", len(tab.Rows))
	}
	secs := func(row int) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[row][1], " s"), 64)
		if err != nil {
			t.Fatalf("row %d: %v", row, err)
		}
		return v
	}
	if sweep, verify, total := secs(2), secs(3), secs(4); sweep <= 0 || verify <= 0 || sweep+verify > total+0.02 {
		t.Errorf("sweep %.2f s + verify %.2f s do not fit in the %.2f s recovery", sweep, verify, total)
	}
	// The paper's shape: recovery is the sweep. The read-back visits only
	// the segments above the durable mark — here the one the crash left open.
	if sweep, verify := secs(2), secs(3); verify > sweep/4 {
		t.Errorf("data verification takes %.2f s beside a sweep of %.2f s; it should be bounded by the undurable tail", verify, sweep)
	}
	var read, skipped int
	if _, err := fmt.Sscanf(tab.Rows[5][1], "%d read back, %d at or below", &read, &skipped); err != nil {
		t.Fatalf("row 5 %q: %v", tab.Rows[5][1], err)
	}
	if read == 0 || skipped <= read {
		t.Errorf("%d segments read back, %d left alone: the mark should leave all but the tail unread", read, skipped)
	}
	if cell(t, tab, 7, 1) != 0 {
		t.Error("recovery reported anomalies")
	}
}

func TestSegmentSizeShape(t *testing.T) {
	tab, err := SegmentSize(quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab.Render())
	// 128-512 KB within ~15%; 64 KB clearly slower than 512 KB.
	for row := 1; row <= 2; row++ {
		if d := cell(t, tab, row, 2); d < -20 {
			t.Errorf("segment row %d lost %.0f%% (want within ~20%%)", row, d)
		}
	}
	if d := cell(t, tab, 3, 2); d > -10 {
		t.Errorf("64-KB segments lost only %.0f%%, expected a clear drop", d)
	}
}

func TestListCostShape(t *testing.T) {
	tab, err := ListCost(quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab.Render())
	// Reads barely change; create/delete pay a bounded overhead for lists
	// (paper: ~15%).
	if d := cell(t, tab, 1, 3); d < -20 || d > 40 {
		t.Errorf("read phase changed by %.0f%% with lists", d)
	}
}

func TestInodeBlocksShape(t *testing.T) {
	tab, err := InodeBlocks(quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab.Render())
	packedRead := cell(t, tab, 0, 2)
	smallRead := cell(t, tab, 1, 2)
	if smallRead > packedRead*1.1 {
		t.Errorf("64-byte i-nodes read faster (%.0f) than packed (%.0f); paper says worse", smallRead, packedRead)
	}
}

func TestCompressBWShape(t *testing.T) {
	tab, err := CompressBW(quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab.Render())
	plainW, compW := cell(t, tab, 0, 1), cell(t, tab, 1, 1)
	plainR, compR := cell(t, tab, 0, 2), cell(t, tab, 1, 2)
	if compW > plainW*1.15 {
		t.Errorf("compressed writes (%.0f) should not beat uncompressed (%.0f) by much", compW, plainW)
	}
	if compR > plainR {
		t.Errorf("compressed reads (%.0f) should be slower than uncompressed (%.0f)", compR, plainR)
	}
	ratio := cell(t, tab, 1, 3)
	if ratio < 0.4 || ratio > 0.85 {
		t.Errorf("compression ratio %.2f outside the paper's ~0.6 ballpark", ratio)
	}
}

func TestFlushCostShape(t *testing.T) {
	tab, err := FlushCost(quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab.Render())
	// Syncing after every file must produce partial writes and lower
	// throughput than syncing only at the end.
	endOnly := cell(t, tab, 0, 2)
	everyFile := cell(t, tab, 3, 2)
	if everyFile >= endOnly {
		t.Errorf("sync-every-file (%.0f files/s) should be slower than end-only (%.0f)", everyFile, endOnly)
	}
	if cell(t, tab, 3, 3) == 0 {
		t.Error("sync-every-file produced no partial segment writes")
	}
	// The §5.3 NVRAM row: same sync rate, but partial disk writes vanish
	// and throughput recovers by a large factor (Baker et al.: up to 90%
	// fewer disk accesses on busy file systems).
	nvram := cell(t, tab, 4, 2)
	if nvram < 3*everyFile {
		t.Errorf("NVRAM row (%.0f files/s) should be >> disk partials (%.0f)", nvram, everyFile)
	}
	if cell(t, tab, 4, 3) != 0 {
		t.Errorf("NVRAM row still wrote %s disk partials", tab.Rows[4][3])
	}
}

func TestCleanerShape(t *testing.T) {
	tab, err := Cleaner(quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab.Render())
	if len(tab.Rows) != 1 {
		t.Fatalf("%d rows, want the one shipped victim rule", len(tab.Rows))
	}
	cleaned, moved := cell(t, tab, 0, 1), cell(t, tab, 0, 2)
	if cleaned == 0 || moved == 0 {
		t.Errorf("cleaned %.0f segments and moved %.0f blocks: the run never exercised the cleaner", cleaned, moved)
	}
	if amp := cell(t, tab, 0, 3); amp < 1 || amp > 2 {
		t.Errorf("write amplification %.2f implausible", amp)
	}
	// A victim costs its live extents (dead gaps of up to a track between
	// them included) and nothing else: at least the blocks moved out of it,
	// less than its data area, and never a summary.
	if perSeg, liveKB := cell(t, tab, 0, 4), moved*4/cleaned; perSeg < liveKB || perSeg >= 496 {
		t.Errorf("%.1f KB read per victim for %.1f KB of live blocks", perSeg, liveKB)
	}
}

// TestLDImplShape verifies §5.2: log-structuring wins write-dominated
// traffic by a wide margin, and both implementations scatter logically
// related blocks under random updates (Loge-like shadow writes), so their
// re-reads land in the same ballpark.
func TestLDImplShape(t *testing.T) {
	tab, err := LDImpl(quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab.Render())
	lldSeq, uldSeq := cell(t, tab, 0, 2), cell(t, tab, 1, 2)
	if lldSeq < 3*uldSeq {
		t.Errorf("LLD seq write %.0f should be >> ULD %.0f", lldSeq, uldSeq)
	}
	lldRand, uldRand := cell(t, tab, 0, 3), cell(t, tab, 1, 3)
	if lldRand < 3*uldRand {
		t.Errorf("LLD rand write %.0f should be >> ULD %.0f", lldRand, uldRand)
	}
	lldRe, uldRe := cell(t, tab, 0, 4), cell(t, tab, 1, 4)
	if uldRe > 2*lldRe || lldRe > 2*uldRe {
		t.Errorf("re-reads should be comparable (both scattered): LLD %.0f, ULD %.0f", lldRe, uldRe)
	}
}

// TestReorgShape verifies the reorganizer story: scattering hurts
// sequential reads; reorganization recovers a substantial part of it.
func TestReorgShape(t *testing.T) {
	tab, err := Reorg(quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab.Render())
	fresh := cell(t, tab, 0, 1)
	scattered := cell(t, tab, 1, 1)
	reorganized := cell(t, tab, 2, 1)
	if scattered > fresh*0.8 {
		t.Errorf("scattering barely hurt: %.0f vs %.0f", scattered, fresh)
	}
	if reorganized < scattered*1.5 {
		t.Errorf("reorganization recovered too little: %.0f vs %.0f", reorganized, scattered)
	}
}

// TestARUConsistencyShape: all trials consistent with ARUs; most trials
// inconsistent without (the sensitive storm from the minixfs tests).
func TestARUConsistencyShape(t *testing.T) {
	tab, err := ARUConsistency(quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab.Render())
	if !strings.HasPrefix(tab.Rows[0][2], "0/") {
		t.Errorf("ARU row shows inconsistencies: %v", tab.Rows[0])
	}
	if strings.HasPrefix(tab.Rows[1][2], "0/") {
		t.Errorf("control row shows no inconsistencies (vacuous): %v", tab.Rows[1])
	}
}

func TestHotColdGenerator(t *testing.T) {
	pat := workload.HotCold(1000, 0.01, 0.9, 10000, 1)
	hot := 0
	for _, b := range pat {
		if b < 10 {
			hot++
		}
	}
	frac := float64(hot) / float64(len(pat))
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("hot fraction %.2f, want ~0.9", frac)
	}
}
