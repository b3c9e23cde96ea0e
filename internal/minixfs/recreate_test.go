package minixfs

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/lld"
)

// TestRecreatedFilesReadForward runs three rounds of Table 4's small-file
// phases (create, read, delete) in one directory of MINIX on lld. A delete
// frees a population's LD numbers in creation order and the next create
// takes them back. Because NewBlock hands out the lowest free number, each
// round's files get numbers that rise in creation order, the sync writes
// them forward in the log, and a read in creation order stays on lld's
// read-ahead stream. When freed numbers came back last in, first out,
// every other round lay backwards in the log: most of its extents ended
// where the one before began, which the forward-only read-ahead does not
// follow, and its read phase took about five times the disk reads.
func TestRecreatedFilesReadForward(t *testing.T) {
	const files, rounds = 2000, 3
	d := disk.New(disk.DefaultConfig(32 << 20))
	opts := lld.DefaultOptions()
	if err := lld.Format(d, opts); err != nil {
		t.Fatal(err)
	}
	l, err := lld.Open(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	be, err := FormatLD(l, 4096, LDConfig{PerFileLists: true, Hints: ld.ListHints{Cluster: true}})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Mkfs(be, Config{BlockSize: 4096, NInodes: 4096, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	name := func(i int) string { return fmt.Sprintf("/f%05d", i) }
	data := func(round, i int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("%d/%d.", round, i)), 1024)[:1024]
	}
	var reads [rounds]int64
	for round := range rounds {
		for i := range files {
			writeFile(t, fs, name(i), data(round, i))
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := fs.DropCaches(); err != nil {
			t.Fatal(err)
		}
		r0, h0 := d.Stats().Reads, l.Stats().ReadaheadHits
		for i := range files {
			if got := readFile(t, fs, name(i)); !bytes.Equal(got, data(round, i)) {
				t.Fatalf("round %d: %s reads back wrong", round, name(i))
			}
		}
		reads[round] = d.Stats().Reads - r0
		hits := l.Stats().ReadaheadHits - h0
		t.Logf("round %d: %d disk reads, %d read-ahead hits for %d files", round, reads[round], hits, files)
		if hits == 0 {
			t.Errorf("round %d: no extent was served from a read-ahead window", round)
		}
		if slack := reads[0]/4 + 8; reads[round] > reads[0]+slack {
			t.Errorf("round %d: %d disk reads, round 0 took %d: its files lie backwards in the log", round, reads[round], reads[0])
		}
		if err := fs.DropCaches(); err != nil {
			t.Fatal(err)
		}
		for i := range files {
			if err := fs.Unlink(name(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
}
