package lld

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
)

// platterOrder is a backend that keeps a batch in the order it is given:
// under it readStoredBatch issues its extents in the platter order it cut
// them in.
type platterOrder struct{ disk.Backend }

func (platterOrder) ReadOrder(offs []int64, _ []int) []int { return disk.InOrder(len(offs)) }

// orders are the two ways a batch can reach the platter: a bare disk serves
// it soonest first, platterOrder in the ascending sweep it was cut in.
var orders = []struct {
	name  string
	wrap  func(*disk.Disk) disk.Backend
	sweep bool // the requests ascend within a batch
}{
	{"soonest", func(d *disk.Disk) disk.Backend { return d }, false},
	{"platter", func(d *disk.Disk) disk.Backend { return platterOrder{d} }, true},
}

// forEachOrder runs f as a subtest per order, over a fresh 4-MB disk.
func forEachOrder(t *testing.T, f func(t *testing.T, be disk.Backend, sweep bool)) {
	for _, o := range orders {
		t.Run(o.name, func(t *testing.T) { f(t, o.wrap(disk.New(disk.DefaultConfig(4<<20))), o.sweep) })
	}
}

// TestReadBlocksServesABatchSoonestFirst: a list written in random order,
// each block one to two tracks from the next, is read back in one batch.
// Issued in the order the platter serves soonest, the batch takes at least
// 15 % less virtual time than the same batch in platter order, in as many
// requests, and every entry is what a Read of that block gives.
func TestReadBlocksServesABatchSoonestFirst(t *testing.T) {
	const nBlocks = 96
	elapsed := make(map[string]int64)
	requests := make(map[string]int64)
	for _, c := range orders {
		d := disk.New(disk.DefaultConfig(16 << 20))
		opts := segIOOptions()
		be := c.wrap(d)
		if err := Format(be, opts); err != nil {
			t.Fatal(err)
		}
		l, err := Open(be, opts)
		if err != nil {
			t.Fatal(err)
		}
		lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
		filler := mustNewList(t, l, ld.NilList, ld.ListHints{})
		ids := make([]ld.BlockID, nBlocks)
		prev := ld.NilBlock
		for i := range ids {
			ids[i] = mustNewBlock(t, l, lid, prev)
			prev = ids[i]
		}
		want := make(map[ld.BlockID][]byte)
		rng := rand.New(rand.NewSource(1))
		for _, i := range rng.Perm(nBlocks) {
			want[ids[i]] = bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 2048)
			mustWrite(t, l, ids[i], want[ids[i]])
			for k := 9 + rng.Intn(8); k > 0; k-- { // 36 to 64 KB: no extent spans two
				mustWrite(t, l, mustNewBlock(t, l, filler, ld.NilBlock), make([]byte, 4096))
			}
		}
		if err := l.Flush(ld.FailPower); err != nil {
			t.Fatal(err)
		}
		reads, start := d.Stats().Reads, d.Now()
		res, bufs := batchRead(t, l, ids)
		elapsed[c.name] = int64(d.Now() - start)
		requests[c.name] = d.Stats().Reads - reads
		if got := requests[c.name]; got < nBlocks-3 || got > nBlocks {
			t.Fatalf("%s: %d requests for %d blocks scattered over the platter", c.name, got, nBlocks)
		}
		buf := make([]byte, l.MaxBlockSize())
		for i, b := range ids {
			n, err := l.Read(b, buf)
			if err != nil || res[i].Err != nil || res[i].N != n || !bytes.Equal(bufs[i][:n], buf[:n]) || !bytes.Equal(buf[:n], want[b]) {
				t.Fatalf("%s: block %d: batch %d bytes (%v), Read %d bytes (%v), or they differ", c.name, b, res[i].N, res[i].Err, n, err)
			}
		}
	}
	t.Logf("batch of %d blocks: %.1f ms soonest first, %.1f ms in platter order",
		nBlocks, float64(elapsed["soonest"])/1e6, float64(elapsed["platter"])/1e6)
	if requests["soonest"] != requests["platter"] {
		t.Errorf("soonest first issued %d requests, platter order %d", requests["soonest"], requests["platter"])
	}
	if float64(elapsed["soonest"]) > 0.85*float64(elapsed["platter"]) {
		t.Errorf("soonest first took %d ns, platter order %d: less than 15 %% saved", elapsed["soonest"], elapsed["platter"])
	}
}
