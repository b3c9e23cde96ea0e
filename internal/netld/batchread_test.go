// Batched-read failure modes across the netld layers: a connection cut
// mid-batch (the whole batch retries — reads are idempotent), a degraded
// server answering per-entry CodeCorrupt without failing the batch, and a
// reply larger than the frame budget crossing as chunked continuations
// over a lossy link.
package netld_test

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/lld"
	"repro/internal/netld/client"
	"repro/internal/netld/faultconn"
	"repro/internal/netld/server"
	"repro/internal/netld/wire"
)

// seedBatch writes n blocks of size bytes each and flushes, returning ids
// and expected payloads.
func seedBatch(t *testing.T, c ld.Disk, n, size int, rngSeed int64) ([]ld.BlockID, map[ld.BlockID][]byte) {
	t.Helper()
	lid, err := c.NewList(ld.NilList, ld.ListHints{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(rngSeed))
	ids := make([]ld.BlockID, 0, n)
	want := make(map[ld.BlockID][]byte, n)
	prev := ld.NilBlock
	for i := 0; i < n; i++ {
		b, err := c.NewBlock(lid, prev)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, size)
		rng.Read(data)
		if err := c.Write(b, data); err != nil {
			t.Fatal(err)
		}
		ids, want[b], prev = append(ids, b), data, b
	}
	if err := c.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	return ids, want
}

func TestReadBlocksRetriesAcrossMidBatchConnLoss(t *testing.T) {
	f := newFixture(t)
	dial, conns := f.pipeDial()
	c, err := client.New(dial, client.Options{Retries: 3, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ids, want := seedBatch(t, c, 16, 32, 7)

	// Arm a cut that fires while the batch reply is streaming back: past
	// the request frame, inside the response bytes.
	reqFrame := 4 + 9 + len(wire.AppendReadMultiReq(nil, 0, 64, ids))
	(*conns)[0].CutIn(int64(reqFrame) + 50)

	bufs := make([][]byte, len(ids))
	for i := range bufs {
		bufs[i] = make([]byte, 64)
	}
	res, err := c.ReadBlocks(ids, bufs)
	if err != nil {
		t.Fatalf("batch across cut: %v", err)
	}
	for i, b := range ids {
		if res[i].Err != nil || !bytes.Equal(bufs[i][:res[i].N], want[b]) {
			t.Fatalf("entry %d after retry: n=%d err=%v", i, res[i].N, res[i].Err)
		}
	}
	if d := c.Dials(); d != 2 {
		t.Fatalf("dials = %d, want 2 (whole-batch retry on a fresh connection)", d)
	}
}

// TestReadBlocksDegradedServerPerEntryCorrupt mirrors the per-block
// degraded-server test through the batched path: damaged blocks come back
// as per-entry ld.ErrCorrupt, clean blocks byte-identical, and one batch
// carries both without failing.
func TestReadBlocksDegradedServerPerEntryCorrupt(t *testing.T) {
	f := newFixture(t)
	dial, _ := f.pipeDial()
	c, err := client.New(dial, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	lid, err := c.NewList(ld.NilList, ld.ListHints{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const nBlocks = 1000
	want := make(map[ld.BlockID][]byte, nBlocks)
	var order []ld.BlockID
	prev := ld.NilBlock
	for i := 0; i < nBlocks; i++ {
		b, err := c.NewBlock(lid, prev)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 4096)
		rng.Read(data)
		if err := c.Write(b, data); err != nil {
			t.Fatal(err)
		}
		want[b] = data
		order = append(order, b)
		prev = b
		if i%64 == 63 {
			if err := c.Flush(ld.FailPower); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}

	f.dsk.CorruptRange(f.dsk.Capacity()/2, 256<<10, 0x5a)

	// Ground truth from the serving LLD: exactly which blocks rotted.
	res, err := f.srv.Disk().(*lld.LLD).Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Corrupt) == 0 {
		t.Fatal("corruption window hit no live payloads; workload too small")
	}
	corrupt := make(map[ld.BlockID]bool, len(res.Corrupt))
	for _, b := range res.Corrupt {
		corrupt[b] = true
	}

	bufs := make([][]byte, len(order))
	for i := range bufs {
		bufs[i] = make([]byte, 4096)
	}
	got, err := c.ReadBlocks(order, bufs)
	if err != nil {
		t.Fatalf("batch over degraded server: %v", err)
	}
	sawCorrupt, sawClean := 0, 0
	for i, b := range order {
		if corrupt[b] {
			if !errors.Is(got[i].Err, ld.ErrCorrupt) {
				t.Fatalf("damaged block %d: entry err = %v, want ld.ErrCorrupt", b, got[i].Err)
			}
			sawCorrupt++
			continue
		}
		if got[i].Err != nil {
			t.Fatalf("clean block %d: %v", b, got[i].Err)
		}
		if !bytes.Equal(bufs[i][:got[i].N], want[b]) {
			t.Fatalf("clean block %d: wrong bytes", b)
		}
		sawClean++
	}
	if sawCorrupt == 0 || sawClean == 0 {
		t.Fatalf("degenerate split: %d corrupt, %d clean", sawCorrupt, sawClean)
	}
}

// TestReadBlocksChunkedReplyOverLossyLink pushes a batch whose reply
// cannot fit one frame through a tiny frame budget on a delaying link:
// the chunked continuation must reassemble byte-identically.
func TestReadBlocksChunkedReplyOverLossyLink(t *testing.T) {
	d := disk.New(disk.DefaultConfig(8 << 20))
	o := lld.DefaultOptions()
	o.SegmentSize = 64 * 1024
	o.SummarySize = 8 * 1024
	if err := lld.Format(d, o); err != nil {
		t.Fatal(err)
	}
	l, err := lld.Open(d, o)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{
		Disk:     l,
		Reopen:   func() (ld.Disk, error) { return lld.Open(d, o) },
		MaxFrame: 256,
	})
	defer srv.Close()
	dial := func() (net.Conn, error) {
		cl, sv := net.Pipe()
		go srv.ServeConn(sv)
		return faultconn.Wrap(cl, faultconn.Config{
			Seed:      11,
			DelayProb: 0.3,
			MaxDelay:  200 * time.Microsecond,
		}), nil
	}
	c, err := client.New(dial, client.Options{MaxFrame: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ids, want := seedBatch(t, c, 20, 64, 13)
	bufs := make([][]byte, len(ids))
	for i := range bufs {
		bufs[i] = make([]byte, 64)
	}
	res, err := c.ReadBlocks(ids, bufs)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range ids {
		if res[i].Err != nil || !bytes.Equal(bufs[i][:res[i].N], want[b]) {
			t.Fatalf("entry %d: n=%d err=%v", i, res[i].N, res[i].Err)
		}
	}
	if chunks := srv.Stats().ReadMultiChunks; chunks < 2 {
		t.Fatalf("ReadMultiChunks = %d; the reply was not actually chunked", chunks)
	}
}

// TestReadBlocksBeatsPerBlockReadsOnSlowLink: on a link that delays every
// I/O call by up to 1 ms, a 64-block ReadBlocks scan is at least 3x as fast
// as 64 Reads — it pays for two round trips where the per-block path pays
// for 64. Both ends get a frame budget the whole reply fits in, because
// the delay is charged per I/O call and so prices the frame count.
func TestReadBlocksBeatsPerBlockReadsOnSlowLink(t *testing.T) {
	if testing.Short() {
		t.Skip("latency-regime timing test")
	}
	f := newFixtureCfg(t, func(cfg *server.Config) { cfg.MaxFrame = 1 << 20 })
	dial, _ := f.pipeDial(faultconn.Config{Seed: 3, DelayProb: 1, MaxDelay: time.Millisecond})
	c, err := client.New(dial, client.Options{MaxFrame: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ids, want := seedBatch(t, c, 64, 512, 17)
	bufs := make([][]byte, len(ids))
	for i := range bufs {
		bufs[i] = make([]byte, 512)
	}

	start := time.Now()
	for i, b := range ids {
		if n, err := c.Read(b, bufs[i]); err != nil || !bytes.Equal(bufs[i][:n], want[b]) {
			t.Fatalf("Read(%d): n=%d err=%v", b, n, err)
		}
	}
	perBlock := time.Since(start)
	start = time.Now()
	res, err := c.ReadBlocks(ids, bufs)
	batched := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range ids {
		if res[i].Err != nil || !bytes.Equal(bufs[i][:res[i].N], want[b]) {
			t.Fatalf("entry %d: n=%d err=%v", i, res[i].N, res[i].Err)
		}
	}
	t.Logf("64 Reads %v, one ReadBlocks %v (%.1fx)", perBlock, batched, float64(perBlock)/float64(batched))
	if perBlock < 3*batched {
		t.Errorf("ReadBlocks %v vs %v per block: under 3x on a slow link", batched, perBlock)
	}
}
