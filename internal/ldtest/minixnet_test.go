// MINIX over the network: minixfs mounted on a netld client must turn a
// sequential file read into batched reads on the wire (OpReadMulti), its
// short blocks must cross the wire short, and a lossy link must not change a
// byte of what a read returns.
package ldtest

import (
	"bytes"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/lld"
	"repro/internal/minixfs"
	"repro/internal/netld/client"
	"repro/internal/netld/faultconn"
	"repro/internal/netld/server"
	"repro/internal/netld/wire"
)

func TestMinixOverNetLDReadsInBatches(t *testing.T) {
	d := disk.New(disk.DefaultConfig(16 << 20))
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
		Disk:   l,
		Reopen: func() (ld.Disk, error) { return lld.Open(d, o) },
	})
	defer srv.Close()
	dialWith := func(cfg faultconn.Config) func() (net.Conn, error) {
		return func() (net.Conn, error) {
			cl, sv := net.Pipe()
			go srv.ServeConn(sv)
			cfg.Seed++ // a redial must not replay the drop that killed the last connection
			return faultconn.Wrap(cl, cfg), nil
		}
	}
	readMultis := func() uint64 { return srv.Stats().Ops[wire.OpName(wire.OpReadMulti)].Count }

	const blocks = 96
	data := make([]byte, blocks*4096)
	rand.New(rand.NewSource(21)).Read(data)
	tail := data[:1000] // a file of one short block
	readBack := func(t *testing.T, fs *minixfs.FS) {
		t.Helper()
		g, err := fs.Open("/tail")
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 4096)
		if n, err := g.ReadAt(got, 0); err != nil || !bytes.Equal(got[:n], tail) {
			t.Fatalf("short file: n=%d err=%v", n, err)
		}
		f, err := fs.Open("/f")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8192)
		for off := 0; off < len(data); off += len(buf) {
			n, err := f.ReadAt(buf, int64(off))
			if err != nil || !bytes.Equal(buf[:n], data[off:off+len(buf)]) {
				t.Fatalf("read at %d: n=%d err=%v", off, n, err)
			}
		}
	}

	// A clean link: write the file, drop the cache, read it in order.
	c, err := client.New(dialWith(faultconn.Config{}), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bl := &batchLog{Disk: c}
	be, err := minixfs.FormatLD(bl, 4096, minixfs.LDConfig{PerFileLists: true})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := minixfs.Mkfs(be, minixfs.Config{BlockSize: 4096, NInodes: 64, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	g, err := fs.Create("/tail")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAt(tail, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.DropCaches(); err != nil {
		t.Fatal(err)
	}
	if n, err := l.BlockSize(tailBlock(t, l)); err != nil || n != 1024 {
		t.Errorf("the 1000-byte file's block reached the server as %d bytes (%v), want 1024", n, err)
	}
	files := make(map[ld.BlockID]bool) // the blocks of "/f" and "/tail", the two newest lists
	for _, lid := range newestLists(t, l, 2) {
		bs, err := l.ListBlocks(lid)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bs {
			files[b] = true
		}
	}
	before := readMultis()
	bl.batches = nil
	readBack(t, fs)
	clean := readMultis() - before
	// Every miss is one OpReadMulti, a single-block one (an i-node or a
	// directory block) too; the files' data comes in a batch a window.
	fileBatches := 0
	for _, b := range bl.batches {
		if files[b[0]] {
			fileBatches++
		}
	}
	if want := blocks / 32; fileBatches < want || fileBatches > want+2 || clean < uint64(len(bl.batches)) {
		t.Errorf("server saw %d OpReadMulti, %d batches of %d, %d of them the files' data, for a %d-block sequential read; want about %d data batches",
			clean, len(bl.batches), len(files), fileBatches, blocks, want)
	}
	if st := fs.Stats(); st.ReadaheadBlocks == 0 || st.ReadaheadBatches == 0 {
		t.Errorf("nothing read ahead over the wire: %+v", st)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// A lossy link: connections die and stall at random under the mount
	// and the read; the client redials and retries whole batches.
	lossy, err := client.New(dialWith(faultconn.Config{Seed: 100, DropProb: 0.03, DelayProb: 0.2, MaxDelay: 100 * time.Microsecond}),
		client.Options{Retries: 20, Backoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer lossy.Close()
	be, err = minixfs.OpenLD(lossy, 4096, minixfs.LDConfig{PerFileLists: true})
	if err != nil {
		t.Fatal(err)
	}
	fs, err = minixfs.Open(be, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	before = readMultis()
	readBack(t, fs)
	if got := readMultis() - before; got < clean {
		t.Errorf("lossy link: %d OpReadMulti, the clean link needed %d", got, clean)
	}
	if lossy.Dials() < 2 {
		t.Errorf("the lossy link never dropped a connection (%d dials): the test proves nothing", lossy.Dials())
	}
}

// batchLog records the blocks of every batch read through it.
type batchLog struct {
	ld.Disk
	batches [][]ld.BlockID
}

func (b *batchLog) ReadBlocks(bs []ld.BlockID, bufs [][]byte) ([]ld.BlockRead, error) {
	b.batches = append(b.batches, slices.Clone(bs))
	return ld.ReadBlocks(b.Disk, bs, bufs)
}

// newestLists returns the n lists created last.
func newestLists(t *testing.T, l *lld.LLD, n int) []ld.ListID {
	t.Helper()
	lists, err := l.Lists()
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(lists)
	return lists[len(lists)-n:]
}

// tailBlock finds the one block of the newest list: "/tail" was created last.
func tailBlock(t *testing.T, l *lld.LLD) ld.BlockID {
	t.Helper()
	newest := newestLists(t, l, 1)[0]
	blocks, err := l.ListBlocks(newest)
	if err != nil || len(blocks) != 1 {
		t.Fatalf("list %d holds %v (%v), want the short file's one block", newest, blocks, err)
	}
	return blocks[0]
}
