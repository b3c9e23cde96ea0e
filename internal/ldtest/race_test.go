// Race-hammer tests: many concurrent readers against a writer and the
// cleaner on one LLD, in-process and through a netld client/server pair.
// They are meaningful mostly under -race, but the payload cross-check also
// catches torn reads without it: every block always carries a
// self-identifying (block, version) header repeated to full length, and a
// reader validates the entire buffer against the version it parsed, so a
// read that observes half of one write and half of another fails loudly.
package ldtest

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/lld"
	"repro/internal/netld/client"
	"repro/internal/netld/server"
)

const (
	raceBlocks    = 48
	raceBlockSize = 2048
	raceOps       = 300
	raceReaders   = 8
)

// racePayload renders the content of block i at version v.
func racePayload(i, v int) []byte {
	header := fmt.Sprintf("hammer blk=%04d ver=%08d | ", i, v)
	buf := make([]byte, raceBlockSize)
	for off := 0; off < len(buf); off += len(header) {
		copy(buf[off:], header)
	}
	return buf
}

// parseVersion recovers (block, version) from a read buffer.
func parseVersion(buf []byte) (blk, ver int, err error) {
	_, err = fmt.Sscanf(string(buf[:32]), "hammer blk=%d ver=%d", &blk, &ver)
	return blk, ver, err
}

// hammer drives the reader/writer/lister mix against handles of one LD.
// versions is the shared memory model: versions[i] holds the newest
// version of block i whose Write has completed, so a read beginning
// afterwards must observe that version or a newer one.
func hammer(t *testing.T, readers []ld.Disk, writer ld.Disk, lister ld.Disk, lid ld.ListID, bids []ld.BlockID) {
	t.Helper()
	versions := make([]atomic.Int64, len(bids))
	var wg sync.WaitGroup
	var failed atomic.Bool
	fail := func(format string, args ...any) {
		if failed.CompareAndSwap(false, true) {
			t.Errorf(format, args...)
		}
	}

	// check validates what a read of block i returned against lo, the
	// newest version whose Write had completed before the read began.
	check := func(r, i int, lo int64, buf []byte, err error) bool {
		if err != nil {
			fail("reader %d: read of block %d: %v", r, i, err)
			return false
		}
		if len(buf) != raceBlockSize {
			fail("reader %d: block %d: %d bytes, want %d", r, i, len(buf), raceBlockSize)
			return false
		}
		blk, ver, err := parseVersion(buf)
		if err != nil || blk != i {
			fail("reader %d: block %d: bad header %q (%v)", r, i, buf[:32], err)
			return false
		}
		if int64(ver) < lo {
			fail("reader %d: block %d: version %d older than completed write %d", r, i, ver, lo)
			return false
		}
		if want := racePayload(blk, ver); string(buf) != string(want) {
			fail("reader %d: block %d: torn read at version %d", r, i, ver)
			return false
		}
		return true
	}

	for r, d := range readers {
		wg.Add(1)
		if r == 0 {
			// One reader scans: a sliding 32-block ReadBlocks window, so the
			// batch path's extent reads race the writer and the cleaner too.
			go func(d ld.Disk) {
				defer wg.Done()
				const window = 32
				bufs := make([][]byte, window)
				for i := range bufs {
					bufs[i] = make([]byte, raceBlockSize)
				}
				bs, los := make([]ld.BlockID, window), make([]int64, window)
				for op := 0; op < raceOps/4 && !failed.Load(); op++ {
					for k := range bs {
						i := (op*5 + k) % len(bids)
						bs[k], los[k] = bids[i], versions[i].Load()
					}
					res, err := ld.ReadBlocks(d, bs, bufs)
					if err != nil {
						fail("reader 0: ReadBlocks: %v", err)
						return
					}
					for k, br := range res {
						if !check(0, (op*5+k)%len(bids), los[k], bufs[k][:br.N], br.Err) {
							return
						}
					}
				}
			}(d)
			continue
		}
		go func(r int, d ld.Disk) {
			defer wg.Done()
			buf := make([]byte, raceBlockSize)
			for op := 0; op < raceOps && !failed.Load(); op++ {
				i := (op*7 + r*13) % len(bids)
				lo := versions[i].Load()
				n, err := d.Read(bids[i], buf)
				if !check(r, i, lo, buf[:n], err) {
					return
				}
			}
		}(r, d)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for op := 0; op < raceOps && !failed.Load(); op++ {
			i := op % len(bids)
			v := versions[i].Load() + 1
			if err := writer.Write(bids[i], racePayload(i, int(v))); err != nil {
				fail("writer: Write(block %d): %v", i, err)
				return
			}
			versions[i].Store(v)
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for op := 0; op < raceOps/3 && !failed.Load(); op++ {
			ids, err := lister.ListBlocks(lid)
			if err != nil {
				fail("lister: ListBlocks: %v", err)
				return
			}
			if len(ids) != len(bids) {
				fail("lister: %d blocks, want %d", len(ids), len(bids))
				return
			}
			if _, err := lister.ListIndex(lid, op%len(bids)); err != nil {
				fail("lister: ListIndex: %v", err)
				return
			}
			if _, err := lister.Lists(); err != nil {
				fail("lister: Lists: %v", err)
				return
			}
		}
	}()

	wg.Wait()

	// Final cross-check: quiesced, every block must hold exactly its
	// newest completed version.
	buf := make([]byte, raceBlockSize)
	for i, b := range bids {
		n, err := readers[0].Read(b, buf)
		if err != nil {
			t.Fatalf("final read block %d: %v", i, err)
		}
		want := racePayload(i, int(versions[i].Load()))
		if string(buf[:n]) != string(want) {
			t.Fatalf("final state of block %d: %.40q, want %.40q", i, buf[:n], want)
		}
	}
}

// setupHammer creates the shared working set through d.
func setupHammer(t *testing.T, d ld.Disk) (ld.ListID, []ld.BlockID) {
	t.Helper()
	lid, err := d.NewList(ld.NilList, ld.ListHints{})
	if err != nil {
		t.Fatal(err)
	}
	bids := make([]ld.BlockID, raceBlocks)
	pred := ld.NilBlock
	for i := range bids {
		b, err := d.NewBlock(lid, pred)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(b, racePayload(i, 0)); err != nil {
			t.Fatal(err)
		}
		bids[i], pred = b, b
	}
	if err := d.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	return lid, bids
}

// TestRaceHammerLocal hammers one in-process LLD: 8 readers, a writer, a
// lister, and an explicit-cleaner goroutine all share the instance. The
// writer churn also trips the watermark cleaner, synchronously on the
// writer's stack (the one run, "sync").
func TestRaceHammerLocal(t *testing.T) {
	t.Run("sync", runRaceHammerLocal)
}

func runRaceHammerLocal(t *testing.T) {
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
	lid, bids := setupHammer(t, l)

	// The cleaner runs concurrently with the hammer: Clean and Reorganize
	// take the exclusive lock and relocate live blocks while readers are
	// in flight.
	stop := make(chan struct{})
	var cleanerWG sync.WaitGroup
	cleanerWG.Add(1)
	go func() {
		defer cleanerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := l.Clean(1); err != nil {
				t.Errorf("cleaner: %v", err)
				return
			}
			if err := l.Reorganize(1); err != nil {
				t.Errorf("reorganize: %v", err)
				return
			}
		}
	}()

	readers := make([]ld.Disk, raceReaders)
	for i := range readers {
		readers[i] = l
	}
	hammer(t, readers, l, l, lid, bids)
	close(stop)
	cleanerWG.Wait()

	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariants after hammer: %v", viol)
	}
	if err := l.Shutdown(false); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// newNetHammerFarm builds one LLD-backed netld server over net.Pipe and
// returns a connect function handing out independent client connections.
func newNetHammerFarm(t *testing.T) func() ld.Disk {
	t.Helper()
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
	t.Cleanup(func() { srv.Close() })
	return func() ld.Disk {
		c, err := client.New(func() (net.Conn, error) {
			cl, sv := net.Pipe()
			go srv.ServeConn(sv)
			return cl, nil
		}, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
}

// TestRaceHammerNet runs the same hammer through a netld server with one
// client connection per goroutine, over net.Pipe.
func TestRaceHammerNet(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		connect := newNetHammerFarm(t)
		setupConn := connect()
		lid, bids := setupHammer(t, setupConn)

		readers := make([]ld.Disk, raceReaders)
		for i := range readers {
			readers[i] = connect()
		}
		hammer(t, readers, setupConn, connect(), lid, bids)
	})
}

// TestCleanerInterleavings drives every path into the cleaner at once —
// explicit Clean, Reorganize and the watermark check on the write path —
// against live readers, while a watchdog asserts that no cleaning pass
// holds the exclusive lock for long: a shared acquisition must never stall
// for more than a generous bound.
func TestCleanerInterleavings(t *testing.T) {
	d := disk.New(disk.DefaultConfig(2 << 20))
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
	lid, bids := setupHammer(t, l)

	stopClean := make(chan struct{})
	stop := make(chan struct{})
	var cleanWG, wg sync.WaitGroup
	// Explicit cleaner and reorganizer compete with the write path's own
	// watermark passes.
	cleanWG.Add(1)
	go func() {
		defer cleanWG.Done()
		for {
			select {
			case <-stopClean:
				return
			default:
			}
			if _, err := l.Clean(1); err != nil {
				t.Errorf("cleaner: %v", err)
				return
			}
			if err := l.Reorganize(1); err != nil {
				t.Errorf("reorganize: %v", err)
				return
			}
		}
	}()
	// Watchdog: a pass is one lock hold and must stay bounded. 2s is far
	// above any watermark pass on this geometry (it stops at four free
	// 64-KB segments) even under -race.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			start := time.Now()
			l.FreeSegments()
			if held := time.Since(start); held > 2*time.Second {
				t.Errorf("shared lock acquisition stalled %v behind an exclusive holder", held)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	readers := make([]ld.Disk, raceReaders)
	for i := range readers {
		readers[i] = l
	}
	hammer(t, readers, l, l, lid, bids)
	close(stopClean)
	cleanWG.Wait()

	// With the explicit cleaners stopped (the watchdog still running),
	// keep writing until the pool drains to the low watermark and the
	// write path runs a pass of its own.
	deadline := time.Now().Add(30 * time.Second)
	for i, runs := 0, l.Stats().CleanerRuns; l.Stats().CleanerRuns == runs; i++ {
		if time.Now().After(deadline) {
			t.Fatal("the write path never ran a watermark pass")
		}
		j := i % len(bids)
		if err := l.Write(bids[j], racePayload(j, 1<<20+i)); err != nil {
			t.Fatalf("drain write: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariants after interleavings: %v", viol)
	}
	if err := l.Shutdown(false); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
