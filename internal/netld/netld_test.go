// Integration tests spanning the netld layers: client retry against an
// injected transient drop, non-idempotent failure reporting, session
// cleanup when a connection dies mid-ARU, and the crash-interaction story
// of paper §3.3 — a server killed mid-ARU whose restart discards the
// unfinished unit in one recovery sweep.
package netld_test

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/lld"
	"repro/internal/netld/client"
	"repro/internal/netld/faultconn"
	"repro/internal/netld/server"
)

type fixture struct {
	dsk  *disk.Disk
	opts lld.Options
	srv  *server.Server
}

func newFixture(t *testing.T) *fixture {
	return newFixtureCfg(t, nil)
}

// newFixtureCfg is newFixture with a hook to adjust the server config
// (e.g. enable the idle timeout) before the server is built.
func newFixtureCfg(t *testing.T, tweak func(*server.Config)) *fixture {
	t.Helper()
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
	cfg := server.Config{
		Disk:   l,
		Reopen: func() (ld.Disk, error) { return lld.Open(d, o) },
	}
	if tweak != nil {
		tweak(&cfg)
	}
	srv := server.New(cfg)
	t.Cleanup(func() { srv.Close() })
	return &fixture{dsk: d, opts: o, srv: srv}
}

// pipeDial serves each dialed connection from srv over net.Pipe, wrapping
// the client end with fault injection configs consumed one per dial (the
// last config repeats).
func (f *fixture) pipeDial(cfgs ...faultconn.Config) (func() (net.Conn, error), *[]*faultconn.Conn) {
	var mu sync.Mutex
	conns := &[]*faultconn.Conn{}
	i := 0
	return func() (net.Conn, error) {
		mu.Lock()
		cfg := faultconn.Config{}
		if len(cfgs) > 0 {
			if i < len(cfgs) {
				cfg = cfgs[i]
			} else {
				cfg = cfgs[len(cfgs)-1]
			}
			i++
		}
		mu.Unlock()
		cl, sv := net.Pipe()
		go f.srv.ServeConn(sv)
		fc := faultconn.Wrap(cl, cfg)
		mu.Lock()
		*conns = append(*conns, fc)
		mu.Unlock()
		return fc, nil
	}, conns
}

// seed creates one list with one block holding val and flushes.
func seed(t *testing.T, c ld.Disk, val string) (ld.ListID, ld.BlockID) {
	t.Helper()
	lid, err := c.NewList(ld.NilList, ld.ListHints{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.NewBlock(lid, ld.NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(b, []byte(val)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	return lid, b
}

func readStr(t *testing.T, c ld.Disk, b ld.BlockID) string {
	t.Helper()
	buf := make([]byte, 64)
	n, err := c.Read(b, buf)
	if err != nil {
		t.Fatalf("read %d: %v", b, err)
	}
	return string(buf[:n])
}

func TestClientRetriesIdempotentOpAcrossTransientDrop(t *testing.T) {
	f := newFixture(t)
	dial, conns := f.pipeDial()
	c, err := client.New(dial, client.Options{Retries: 3, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, b := seed(t, c, "durable")

	// The first connection dies mid-frame during one of the upcoming
	// reads; the replacement connection is clean.
	(*conns)[0].CutIn(20)

	// Hammer reads until the cut fires; every read must still succeed,
	// transparently, via retry on a fresh connection.
	for i := 0; i < 50; i++ {
		if got := readStr(t, c, b); got != "durable" {
			t.Fatalf("read %d: got %q", i, got)
		}
	}
	if d := c.Dials(); d < 2 {
		t.Fatalf("cut never fired (dials = %d); the retry path was not exercised", d)
	}
}

func TestNonIdempotentOpSurfacesConnLostInsteadOfRetrying(t *testing.T) {
	f := newFixture(t)
	dial, conns := f.pipeDial()
	c, err := client.New(dial, client.Options{Retries: 3, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	lid, b := seed(t, c, "v1")

	// Cut the connection mid-frame during the next write.
	(*conns)[0].CutIn(5)
	err = c.Write(b, []byte("v2"))
	if !errors.Is(err, client.ErrConnLost) {
		t.Fatalf("write through cut conn: got %v, want ErrConnLost", err)
	}
	if d := c.Dials(); d != 1 {
		t.Fatalf("non-idempotent op redialed (dials = %d); it must not silently retry", d)
	}

	// The client recovers for subsequent operations on a fresh conn, and
	// the caller decides how to reconcile: here the write never landed.
	if got := readStr(t, c, b); got != "v1" {
		t.Fatalf("after failed write block holds %q", got)
	}
	if _, err := c.ListBlocks(lid); err != nil {
		t.Fatal(err)
	}
	if d := c.Dials(); d != 2 {
		t.Fatalf("dials = %d, want 2", d)
	}
}

func TestSessionCutMidARUAbortsOnServer(t *testing.T) {
	f := newFixture(t)
	dial, conns := f.pipeDial()
	c1, err := client.New(dial, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	_, b := seed(t, c1, "base")

	if err := c1.BeginARU(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Write(b, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	// The connection dies mid-ARU: a faultconn disconnect, not a goodbye.
	(*conns)[0].Kill()

	deadline := time.Now().Add(5 * time.Second)
	for f.srv.HasOpenARU() {
		if time.Now().After(deadline) {
			t.Fatal("server still holds the dropped session's ARU")
		}
		time.Sleep(time.Millisecond)
	}
	if got := f.srv.Stats().ARUAborts; got != 1 {
		t.Fatalf("ARUAborts = %d, want 1", got)
	}

	// A second client finds the pre-ARU state and a usable ARU.
	dial2, _ := f.pipeDial()
	c2, err := client.New(dial2, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := readStr(t, c2, b); got != "base" {
		t.Fatalf("after abort block holds %q, want %q", got, "base")
	}
	if err := c2.BeginARU(); err != nil {
		t.Fatalf("BeginARU after abort: %v", err)
	}
	if err := c2.EndARU(); err != nil {
		t.Fatal(err)
	}
}

// TestServerCrashMidARURecoversOnRestart ties netld into the paper's §3.3
// recovery: the server process dies with an ARU open (its records flushed
// but uncommitted), a new server opens the same LLD image, and the
// one-sweep recovery discards the unfinished unit.
func TestServerCrashMidARURecoversOnRestart(t *testing.T) {
	f := newFixture(t)
	dial, conns := f.pipeDial()
	c1, err := client.New(dial, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	_, b := seed(t, c1, "committed")

	if err := c1.BeginARU(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Write(b, []byte("uncommitted")); err != nil {
		t.Fatal(err)
	}
	// Push the unit's (uncommitted) records to disk, then kill the server
	// process: connection severed, no abort, no goodbye.
	if err := c1.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	(*conns)[0].Kill()
	f.srv.Kill()

	// The old in-memory state dies with the process.
	if err := f.srv.Disk().Shutdown(false); err != nil {
		t.Fatal(err)
	}

	// Restart on the same image: recovery must discard the unfinished ARU.
	l2, err := lld.Open(f.dsk, f.opts)
	if err != nil {
		t.Fatalf("restart on the same image: %v", err)
	}
	srv2 := server.New(server.Config{
		Disk:   l2,
		Reopen: func() (ld.Disk, error) { return lld.Open(f.dsk, f.opts) },
	})
	defer srv2.Close()
	dial2 := func() (net.Conn, error) {
		cl, sv := net.Pipe()
		go srv2.ServeConn(sv)
		return cl, nil
	}
	c2, err := client.New(dial2, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	if got := readStr(t, c2, b); got != "committed" {
		t.Fatalf("after crash restart block holds %q, want %q", got, "committed")
	}
	if err := c2.BeginARU(); err != nil {
		t.Fatalf("BeginARU after restart: %v", err)
	}
	if err := c2.EndARU(); err != nil {
		t.Fatal(err)
	}
}

// TestTwoClientsShareOneServer exercises concurrent sessions against the
// shared backing disk, including the busy fence seen from the client API.
func TestTwoClientsShareOneServer(t *testing.T) {
	f := newFixture(t)
	dialA, _ := f.pipeDial()
	dialB, _ := f.pipeDial()
	a, err := client.New(dialA, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	bcl, err := client.New(dialB, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer bcl.Close()

	_, blk := seed(t, a, "shared")
	if got := readStr(t, bcl, blk); got != "shared" {
		t.Fatalf("B sees %q", got)
	}

	if err := a.BeginARU(); err != nil {
		t.Fatal(err)
	}
	if err := bcl.Write(blk, []byte("denied")); err == nil {
		t.Fatal("foreign write during A's ARU succeeded")
	}
	if got := readStr(t, bcl, blk); got != "shared" {
		t.Fatalf("B sees %q during A's ARU", got)
	}
	if err := a.EndARU(); err != nil {
		t.Fatal(err)
	}
	if err := bcl.Write(blk, []byte("granted")); err != nil {
		t.Fatalf("write after ARU closed: %v", err)
	}
	if got := readStr(t, a, blk); got != "granted" {
		t.Fatalf("A sees %q", got)
	}
}

// TestDegradedServerRefusesCorruptBlocksOnly: a server whose backing
// media silently rotted under part of the log must answer reads of the
// damaged blocks with CodeCorrupt (ld.ErrCorrupt on the client side)
// while every untouched block keeps reading back byte-identical — the
// service degrades block by block, it does not go down or serve garbage.
func TestDegradedServerRefusesCorruptBlocksOnly(t *testing.T) {
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

	// Rot a quarter-megabyte window in the middle of the media, well
	// inside the sealed part of the log.
	f.dsk.CorruptRange(f.dsk.Capacity()/2, 256<<10, 0x5a)

	// Ground truth from the serving LLD itself: exactly which blocks the
	// window damaged.
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

	buf := make([]byte, 4096)
	sawCorrupt, sawClean := 0, 0
	for _, b := range order {
		n, err := c.Read(b, buf)
		if corrupt[b] {
			if !errors.Is(err, ld.ErrCorrupt) {
				t.Fatalf("damaged block %d: err = %v, want ld.ErrCorrupt over the wire", b, err)
			}
			sawCorrupt++
			continue
		}
		if err != nil {
			t.Fatalf("clean block %d: %v", b, err)
		}
		if !bytes.Equal(buf[:n], want[b]) {
			t.Fatalf("clean block %d: wrong bytes", b)
		}
		sawClean++
	}
	if sawCorrupt == 0 || sawClean == 0 {
		t.Fatalf("degenerate split: %d corrupt, %d clean", sawCorrupt, sawClean)
	}
}

// TestIdleTimeoutDisconnectsDeadClient: a client that opens an ARU and
// then falls silent — connected but never speaking again — must not pin
// its session or the server-wide ARU forever. With Config.IdleTimeout
// set the server cuts the session, aborts the dangling unit via crash
// recovery, and a live client gets the ARU (and sees the silent
// client's uncommitted write discarded). A client that keeps talking,
// even over a slow faulty link, is never idled out.
func TestIdleTimeoutDisconnectsDeadClient(t *testing.T) {
	// The active-session leg below paces its requests at idle/8, so the
	// live client is only reaped by a scheduling stall longer than ~200 ms;
	// at 50 ms a single stall on a loaded 2-vCPU host did it.
	const idle = 250 * time.Millisecond
	f := newFixtureCfg(t, func(c *server.Config) { c.IdleTimeout = idle })
	// Leg 1 (the dying client) is a clean faultconn; leg 2 adds
	// deterministic per-I/O delays well under the idle timeout, proving
	// slow-but-alive sessions survive.
	dial, _ := f.pipeDial(
		faultconn.Config{},
		faultconn.Config{Seed: 5, DelayProb: 0.5, MaxDelay: 2 * time.Millisecond},
	)

	c1, err := client.New(dial, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	_, b := seed(t, c1, "v1")
	if err := c1.BeginARU(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Write(b, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// c1 now goes silent without closing its connection: a dead client.

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := f.srv.Stats()
		if st.IdleDisconnects >= 1 && st.ARUAborts >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle session not reaped: stats %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The ARU is free again and the dead client's uncommitted write was
	// aborted, not committed.
	c2, err := client.New(dial, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := readStr(t, c2, b); got != "v1" {
		t.Fatalf("silent client's uncommitted write leaked: block holds %q", got)
	}
	if err := c2.BeginARU(); err != nil {
		t.Fatalf("BeginARU after idle reap: %v", err)
	}

	// Keep c2 active across several idle windows: requests spaced under
	// the timeout reset the clock, so it must never be disconnected.
	stop := time.Now().Add(3 * idle)
	for time.Now().Before(stop) {
		if got := readStr(t, c2, b); got != "v1" {
			t.Fatalf("active session read wrong value %q", got)
		}
		time.Sleep(idle / 8)
	}
	if err := c2.EndARU(); err != nil {
		t.Fatalf("EndARU on active session: %v", err)
	}
	if st := f.srv.Stats(); st.IdleDisconnects != 1 {
		t.Fatalf("IdleDisconnects = %d, want exactly 1 (the dead client)", st.IdleDisconnects)
	}
}
