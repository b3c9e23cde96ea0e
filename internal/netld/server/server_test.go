package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/lld"
	"repro/internal/netld/wire"
)

// newBackend builds a small LLD on a simulated disk plus a crash-recovery
// reopen hook.
func newBackend(t *testing.T) (ld.Disk, func() (ld.Disk, error)) {
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
	return l, func() (ld.Disk, error) { return lld.Open(d, o) }
}

// start serves one in-memory connection and returns its client end.
func start(t *testing.T, s *Server) net.Conn {
	t.Helper()
	cl, sv := net.Pipe()
	go s.ServeConn(sv)
	t.Cleanup(func() { cl.Close() })
	return cl
}

func handshake(t *testing.T, c net.Conn) int {
	t.Helper()
	if err := wire.WriteFrame(c, wire.AppendHello(nil)); err != nil {
		t.Fatal(err)
	}
	p, err := wire.ReadFrame(c, 4096)
	if err != nil {
		t.Fatal(err)
	}
	_, maxBlock, err := wire.ParseHelloReply(p)
	if err != nil {
		t.Fatal(err)
	}
	return maxBlock
}

// rpc performs one raw request/response exchange.
func rpc(t *testing.T, c net.Conn, id uint64, op uint8, body []byte) (uint8, []byte) {
	t.Helper()
	req := wire.AppendRequestHeader(nil, id, op)
	req = append(req, body...)
	if err := wire.WriteFrame(c, req); err != nil {
		t.Fatal(err)
	}
	p, err := wire.ReadFrame(c, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	gotID, status, respBody, err := wire.ParseResponseHeader(p)
	if err != nil {
		t.Fatal(err)
	}
	if gotID != id {
		t.Fatalf("response id %d for request %d", gotID, id)
	}
	return status, respBody
}

func TestHandshakeAndBasicOps(t *testing.T) {
	backend, reopen := newBackend(t)
	s := New(Config{Disk: backend, Reopen: reopen})
	c := start(t, s)
	if maxBlock := handshake(t, c); maxBlock != backend.MaxBlockSize() {
		t.Fatalf("handshake max block %d, want %d", maxBlock, backend.MaxBlockSize())
	}

	status, body := rpc(t, c, 1, wire.OpNewList, wire.AppendU8(wire.AppendList(nil, ld.NilList), 0))
	if status != wire.StatusOK {
		t.Fatalf("NewList status %d: %s", status, body)
	}
	lid := wire.NewCursor(body).List()

	status, body = rpc(t, c, 2, wire.OpNewBlock, wire.AppendBlock(wire.AppendList(nil, lid), ld.NilBlock))
	if status != wire.StatusOK {
		t.Fatalf("NewBlock status %d", status)
	}
	bid := wire.NewCursor(body).Block()

	data := []byte("over the wire")
	status, _ = rpc(t, c, 3, wire.OpWrite, wire.AppendBytes(wire.AppendBlock(nil, bid), data))
	if status != wire.StatusOK {
		t.Fatalf("Write status %d", status)
	}
	status, body = rpc(t, c, 4, wire.OpRead, wire.AppendU32(wire.AppendBlock(nil, bid), 64))
	if status != wire.StatusOK {
		t.Fatalf("Read status %d", status)
	}
	if got := wire.NewCursor(body).Bytes(); string(got) != string(data) {
		t.Fatalf("read back %q, want %q", got, data)
	}

	// Errors carry their sentinel across the wire.
	status, body = rpc(t, c, 5, wire.OpRead, wire.AppendU32(wire.AppendBlock(nil, 9999), 64))
	if status != wire.CodeBadBlock {
		t.Fatalf("bad-block read: status %d (%s)", status, body)
	}

	st := s.Stats()
	if st.Ops["Read"].Count != 2 || st.Ops["Read"].Errors != 1 {
		t.Fatalf("read stats: %+v", st.Ops["Read"])
	}
	if st.ActiveSessions != 1 || st.SessionsOpened != 1 {
		t.Fatalf("session stats: %+v", st)
	}
}

// TestVersionReject: a hello of any other version is refused, a version-1
// client (one that predates OpReadMulti) included, and the refusal names
// both versions.
func TestVersionReject(t *testing.T) {
	backend, _ := newBackend(t)
	s := New(Config{Disk: backend})
	for _, v := range []uint16{1, 99} {
		c := start(t, s)
		hello := []byte(wire.ClientMagic)
		hello = binary.LittleEndian.AppendUint16(hello, v)
		if err := wire.WriteFrame(c, hello); err != nil {
			t.Fatal(err)
		}
		p, err := wire.ReadFrame(c, 4096)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = wire.ParseHelloReply(p)
		if !errors.Is(err, wire.ErrVersion) {
			t.Fatalf("version %d: want ErrVersion, got %v", v, err)
		}
		want := fmt.Sprintf("server speaks version %d, client sent %d", wire.Version, v)
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("version %d: refusal %q does not say %q", v, err, want)
		}
	}
}

func TestUnknownOpcodeIsProtoError(t *testing.T) {
	backend, _ := newBackend(t)
	s := New(Config{Disk: backend})
	c := start(t, s)
	handshake(t, c)
	status, _ := rpc(t, c, 1, 99, nil)
	if status != wire.CodeProto {
		t.Fatalf("unknown opcode: status %d", status)
	}
}

func TestARUBusyGating(t *testing.T) {
	backend, reopen := newBackend(t)
	s := New(Config{Disk: backend, Reopen: reopen})
	a := start(t, s)
	b := start(t, s)
	handshake(t, a)
	handshake(t, b)

	// Session A makes a list and block, then opens the ARU.
	_, body := rpc(t, a, 1, wire.OpNewList, wire.AppendU8(wire.AppendList(nil, ld.NilList), 0))
	lid := wire.NewCursor(body).List()
	_, body = rpc(t, a, 2, wire.OpNewBlock, wire.AppendBlock(wire.AppendList(nil, lid), ld.NilBlock))
	bid := wire.NewCursor(body).Block()
	if status, _ := rpc(t, a, 3, wire.OpBeginARU, nil); status != wire.StatusOK {
		t.Fatalf("BeginARU: %d", status)
	}

	// Session B: mutating commands are fenced, reads are not.
	status, _ := rpc(t, b, 1, wire.OpWrite, wire.AppendBytes(wire.AppendBlock(nil, bid), []byte("x")))
	if status != wire.CodeBusy {
		t.Fatalf("foreign write during ARU: status %d, want CodeBusy", status)
	}
	if status, _ := rpc(t, b, 2, wire.OpBeginARU, nil); status != wire.CodeBusy {
		t.Fatalf("foreign BeginARU: status %d, want CodeBusy", status)
	}
	if status, _ := rpc(t, b, 3, wire.OpEndARU, nil); status != wire.CodeNoARU {
		t.Fatalf("foreign EndARU: status %d, want CodeNoARU", status)
	}
	if status, _ := rpc(t, b, 4, wire.OpRead, wire.AppendU32(wire.AppendBlock(nil, bid), 16)); status != wire.StatusOK {
		t.Fatalf("foreign read during ARU: status %d", status)
	}

	// Owner commits; B may write again.
	if status, _ := rpc(t, a, 4, wire.OpEndARU, nil); status != wire.StatusOK {
		t.Fatalf("EndARU: %d", status)
	}
	if status, _ := rpc(t, b, 5, wire.OpWrite, wire.AppendBytes(wire.AppendBlock(nil, bid), []byte("y"))); status != wire.StatusOK {
		t.Fatalf("write after ARU closed: status %d", status)
	}
}

// waitNoARU polls until no session holds the ARU.
func waitNoARU(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.HasOpenARU() {
		if time.Now().After(deadline) {
			t.Fatal("ARU still open after session drop")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSessionDropMidARUAbortsViaRecovery(t *testing.T) {
	backend, reopen := newBackend(t)
	s := New(Config{Disk: backend, Reopen: reopen})
	a := start(t, s)
	handshake(t, a)

	// Durable pre-state: one block holding "base".
	_, body := rpc(t, a, 1, wire.OpNewList, wire.AppendU8(wire.AppendList(nil, ld.NilList), 0))
	lid := wire.NewCursor(body).List()
	_, body = rpc(t, a, 2, wire.OpNewBlock, wire.AppendBlock(wire.AppendList(nil, lid), ld.NilBlock))
	bid := wire.NewCursor(body).Block()
	rpc(t, a, 3, wire.OpWrite, wire.AppendBytes(wire.AppendBlock(nil, bid), []byte("base")))
	if status, _ := rpc(t, a, 4, wire.OpFlush, wire.AppendU32(nil, uint32(ld.FailPower))); status != wire.StatusOK {
		t.Fatal("flush failed")
	}

	// Open an ARU, overwrite, and vanish without committing.
	rpc(t, a, 5, wire.OpBeginARU, nil)
	rpc(t, a, 6, wire.OpWrite, wire.AppendBytes(wire.AppendBlock(nil, bid), []byte("doomed")))
	a.Close()
	waitNoARU(t, s)

	if got := s.Stats().ARUAborts; got != 1 {
		t.Fatalf("ARUAborts = %d, want 1", got)
	}

	// A new session sees the pre-ARU state and a free ARU slot.
	b := start(t, s)
	handshake(t, b)
	status, body := rpc(t, b, 1, wire.OpRead, wire.AppendU32(wire.AppendBlock(nil, bid), 64))
	if status != wire.StatusOK {
		t.Fatalf("read after abort: status %d", status)
	}
	if got := wire.NewCursor(body).Bytes(); string(got) != "base" {
		t.Fatalf("after abort block holds %q, want %q", got, "base")
	}
	if status, _ := rpc(t, b, 2, wire.OpBeginARU, nil); status != wire.StatusOK {
		t.Fatalf("BeginARU after abort: status %d", status)
	}
}

func TestSessionDropMidARUWithoutReopenForcesCommit(t *testing.T) {
	backend, _ := newBackend(t)
	s := New(Config{Disk: backend}) // no Reopen hook
	a := start(t, s)
	handshake(t, a)
	rpc(t, a, 1, wire.OpBeginARU, nil)
	a.Close()
	waitNoARU(t, s)
	if got := s.Stats().ARUForcedCommits; got != 1 {
		t.Fatalf("ARUForcedCommits = %d, want 1", got)
	}
	// The backing disk's ARU really is closed.
	if err := backend.BeginARU(); err != nil {
		t.Fatalf("BeginARU on backend after forced commit: %v", err)
	}
	backend.EndARU()
}

func TestCleanGoodbyeWithOpenARUFails(t *testing.T) {
	backend, reopen := newBackend(t)
	s := New(Config{Disk: backend, Reopen: reopen})
	a := start(t, s)
	handshake(t, a)
	rpc(t, a, 1, wire.OpBeginARU, nil)
	if status, _ := rpc(t, a, 2, wire.OpShutdown, wire.AppendU8(nil, 1)); status != wire.CodeARUOpen {
		t.Fatalf("clean goodbye with open ARU: status %d, want CodeARUOpen", status)
	}
	rpc(t, a, 3, wire.OpEndARU, nil)
	if status, _ := rpc(t, a, 4, wire.OpShutdown, wire.AppendU8(nil, 1)); status != wire.StatusOK {
		t.Fatal("clean goodbye after EndARU failed")
	}
}

func TestCloseDrainsSessions(t *testing.T) {
	backend, reopen := newBackend(t)
	s := New(Config{Disk: backend, Reopen: reopen})
	c := start(t, s)
	handshake(t, c)
	if status, _ := rpc(t, c, 1, wire.OpLists, nil); status != wire.StatusOK {
		t.Fatal("Lists failed")
	}
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain an idle session")
	}
	if got := s.Stats().ActiveSessions; got != 0 {
		t.Fatalf("ActiveSessions = %d after Close", got)
	}
}

func TestServeOnLoopback(t *testing.T) {
	backend, reopen := newBackend(t)
	s := New(Config{Disk: backend, Reopen: reopen})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	handshake(t, c)
	if status, _ := rpc(t, c, 1, wire.OpLists, nil); status != wire.StatusOK {
		t.Fatal("Lists over TCP failed")
	}
	c.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after Close", err)
	}
}
