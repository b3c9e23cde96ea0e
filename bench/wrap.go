package main

import (
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/netld/wire"
)

// tracedLD is the ld.Disk boundary wrapper: B2 between minixfs.LDBackend
// and lld, B4 as server.Config.Disk, and B1 of ld-churn. Every call is one
// lld.* span on the calling goroutine's thread. It forwards
// ld.MultiReadDisk through ld.ReadBlocks, which uses the inner disk's
// batch path when it has one.
type tracedLD struct {
	ld.Disk
	tr *tracer
}

var _ ld.MultiReadDisk = (*tracedLD)(nil)

func (d *tracedLD) Read(b ld.BlockID, buf []byte) (int, error) {
	t, s := d.tr.enter(spLLDRead)
	n, err := d.Disk.Read(b, buf)
	d.tr.exit(t, spLLDRead, s)
	return n, err
}

func (d *tracedLD) ReadBlocks(bs []ld.BlockID, bufs [][]byte) ([]ld.BlockRead, error) {
	t, s := d.tr.enter(spLLDReadBlocks)
	r, err := ld.ReadBlocks(d.Disk, bs, bufs)
	d.tr.exit(t, spLLDReadBlocks, s)
	return r, err
}

func (d *tracedLD) Write(b ld.BlockID, data []byte) error {
	t, s := d.tr.enter(spLLDWrite)
	err := d.Disk.Write(b, data)
	d.tr.exit(t, spLLDWrite, s)
	return err
}

func (d *tracedLD) Flush(f ld.FailureSet) error {
	t, s := d.tr.enter(spLLDFlush)
	err := d.Disk.Flush(f)
	d.tr.exit(t, spLLDFlush, s)
	return err
}

func (d *tracedLD) FlushList(lid ld.ListID) error {
	t, s := d.tr.enter(spLLDFlush)
	err := d.Disk.FlushList(lid)
	d.tr.exit(t, spLLDFlush, s)
	return err
}

func (d *tracedLD) NewBlock(lid ld.ListID, pred ld.BlockID) (ld.BlockID, error) {
	t, s := d.tr.enter(spLLDAlloc)
	b, err := d.Disk.NewBlock(lid, pred)
	d.tr.exit(t, spLLDAlloc, s)
	return b, err
}

func (d *tracedLD) DeleteBlock(b ld.BlockID, lid ld.ListID, predHint ld.BlockID) error {
	t, s := d.tr.enter(spLLDAlloc)
	err := d.Disk.DeleteBlock(b, lid, predHint)
	d.tr.exit(t, spLLDAlloc, s)
	return err
}

func (d *tracedLD) NewList(pred ld.ListID, h ld.ListHints) (ld.ListID, error) {
	t, s := d.tr.enter(spLLDListOp)
	l, err := d.Disk.NewList(pred, h)
	d.tr.exit(t, spLLDListOp, s)
	return l, err
}

func (d *tracedLD) DeleteList(lid, predHint ld.ListID) error {
	t, s := d.tr.enter(spLLDListOp)
	err := d.Disk.DeleteList(lid, predHint)
	d.tr.exit(t, spLLDListOp, s)
	return err
}

func (d *tracedLD) MoveBlocks(first, last ld.BlockID, src, dst ld.ListID, pred, srcPredHint ld.BlockID) error {
	t, s := d.tr.enter(spLLDListOp)
	err := d.Disk.MoveBlocks(first, last, src, dst, pred, srcPredHint)
	d.tr.exit(t, spLLDListOp, s)
	return err
}

func (d *tracedLD) MoveList(lid, newPred, predHint ld.ListID) error {
	t, s := d.tr.enter(spLLDListOp)
	err := d.Disk.MoveList(lid, newPred, predHint)
	d.tr.exit(t, spLLDListOp, s)
	return err
}

func (d *tracedLD) SwapContents(a, b ld.BlockID) error {
	t, s := d.tr.enter(spLLDListOp)
	err := d.Disk.SwapContents(a, b)
	d.tr.exit(t, spLLDListOp, s)
	return err
}

func (d *tracedLD) ListBlocks(lid ld.ListID) ([]ld.BlockID, error) {
	t, s := d.tr.enter(spLLDListOp)
	bs, err := d.Disk.ListBlocks(lid)
	d.tr.exit(t, spLLDListOp, s)
	return bs, err
}

func (d *tracedLD) ListIndex(lid ld.ListID, i int) (ld.BlockID, error) {
	t, s := d.tr.enter(spLLDListOp)
	b, err := d.Disk.ListIndex(lid, i)
	d.tr.exit(t, spLLDListOp, s)
	return b, err
}

func (d *tracedLD) Lists() ([]ld.ListID, error) {
	t, s := d.tr.enter(spLLDListOp)
	ls, err := d.Disk.Lists()
	d.tr.exit(t, spLLDListOp, s)
	return ls, err
}

// The remaining calls (ARU brackets, reservations, BlockSize, Shutdown)
// are one lld.other span each.

func (d *tracedLD) BeginARU() error {
	t, s := d.tr.enter(spLLDOther)
	err := d.Disk.BeginARU()
	d.tr.exit(t, spLLDOther, s)
	return err
}

func (d *tracedLD) EndARU() error {
	t, s := d.tr.enter(spLLDOther)
	err := d.Disk.EndARU()
	d.tr.exit(t, spLLDOther, s)
	return err
}

func (d *tracedLD) Reserve(n int) error {
	t, s := d.tr.enter(spLLDOther)
	err := d.Disk.Reserve(n)
	d.tr.exit(t, spLLDOther, s)
	return err
}

func (d *tracedLD) CancelReservation(n int) error {
	t, s := d.tr.enter(spLLDOther)
	err := d.Disk.CancelReservation(n)
	d.tr.exit(t, spLLDOther, s)
	return err
}

func (d *tracedLD) BlockSize(b ld.BlockID) (int, error) {
	t, s := d.tr.enter(spLLDOther)
	n, err := d.Disk.BlockSize(b)
	d.tr.exit(t, spLLDOther, s)
	return n, err
}

func (d *tracedLD) Shutdown(clean bool) error {
	t, s := d.tr.enter(spLLDOther)
	err := d.Disk.Shutdown(clean)
	d.tr.exit(t, spLLDOther, s)
	return err
}

// devStats counts what crosses a disk.Backend boundary, classed by the
// size of each write against the segment geometry.
type devStats struct {
	reads, readBytes   atomic.Int64
	writes, writeBytes atomic.Int64
	full, partial      atomic.Int64 // ≥ half a segment / between
	small              atomic.Int64 // ≤ one summary slot
	nvram, syncs       atomic.Int64
}

// devCounts is a reading of devStats.
type devCounts struct {
	Reads, ReadBytes, Writes, WriteBytes, Full, Partial, Small, NVRAM, Syncs int64
}

func (d *devStats) values() devCounts {
	return devCounts{d.reads.Load(), d.readBytes.Load(), d.writes.Load(), d.writeBytes.Load(),
		d.full.Load(), d.partial.Load(), d.small.Load(), d.nvram.Load(), d.syncs.Load()}
}

// tracedBackend is the disk.Backend boundary wrapper: B5 under lld, B6
// on each mirror leg. wrapBackend adds disk.Syncer and disk.MultiReader
// exactly when the inner backend has them, because lld and mdisk change
// behaviour on those assertions.
type tracedBackend struct {
	disk.Backend
	tr                       *tracer
	read, write, nvram, sync spanKind
	smallMax, fullMin        int
	st                       devStats
}

func (b *tracedBackend) ReadAt(p []byte, off int64) error {
	t, s := b.tr.enter(b.read)
	err := b.Backend.ReadAt(p, off)
	b.tr.exit(t, b.read, s)
	b.st.reads.Add(1)
	b.st.readBytes.Add(int64(len(p)))
	return err
}

func (b *tracedBackend) WriteAt(p []byte, off int64) error {
	t, s := b.tr.enter(b.write)
	err := b.Backend.WriteAt(p, off)
	b.tr.exit(t, b.write, s)
	b.st.writes.Add(1)
	b.st.writeBytes.Add(int64(len(p)))
	switch {
	case len(p) <= b.smallMax:
		b.st.small.Add(1)
	case len(p) >= b.fullMin:
		b.st.full.Add(1)
	default:
		b.st.partial.Add(1)
	}
	return err
}

func (b *tracedBackend) WriteAtNVRAM(p []byte, off int64) error {
	t, s := b.tr.enter(b.nvram)
	err := b.Backend.WriteAtNVRAM(p, off)
	b.tr.exit(t, b.nvram, s)
	b.st.nvram.Add(1)
	return err
}

type tracedSyncer struct{ *tracedBackend }

func (b tracedSyncer) Sync() error {
	t, s := b.tr.enter(b.sync)
	err := b.Backend.(disk.Syncer).Sync()
	b.tr.exit(t, b.sync, s)
	b.st.syncs.Add(1)
	return err
}

// tracedMulti forwards the verified-read surface; each call is one read
// span whatever number of replicas it touches.
type tracedMulti struct{ *tracedBackend }

func (b tracedMulti) Replicas() int { return b.Backend.(disk.MultiReader).Replicas() }

func (b tracedMulti) ReadAtVerified(p []byte, off int64, verify func([]byte) bool) (int, error) {
	t, s := b.tr.enter(b.read)
	healed, err := b.Backend.(disk.MultiReader).ReadAtVerified(p, off, verify)
	b.tr.exit(t, b.read, s)
	b.st.reads.Add(1)
	b.st.readBytes.Add(int64(len(p)))
	return healed, err
}

func (b tracedMulti) VerifyReplicas(p []byte, off int64, verify func([]byte) bool) (int, error) {
	t, s := b.tr.enter(b.read)
	healed, err := b.Backend.(disk.MultiReader).VerifyReplicas(p, off, verify)
	b.tr.exit(t, b.read, s)
	b.st.reads.Add(1)
	b.st.readBytes.Add(int64(len(p)))
	return healed, err
}

type tracedSyncMulti struct{ tracedMulti }

func (b tracedSyncMulti) Sync() error { return tracedSyncer{b.tracedBackend}.Sync() }

// wrapBackend wraps inner for boundary B5 (leg false) or B6 (leg true).
// It returns the wrapper to hand on and its counters.
func wrapBackend(tr *tracer, inner disk.Backend, leg bool, segmentSize, summarySize int) (disk.Backend, *devStats) {
	tb := &tracedBackend{Backend: inner, tr: tr,
		read: spDevRead, write: spDevWrite, nvram: spDevNVRAM, sync: spDevSync,
		smallMax: summarySize, fullMin: (segmentSize - 2*summarySize) / 2}
	if leg {
		tb.read, tb.write, tb.nvram, tb.sync = spLegRead, spLegWrite, spLegNVRAM, spLegSync
	}
	_, syncer := inner.(disk.Syncer)
	_, multi := inner.(disk.MultiReader)
	switch {
	case syncer && multi:
		return tracedSyncMulti{tracedMulti{tb}}, &tb.st
	case syncer:
		return tracedSyncer{tb}, &tb.st
	case multi:
		return tracedMulti{tb}, &tb.st
	}
	return tb, &tb.st
}

// frameScanner follows netld's framing (u32 little-endian length, then
// the payload) over arbitrary read or write boundaries and reports each
// completed frame with byte 8 of its payload: the status of a response.
type frameScanner struct {
	hdr    [4]byte
	hdrN   int
	remain int // payload bytes still to come
	pos    int // payload bytes seen
	status byte
	frames int64
}

func (s *frameScanner) feed(p []byte, done func(status byte)) {
	for len(p) > 0 {
		if s.hdrN < 4 {
			n := copy(s.hdr[s.hdrN:], p)
			s.hdrN += n
			p = p[n:]
			if s.hdrN < 4 {
				return
			}
			s.remain = int(uint32(s.hdr[0]) | uint32(s.hdr[1])<<8 | uint32(s.hdr[2])<<16 | uint32(s.hdr[3])<<24)
			s.pos, s.status = 0, 0
		} else {
			n := len(p)
			if n > s.remain {
				n = s.remain
			}
			if s.pos <= 8 && 8 < s.pos+n {
				s.status = p[8-s.pos]
			}
			s.pos += n
			s.remain -= n
			p = p[n:]
		}
		if s.hdrN == 4 && s.remain == 0 {
			s.hdrN = 0
			s.frames++
			if done != nil {
				done(s.status)
			}
		}
	}
}

// wireStats counts one side of the connections of a stack.
type wireStats struct {
	bytes, calls, frames atomic.Int64
}

// clientConn is B3 on the client's dial func: it only counts, because the
// client's read loop blocks in Read on its own goroutine while the op's
// goroutine waits.
type clientConn struct {
	net.Conn
	st      *wireStats
	in, out frameScanner
}

func (c *clientConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	before := c.in.frames
	c.in.feed(p[:n], nil)
	c.st.calls.Add(1)
	c.st.bytes.Add(int64(n))
	c.st.frames.Add(c.in.frames - before)
	return n, err
}

func (c *clientConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	before := c.out.frames
	c.out.feed(p[:n], nil)
	c.st.calls.Add(1)
	c.st.bytes.Add(int64(n))
	c.st.frames.Add(c.out.frames - before)
	return n, err
}

// serverConn is B3 on the server's listener. One netld.server span runs
// from the Read that completes a request frame to the Write that
// completes the final (non-partial) reply frame; the client keeps one
// request in flight, so spans never overlap. The session goroutine adopts
// the connection's thread on its first Read, which is how the lld and
// device spans under it find their parent.
type serverConn struct {
	net.Conn
	th      *thread
	adopted bool
	in, out frameScanner
	hello   bool // the handshake frame is not a request
}

func (c *serverConn) Read(p []byte) (int, error) {
	if !c.adopted {
		c.adopted = true
		c.th.adopt()
	}
	n, err := c.Conn.Read(p)
	c.in.feed(p[:n], func(byte) {
		if !c.hello {
			c.hello = true
			return
		}
		c.th.begin(spNetServer)
	})
	return n, err
}

func (c *serverConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.feed(p[:n], func(status byte) {
		if status != wire.CodePartial {
			c.th.end()
		}
	})
	return n, err
}

// tracedListener wraps accepted connections in serverConn and pairs each
// with the client thread that dialed it, by address.
type tracedListener struct {
	net.Listener
	tr *tracer

	mu      sync.Mutex
	clients map[string]*thread // client local address → its thread
	n       int
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.n++
	th := l.tr.newThread("session-" + strconv.Itoa(l.n))
	th.peer = l.clients[c.RemoteAddr().String()]
	l.mu.Unlock()
	return &serverConn{Conn: c, th: th}, nil
}

// dialer returns a client dial func whose connections count into st and
// register th as the peer of the session they reach. Connect and
// registration happen under the lock Accept pairs under, so a session
// never looks its client up before the address is there.
func (l *tracedListener) dialer(addr string, th *thread, st *wireStats) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		l.mu.Lock()
		defer l.mu.Unlock()
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		l.clients[c.LocalAddr().String()] = th
		return &clientConn{Conn: c, st: st}, nil
	}
}
