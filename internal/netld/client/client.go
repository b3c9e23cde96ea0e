// Package client implements ld.Disk against a netld server, so a file
// system written for the Logical Disk runs unchanged whether the disk is
// in-process or across the network — the separation of file management
// from disk management that is the paper's central claim, stretched over
// a wire.
//
// The client pipelines: any number of goroutines may have requests
// outstanding on the single connection, matched to responses by request
// id. Connections are dialed lazily and redialed after failures.
//
// Retry policy. Idempotent operations (Read, BlockSize, ListBlocks,
// Lists, ListIndex) are retried with exponential backoff after transient
// transport failures. Mutating operations are never silently retried once
// the request may have reached the server: if the connection dies after a
// mutating request was sent, the call fails with an error wrapping
// ErrConnLost, because the operation may or may not have executed. A
// failure to even dial is safe to retry for every operation.
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ld"
	"repro/internal/netld/wire"
)

// ErrConnLost is wrapped by errors returned when the connection died
// after a non-idempotent request was sent: the operation may or may not
// have executed on the server, and the client will not guess.
var ErrConnLost = errors.New("netld: connection lost")

// NoRetries disables retries when assigned to Options.Retries. The zero
// value of Retries means "default" (3), so "no retries" needs an explicit
// sentinel; any negative value works, this name says what it means.
const NoRetries = -1

// Options configure a Client. The zero value gets sane defaults.
type Options struct {
	// DialTimeout bounds connection establishment. Default 5s.
	DialTimeout time.Duration
	// OpTimeout bounds the wait for a single response. Default 30s.
	OpTimeout time.Duration
	// Retries is the number of retry attempts (beyond the first try) for
	// idempotent operations and failed dials. The zero value means the
	// default of 3; use NoRetries (or any negative value) to disable
	// retries entirely.
	Retries int
	// Backoff is the first retry delay; it doubles per attempt, capped
	// at MaxBackoff. Default 10ms.
	Backoff time.Duration
	// MaxBackoff caps the exponential retry delay. Default 2s.
	MaxBackoff time.Duration
	// MaxFrame bounds response frame sizes. Defaults to the handshake's
	// max block size plus slack.
	MaxFrame int
}

// withDefaults resolves the zero-value defaults. It is idempotent, so an
// already-resolved Options passes through unchanged — NoRetries must not
// turn back into the default on a second pass.
func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 30 * time.Second
	}
	if o.Retries == 0 {
		o.Retries = 3
	}
	if o.Backoff <= 0 {
		o.Backoff = 10 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	return o
}

// retries returns the effective retry count: negative (NoRetries) means 0.
func (o Options) retries() int {
	if o.Retries < 0 {
		return 0
	}
	return o.Retries
}

// retryDelay returns the backoff before retry attempt (attempt >= 1):
// Backoff doubled per attempt, clamped to MaxBackoff. The loop guards
// against shift overflow — with large retry counts a plain
// Backoff << (attempt-1) wraps negative and time.Sleep returns
// immediately, turning backoff into a hot retry loop.
func (o Options) retryDelay(attempt int) time.Duration {
	d := o.Backoff
	for i := 1; i < attempt; i++ {
		d <<= 1
		if d <= 0 || d >= o.MaxBackoff {
			return o.MaxBackoff
		}
	}
	if d > o.MaxBackoff {
		return o.MaxBackoff
	}
	return d
}

// Client is a remote ld.Disk. It is safe for concurrent use.
type Client struct {
	o    Options
	dial func() (net.Conn, error)

	nextID atomic.Uint64
	shut   atomic.Bool

	mu       sync.Mutex // guards cur; dials and maxBlock are atomic
	cur      *conn
	dials    atomic.Uint64
	maxBlock atomic.Int64
}

var _ ld.Disk = (*Client)(nil)

// Dial connects to a netld server over TCP and performs the handshake.
func Dial(addr string, o Options) (*Client, error) {
	// Resolve defaults once and hand the resolved copy to New (which
	// re-resolves idempotently), so the dial closure's DialTimeout can
	// never diverge from the client's own options.
	oo := o.withDefaults()
	return New(func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr, oo.DialTimeout)
	}, oo)
}

// New builds a Client over a custom transport; dial is called for the
// initial connection and for every reconnect. The first connection is
// established eagerly so the handshake's max block size is known.
func New(dial func() (net.Conn, error), o Options) (*Client, error) {
	c := &Client{o: o.withDefaults(), dial: dial}
	c.mu.Lock()
	_, err := c.connLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Dials reports how many connections the client has established; tests
// use it to assert retry behavior.
func (c *Client) Dials() uint64 { return c.dials.Load() }

// conn is one live connection with its demultiplexing reader.
type conn struct {
	nc       net.Conn
	maxFrame int

	wmu sync.Mutex // serializes frame writes

	pmu     sync.Mutex
	pending map[uint64]chan response
	dead    bool
	deadErr error
}

type response struct {
	status uint8
	body   []byte
}

// connLocked returns the live connection, dialing and handshaking if
// needed. Caller holds c.mu.
func (c *Client) connLocked() (*conn, error) {
	if c.cur != nil {
		return c.cur, nil
	}
	nc, err := c.dial()
	if err != nil {
		return nil, fmt.Errorf("netld: dial: %w", err)
	}
	c.dials.Add(1)
	if err := nc.SetDeadline(time.Now().Add(c.o.DialTimeout)); err == nil {
		defer nc.SetDeadline(time.Time{})
	}
	if err := wire.WriteFrame(nc, wire.AppendHello(nil)); err != nil {
		nc.Close()
		return nil, fmt.Errorf("netld: handshake: %w", err)
	}
	p, err := wire.ReadFrame(nc, 4096)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("netld: handshake: %w", err)
	}
	_, maxBlock, err := wire.ParseHelloReply(p)
	if err != nil {
		nc.Close()
		return nil, err
	}
	c.maxBlock.Store(int64(maxBlock))
	maxFrame := c.o.MaxFrame
	if maxFrame <= 0 {
		maxFrame = maxBlock + 4096
	}
	cn := &conn{nc: nc, maxFrame: maxFrame, pending: make(map[uint64]chan response)}
	go cn.readLoop()
	c.cur = cn
	return cn, nil
}

// dropConn discards cn if it is still current, so the next call redials.
func (c *Client) dropConn(cn *conn) {
	c.mu.Lock()
	if c.cur == cn {
		c.cur = nil
	}
	c.mu.Unlock()
	cn.fail(ErrConnLost)
}

func (cn *conn) readLoop() {
	for {
		p, err := wire.ReadFrame(cn.nc, cn.maxFrame)
		if err != nil {
			cn.fail(err)
			return
		}
		id, status, body, err := wire.ParseResponseHeader(p)
		if err != nil {
			cn.fail(err)
			return
		}
		// A CodePartial frame is a continuation: more frames for this
		// request follow, so its pending entry stays registered.
		cn.pmu.Lock()
		ch, ok := cn.pending[id]
		if ok && status != wire.CodePartial {
			delete(cn.pending, id)
		}
		cn.pmu.Unlock()
		if ok {
			select {
			case ch <- response{status: status, body: body}:
			default:
				// The waiter's channel is sized for the largest legal
				// response; overflowing it means the server sent more
				// frames than the request allows, and the stream can no
				// longer be trusted.
				cn.fail(fmt.Errorf("%w: response overrun for request %d", wire.ErrProto, id))
				return
			}
		}
	}
}

// fail marks the connection dead and wakes every waiter with err.
func (cn *conn) fail(err error) {
	cn.nc.Close()
	cn.pmu.Lock()
	if cn.dead {
		cn.pmu.Unlock()
		return
	}
	cn.dead = true
	cn.deadErr = err
	waiters := cn.pending
	cn.pending = nil
	cn.pmu.Unlock()
	for _, ch := range waiters {
		close(ch)
	}
}

// register adds a pending request whose response channel buffers up to n
// frames (n > 1 only for multi-frame responses, so the read loop never
// blocks on a waiter); it fails if the connection is already dead.
func (cn *conn) register(id uint64, n int) (chan response, error) {
	ch := make(chan response, n)
	cn.pmu.Lock()
	defer cn.pmu.Unlock()
	if cn.dead {
		return nil, cn.deadErr
	}
	cn.pending[id] = ch
	return ch, nil
}

func (cn *conn) unregister(id uint64) {
	cn.pmu.Lock()
	if cn.pending != nil {
		delete(cn.pending, id)
	}
	cn.pmu.Unlock()
}

// transportError marks transport-level failures (as opposed to operation
// errors decoded from a well-formed response).
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// roundTrip sends one request on cn and waits for its response. sent
// reports whether any bytes of the request may have reached the server;
// when false the operation certainly did not execute and is safe to retry
// regardless of idempotence.
func (c *Client) roundTrip(cn *conn, id uint64, req []byte) (resp response, sent bool, err error) {
	ch, err := cn.register(id, 1)
	if err != nil {
		c.dropConn(cn)
		return response{}, false, &transportError{err}
	}
	cn.wmu.Lock()
	err = wire.WriteFrame(cn.nc, req)
	cn.wmu.Unlock()
	if err != nil {
		cn.unregister(id)
		c.dropConn(cn)
		// A partial frame may have escaped; treat as possibly sent.
		return response{}, true, &transportError{err}
	}
	timer := time.NewTimer(c.o.OpTimeout)
	defer timer.Stop()
	select {
	case resp, ok := <-ch:
		if !ok {
			c.dropConn(cn)
			return response{}, true, &transportError{fmt.Errorf("%w while awaiting response", ErrConnLost)}
		}
		return resp, true, nil
	case <-timer.C:
		cn.unregister(id)
		// The stream can no longer be trusted: a late response for this
		// id would desynchronize matching. Tear the connection down.
		c.dropConn(cn)
		return response{}, true, &transportError{fmt.Errorf("netld: response timeout after %v", c.o.OpTimeout)}
	}
}

// call performs one operation, applying the retry policy.
func (c *Client) call(op uint8, body []byte, idempotent bool) ([]byte, error) {
	if c.shut.Load() {
		return nil, ld.ErrShutdown
	}
	var lastErr error
	attempts := 1 + c.o.retries()
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(c.o.retryDelay(attempt))
		}
		c.mu.Lock()
		cn, err := c.connLocked()
		c.mu.Unlock()
		if err != nil {
			// Nothing was sent; dial failures are retryable for every op.
			lastErr = err
			continue
		}
		id := c.nextID.Add(1)
		req := wire.AppendRequestHeader(nil, id, op)
		req = append(req, body...)
		resp, sent, err := c.roundTrip(cn, id, req)
		if err == nil {
			return resp.body, wire.ErrFor(resp.status, string(resp.body))
		}
		if sent && !idempotent {
			return nil, fmt.Errorf("netld: %s failed mid-flight, not retrying (%w): %v",
				wire.OpName(op), ErrConnLost, err)
		}
		lastErr = err
	}
	return nil, fmt.Errorf("netld: %s: %w", wire.OpName(op), lastErr)
}

// ok discards the response body, keeping only the error.
func ok(_ []byte, err error) error { return err }

// Read implements ld.Disk.
func (c *Client) Read(b ld.BlockID, buf []byte) (int, error) {
	// No block exceeds the disk's max block size, so a larger buffer
	// never receives more bytes; clamping keeps the response frame
	// within the negotiated limit.
	reqLen := len(buf)
	if max := c.MaxBlockSize(); reqLen > max {
		reqLen = max
	}
	body := wire.AppendBlock(nil, b)
	body = wire.AppendU32(body, uint32(reqLen))
	resp, err := c.call(wire.OpRead, body, true)
	if err != nil {
		return 0, err
	}
	cur := wire.NewCursor(resp)
	data := cur.Bytes()
	if err := cur.Done(); err != nil {
		return 0, err
	}
	return copy(buf, data), nil
}

// Write implements ld.Disk. Oversized writes fail locally with
// ld.ErrTooLarge — the request would exceed the server's frame limit, and
// the disk would reject it anyway.
func (c *Client) Write(b ld.BlockID, data []byte) error {
	if len(data) > c.MaxBlockSize() {
		return fmt.Errorf("%w: %d bytes exceeds max block size %d", ld.ErrTooLarge, len(data), c.MaxBlockSize())
	}
	body := wire.AppendBlock(nil, b)
	body = wire.AppendBytes(body, data)
	return ok(c.call(wire.OpWrite, body, false))
}

// NewBlock implements ld.Disk.
func (c *Client) NewBlock(lid ld.ListID, pred ld.BlockID) (ld.BlockID, error) {
	body := wire.AppendList(nil, lid)
	body = wire.AppendBlock(body, pred)
	resp, err := c.call(wire.OpNewBlock, body, false)
	if err != nil {
		return ld.NilBlock, err
	}
	cur := wire.NewCursor(resp)
	nb := cur.Block()
	if err := cur.Done(); err != nil {
		return ld.NilBlock, err
	}
	return nb, nil
}

// DeleteBlock implements ld.Disk.
func (c *Client) DeleteBlock(b ld.BlockID, lid ld.ListID, predHint ld.BlockID) error {
	body := wire.AppendBlock(nil, b)
	body = wire.AppendList(body, lid)
	body = wire.AppendBlock(body, predHint)
	return ok(c.call(wire.OpDeleteBlock, body, false))
}

// NewList implements ld.Disk.
func (c *Client) NewList(predList ld.ListID, hints ld.ListHints) (ld.ListID, error) {
	body := wire.AppendList(nil, predList)
	body = wire.AppendU8(body, wire.HintsByte(hints))
	resp, err := c.call(wire.OpNewList, body, false)
	if err != nil {
		return ld.NilList, err
	}
	cur := wire.NewCursor(resp)
	lid := cur.List()
	if err := cur.Done(); err != nil {
		return ld.NilList, err
	}
	return lid, nil
}

// DeleteList implements ld.Disk.
func (c *Client) DeleteList(lid ld.ListID, predHint ld.ListID) error {
	body := wire.AppendList(nil, lid)
	body = wire.AppendList(body, predHint)
	return ok(c.call(wire.OpDeleteList, body, false))
}

// MoveBlocks implements ld.Disk.
func (c *Client) MoveBlocks(first, last ld.BlockID, srcList, dstList ld.ListID, pred ld.BlockID, srcPredHint ld.BlockID) error {
	body := wire.AppendBlock(nil, first)
	body = wire.AppendBlock(body, last)
	body = wire.AppendList(body, srcList)
	body = wire.AppendList(body, dstList)
	body = wire.AppendBlock(body, pred)
	body = wire.AppendBlock(body, srcPredHint)
	return ok(c.call(wire.OpMoveBlocks, body, false))
}

// MoveList implements ld.Disk.
func (c *Client) MoveList(lid ld.ListID, newPred ld.ListID, predHint ld.ListID) error {
	body := wire.AppendList(nil, lid)
	body = wire.AppendList(body, newPred)
	body = wire.AppendList(body, predHint)
	return ok(c.call(wire.OpMoveList, body, false))
}

// FlushList implements ld.Disk.
func (c *Client) FlushList(lid ld.ListID) error {
	return ok(c.call(wire.OpFlushList, wire.AppendList(nil, lid), false))
}

// BeginARU implements ld.Disk.
func (c *Client) BeginARU() error {
	return ok(c.call(wire.OpBeginARU, nil, false))
}

// EndARU implements ld.Disk.
func (c *Client) EndARU() error {
	return ok(c.call(wire.OpEndARU, nil, false))
}

// Flush implements ld.Disk.
func (c *Client) Flush(failures ld.FailureSet) error {
	return ok(c.call(wire.OpFlush, wire.AppendU32(nil, uint32(failures)), false))
}

// Reserve implements ld.Disk.
func (c *Client) Reserve(n int) error {
	return ok(c.call(wire.OpReserve, wire.AppendI64(nil, int64(n)), false))
}

// CancelReservation implements ld.Disk.
func (c *Client) CancelReservation(n int) error {
	return ok(c.call(wire.OpCancelReservation, wire.AppendI64(nil, int64(n)), false))
}

// SwapContents implements ld.Disk.
func (c *Client) SwapContents(a, b ld.BlockID) error {
	body := wire.AppendBlock(nil, a)
	body = wire.AppendBlock(body, b)
	return ok(c.call(wire.OpSwapContents, body, false))
}

// ListBlocks implements ld.Disk.
func (c *Client) ListBlocks(lid ld.ListID) ([]ld.BlockID, error) {
	resp, err := c.call(wire.OpListBlocks, wire.AppendList(nil, lid), true)
	if err != nil {
		return nil, err
	}
	cur := wire.NewCursor(resp)
	n := int(cur.U32())
	ids := make([]ld.BlockID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, cur.Block())
	}
	if err := cur.Done(); err != nil {
		return nil, err
	}
	return ids, nil
}

// ListIndex implements ld.Disk.
func (c *Client) ListIndex(lid ld.ListID, i int) (ld.BlockID, error) {
	body := wire.AppendList(nil, lid)
	body = wire.AppendI64(body, int64(i))
	resp, err := c.call(wire.OpListIndex, body, true)
	if err != nil {
		return ld.NilBlock, err
	}
	cur := wire.NewCursor(resp)
	b := cur.Block()
	if err := cur.Done(); err != nil {
		return ld.NilBlock, err
	}
	return b, nil
}

// Lists implements ld.Disk.
func (c *Client) Lists() ([]ld.ListID, error) {
	resp, err := c.call(wire.OpLists, nil, true)
	if err != nil {
		return nil, err
	}
	cur := wire.NewCursor(resp)
	n := int(cur.U32())
	ids := make([]ld.ListID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, cur.List())
	}
	if err := cur.Done(); err != nil {
		return nil, err
	}
	return ids, nil
}

// BlockSize implements ld.Disk.
func (c *Client) BlockSize(b ld.BlockID) (int, error) {
	resp, err := c.call(wire.OpBlockSize, wire.AppendBlock(nil, b), true)
	if err != nil {
		return 0, err
	}
	cur := wire.NewCursor(resp)
	n := cur.I64()
	if err := cur.Done(); err != nil {
		return 0, err
	}
	return int(n), nil
}

// MaxBlockSize implements ld.Disk; the value came with the handshake.
func (c *Client) MaxBlockSize() int { return int(c.maxBlock.Load()) }

// Shutdown implements ld.Disk. It ends this client's session; it never
// shuts down the server's backing disk, which other sessions share. After
// a successful Shutdown every call returns ld.ErrShutdown, matching the
// local implementations.
func (c *Client) Shutdown(clean bool) error {
	if c.shut.Load() {
		return ld.ErrShutdown
	}
	var cl uint8
	if clean {
		cl = 1
	}
	if err := ok(c.call(wire.OpShutdown, wire.AppendU8(nil, cl), false)); err != nil {
		return err
	}
	c.shut.Store(true)
	c.closeTransport()
	return nil
}

// Close tears down the transport without the remote goodbye. Subsequent
// calls return ld.ErrShutdown.
func (c *Client) Close() error {
	c.shut.Store(true)
	c.closeTransport()
	return nil
}

func (c *Client) closeTransport() {
	c.mu.Lock()
	cn := c.cur
	c.cur = nil
	c.mu.Unlock()
	if cn != nil {
		cn.fail(ld.ErrShutdown)
	}
}
