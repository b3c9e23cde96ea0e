// Batched reads over the wire. One OpReadMulti request fetches up to
// wire.MaxReadBatch blocks in a single round trip; the server streams the
// reply back as one or more frames sized to the negotiated frame budget.
// A batch is idempotent, so a connection lost mid-batch retries the whole
// batch on a fresh connection, like any other idempotent operation.

package client

import (
	"fmt"
	"time"

	"repro/internal/ld"
	"repro/internal/netld/wire"
)

var _ ld.MultiReadDisk = (*Client)(nil)

// ReadBlocks implements ld.MultiReadDisk: it reads bs[i] into bufs[i] in
// batches of wire.MaxReadBatch blocks per round trip, reporting each
// block's outcome in results[i] exactly as the corresponding Read call
// would have. Every server of wire version 2 speaks OpReadMulti; an older
// one is refused at the handshake.
func (c *Client) ReadBlocks(bs []ld.BlockID, bufs [][]byte) ([]ld.BlockRead, error) {
	if len(bs) != len(bufs) {
		return nil, fmt.Errorf("netld: ReadBlocks: %d blocks but %d buffers", len(bs), len(bufs))
	}
	results := make([]ld.BlockRead, len(bs))
	if len(bs) == 0 {
		return results, nil
	}
	for start := 0; start < len(bs); start += wire.MaxReadBatch {
		end := start + wire.MaxReadBatch
		if end > len(bs) {
			end = len(bs)
		}
		if err := c.callReadMulti(bs[start:end], bufs[start:end], results[start:end]); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// callReadMulti performs one wire batch, applying the idempotent retry
// policy: a transport failure at any point — even after some reply chunks
// arrived — retries the whole batch on a fresh connection.
func (c *Client) callReadMulti(bs []ld.BlockID, bufs [][]byte, results []ld.BlockRead) error {
	if c.shut.Load() {
		return ld.ErrShutdown
	}
	bufLen := 0
	for _, b := range bufs {
		if len(b) > bufLen {
			bufLen = len(b)
		}
	}
	// As in Read: no block exceeds the disk's max block size, so larger
	// buffers never receive more bytes and only inflate the frame budget.
	if max := c.MaxBlockSize(); bufLen > max {
		bufLen = max
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
			lastErr = err
			continue
		}
		id := c.nextID.Add(1)
		req := wire.AppendRequestHeader(nil, id, wire.OpReadMulti)
		req = wire.AppendReadMultiReq(req, cn.maxFrame, bufLen, bs)
		resps, err := c.roundTripMulti(cn, id, req, len(bs))
		if err == nil {
			return c.decodeReadMulti(resps, bufs, results)
		}
		lastErr = err
	}
	return fmt.Errorf("netld: %s: %w", wire.OpName(wire.OpReadMulti), lastErr)
}

// roundTripMulti sends one request and collects response frames until the
// final (non-CodePartial) one. count bounds the legal frame total: every
// chunk carries at least one entry, so a batch of count blocks arrives in
// at most count frames.
func (c *Client) roundTripMulti(cn *conn, id uint64, req []byte, count int) ([]response, error) {
	ch, err := cn.register(id, count)
	if err != nil {
		c.dropConn(cn)
		return nil, &transportError{err}
	}
	cn.wmu.Lock()
	err = wire.WriteFrame(cn.nc, req)
	cn.wmu.Unlock()
	if err != nil {
		cn.unregister(id)
		c.dropConn(cn)
		return nil, &transportError{err}
	}
	timer := time.NewTimer(c.o.OpTimeout)
	defer timer.Stop()
	var resps []response
	for {
		select {
		case resp, ok := <-ch:
			if !ok {
				c.dropConn(cn)
				return nil, &transportError{fmt.Errorf("%w while awaiting response", ErrConnLost)}
			}
			resps = append(resps, resp)
			if resp.status != wire.CodePartial {
				return resps, nil
			}
			if len(resps) >= count {
				// More continuations than entries is a server bug; the
				// read loop also guards this via the channel capacity.
				c.dropConn(cn)
				return nil, &transportError{fmt.Errorf("%w: response overrun", wire.ErrProto)}
			}
			// Progress arrived; the timeout bounds the gap between
			// frames, not the whole transfer.
			if !timer.Stop() {
				<-timer.C
			}
			timer.Reset(c.o.OpTimeout)
		case <-timer.C:
			cn.unregister(id)
			// The stream can no longer be trusted: a late frame for this
			// id would desynchronize matching. Tear the connection down.
			c.dropConn(cn)
			return nil, &transportError{fmt.Errorf("netld: response timeout after %v", c.o.OpTimeout)}
		}
	}
}

// decodeReadMulti turns a chunk sequence into per-entry results. The final
// frame's status is the whole-batch verdict; entry statuses reconstruct
// each block's individual error via the usual code-to-sentinel mapping.
func (c *Client) decodeReadMulti(resps []response, bufs [][]byte, results []ld.BlockRead) error {
	last := resps[len(resps)-1]
	if last.status != wire.StatusOK {
		return wire.ErrFor(last.status, string(last.body))
	}
	idx := 0
	for _, r := range resps {
		first, entries, err := wire.ParseReadMultiChunk(r.body)
		if err != nil {
			return err
		}
		if first != idx {
			return fmt.Errorf("%w: chunk starts at entry %d, want %d", wire.ErrProto, first, idx)
		}
		if idx+len(entries) > len(results) {
			return fmt.Errorf("%w: %d batch entries for %d blocks", wire.ErrProto, idx+len(entries), len(results))
		}
		for _, e := range entries {
			if e.Status == wire.StatusOK {
				results[idx] = ld.BlockRead{N: copy(bufs[idx], e.Data)}
			} else {
				results[idx] = ld.BlockRead{Err: wire.ErrFor(e.Status, "")}
			}
			idx++
		}
	}
	if idx != len(results) {
		return fmt.Errorf("%w: %d batch entries for %d blocks", wire.ErrProto, idx, len(results))
	}
	return nil
}

// ListBlockData pairs one block of a list with its batched-read outcome.
type ListBlockData struct {
	Block ld.BlockID
	Data  []byte // the block's bytes; nil when Err != nil
	Err   error  // per-block error (ld.ErrBadBlock, ld.ErrCorrupt, ...)
}

// ReadListBlocks fetches a whole list's membership and contents: one
// ListBlocks round trip plus one batched read per wire.MaxReadBatch
// blocks — two round trips total for any list that fits one batch,
// against 1+N for the per-block loop it replaces.
func (c *Client) ReadListBlocks(lid ld.ListID) ([]ListBlockData, error) {
	ids, err := c.ListBlocks(lid)
	if err != nil {
		return nil, err
	}
	out := make([]ListBlockData, len(ids))
	if len(ids) == 0 {
		return out, nil
	}
	// One reusable group of buffers bounds memory at groupSize blocks
	// regardless of list length; results are copied out exact-sized.
	const groupSize = 1024
	maxBlock := c.MaxBlockSize()
	n := len(ids)
	if n > groupSize {
		n = groupSize
	}
	backing := make([]byte, n*maxBlock)
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = backing[i*maxBlock : (i+1)*maxBlock]
	}
	for g := 0; g < len(ids); g += groupSize {
		end := g + groupSize
		if end > len(ids) {
			end = len(ids)
		}
		group := ids[g:end]
		res, err := c.ReadBlocks(group, bufs[:len(group)])
		if err != nil {
			return nil, err
		}
		for i, b := range group {
			e := ListBlockData{Block: b}
			if res[i].Err != nil {
				e.Err = res[i].Err
			} else {
				e.Data = append([]byte(nil), bufs[i][:res[i].N]...)
			}
			out[g+i] = e
		}
	}
	return out, nil
}
