// Package wire defines the netld wire protocol: length-prefixed frames, a
// typed opcode per ld.Disk method, error codes that round-trip the sentinel
// errors of internal/ld, and the version handshake exchanged when a
// connection opens.
//
// Framing. Every message on the wire is a frame: a 4-byte little-endian
// payload length followed by the payload. Request payloads are
//
//	uint64 request id | uint8 opcode | opcode-specific body
//
// and response payloads are
//
//	uint64 request id | uint8 status | body (status OK) or message (error)
//
// Request ids are chosen by the client and echoed by the server; they let a
// pipelining client match responses to outstanding requests. All integers
// are little-endian, matching the repository's on-disk encodings.
//
// Handshake. Immediately after connecting, the client sends a hello frame
// ("NLDC", uint16 version) and the server answers ("NLDS", uint16 version,
// uint32 max block size). A server that does not speak the client's version
// answers with version 0 and an explanatory message, then closes. Carrying
// the backing disk's maximum block size in the hello reply lets the remote
// client answer MaxBlockSize — which the ld.Disk interface makes
// synchronous and infallible — without a round trip.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/ld"
)

// Version is the protocol version this package speaks. Version 2 added
// OpReadMulti; a version-1 peer is refused at the handshake, so a client
// never has to discover the opcode's absence batch by batch.
const Version uint16 = 2

// Hello magics. The client and server magics differ so that a peer talking
// to itself (or to the wrong end) fails loudly instead of deadlocking.
const (
	ClientMagic = "NLDC"
	ServerMagic = "NLDS"
)

// DefaultMaxFrame bounds the size of a single frame unless the caller
// knows better (e.g. from the backing disk's maximum block size). It
// protects both ends from allocating absurd buffers on a corrupt or
// malicious length prefix.
const DefaultMaxFrame = 16 << 20

// Opcodes, one per ld.Disk method. MaxBlockSize has no opcode: the value
// is carried in the handshake. Shutdown is a session goodbye — it never
// shuts down the server's backing disk, which other sessions share.
const (
	OpRead uint8 = iota + 1
	OpWrite
	OpNewBlock
	OpDeleteBlock
	OpNewList
	OpDeleteList
	OpMoveBlocks
	OpMoveList
	OpFlushList
	OpBeginARU
	OpEndARU
	OpFlush
	OpReserve
	OpCancelReservation
	OpSwapContents
	OpListBlocks
	OpListIndex
	OpLists
	OpBlockSize
	OpShutdown
	OpReadMulti
	opMax
)

var opNames = [opMax]string{
	OpRead:              "Read",
	OpWrite:             "Write",
	OpNewBlock:          "NewBlock",
	OpDeleteBlock:       "DeleteBlock",
	OpNewList:           "NewList",
	OpDeleteList:        "DeleteList",
	OpMoveBlocks:        "MoveBlocks",
	OpMoveList:          "MoveList",
	OpFlushList:         "FlushList",
	OpBeginARU:          "BeginARU",
	OpEndARU:            "EndARU",
	OpFlush:             "Flush",
	OpReserve:           "Reserve",
	OpCancelReservation: "CancelReservation",
	OpSwapContents:      "SwapContents",
	OpListBlocks:        "ListBlocks",
	OpListIndex:         "ListIndex",
	OpLists:             "Lists",
	OpBlockSize:         "BlockSize",
	OpShutdown:          "Shutdown",
	OpReadMulti:         "ReadMulti",
}

// OpName returns the method name for an opcode, or "op<N>" if unknown.
func OpName(op uint8) string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op%d", op)
}

// NumOps is the number of defined opcodes plus one; opcode values are
// always < NumOps. Useful for indexing per-opcode tables.
const NumOps = int(opMax)

// Status codes. StatusOK is zero; every other code names either one of the
// ld sentinel errors (so errors.Is works across the wire) or a
// netld-specific condition.
const (
	StatusOK uint8 = iota
	CodeNoSpace
	CodeBadBlock
	CodeBadList
	CodeNotInList
	CodeTooLarge
	CodeARUOpen
	CodeNoARU
	CodeShutdown
	CodeListNotEmpty
	CodeBusy     // another session holds the atomic recovery unit
	CodeProto    // protocol violation (bad opcode, short body, ...)
	CodeInternal // unclassified server-side error
	CodeCorrupt  // data failed integrity verification (ld.ErrCorrupt)
	CodePartial  // non-final chunk of a multi-frame response; more follow
)

// Errors specific to the netld protocol layer.
var (
	// ErrBusy is returned to a session that issues a mutating command
	// while a different session holds the (single, per paper §2.2)
	// atomic recovery unit.
	ErrBusy = errors.New("netld: atomic recovery unit held by another session")
	// ErrProto indicates a malformed or unexpected message.
	ErrProto = errors.New("netld: protocol error")
	// ErrVersion indicates the peers do not share a protocol version.
	ErrVersion = errors.New("netld: protocol version mismatch")
)

var codeToErr = map[uint8]error{
	CodeNoSpace:      ld.ErrNoSpace,
	CodeBadBlock:     ld.ErrBadBlock,
	CodeBadList:      ld.ErrBadList,
	CodeNotInList:    ld.ErrNotInList,
	CodeTooLarge:     ld.ErrTooLarge,
	CodeARUOpen:      ld.ErrARUOpen,
	CodeNoARU:        ld.ErrNoARU,
	CodeShutdown:     ld.ErrShutdown,
	CodeListNotEmpty: ld.ErrListNotEmpty,
	CodeBusy:         ErrBusy,
	CodeProto:        ErrProto,
	CodeCorrupt:      ld.ErrCorrupt,
}

// CodeFor classifies an error as a wire status code. Unrecognized errors
// map to CodeInternal; their message still crosses the wire.
func CodeFor(err error) uint8 {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, ld.ErrNoSpace):
		return CodeNoSpace
	case errors.Is(err, ld.ErrBadBlock):
		return CodeBadBlock
	case errors.Is(err, ld.ErrBadList):
		return CodeBadList
	case errors.Is(err, ld.ErrNotInList):
		return CodeNotInList
	case errors.Is(err, ld.ErrTooLarge):
		return CodeTooLarge
	case errors.Is(err, ld.ErrARUOpen):
		return CodeARUOpen
	case errors.Is(err, ld.ErrNoARU):
		return CodeNoARU
	case errors.Is(err, ld.ErrShutdown):
		return CodeShutdown
	case errors.Is(err, ld.ErrListNotEmpty):
		return CodeListNotEmpty
	case errors.Is(err, ld.ErrCorrupt):
		return CodeCorrupt
	case errors.Is(err, ErrBusy):
		return CodeBusy
	case errors.Is(err, ErrProto):
		return CodeProto
	default:
		return CodeInternal
	}
}

// wireError preserves a server-side message while unwrapping to the
// sentinel the status code names, so errors.Is holds on the client.
type wireError struct {
	msg  string
	base error
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.base }

// ErrFor reconstructs a client-side error from a status code and the
// server's message. The result unwraps to the matching sentinel error.
func ErrFor(code uint8, msg string) error {
	if code == StatusOK {
		return nil
	}
	base, ok := codeToErr[code]
	if !ok {
		if msg == "" {
			return fmt.Errorf("netld: server error (code %d)", code)
		}
		return fmt.Errorf("netld: server error: %s", msg)
	}
	if msg == "" || msg == base.Error() {
		return base
	}
	return &wireError{msg: msg, base: base}
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, rejecting payloads larger than max (or
// DefaultMaxFrame if max <= 0).
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if int64(n) > int64(max) {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds limit %d", ErrProto, n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// AppendHello builds the client hello payload.
func AppendHello(buf []byte) []byte {
	buf = append(buf, ClientMagic...)
	return binary.LittleEndian.AppendUint16(buf, Version)
}

// ParseHello validates a client hello and returns the client's version.
func ParseHello(p []byte) (uint16, error) {
	if len(p) != len(ClientMagic)+2 || string(p[:4]) != ClientMagic {
		return 0, fmt.Errorf("%w: bad hello", ErrProto)
	}
	return binary.LittleEndian.Uint16(p[4:]), nil
}

// AppendHelloReply builds the server hello reply. A version of 0 means
// the handshake is rejected; msg then explains why.
func AppendHelloReply(buf []byte, version uint16, maxBlockSize int, msg string) []byte {
	buf = append(buf, ServerMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(maxBlockSize))
	return append(buf, msg...)
}

// ParseHelloReply validates a server hello reply and returns the
// negotiated version and the backing disk's maximum block size.
func ParseHelloReply(p []byte) (version uint16, maxBlockSize int, err error) {
	if len(p) < len(ServerMagic)+6 || string(p[:4]) != ServerMagic {
		return 0, 0, fmt.Errorf("%w: bad hello reply", ErrProto)
	}
	version = binary.LittleEndian.Uint16(p[4:])
	maxBlockSize = int(binary.LittleEndian.Uint32(p[6:]))
	if version == 0 {
		msg := string(p[10:])
		if msg == "" {
			msg = "server rejected handshake"
		}
		return 0, 0, fmt.Errorf("%w: %s", ErrVersion, msg)
	}
	return version, maxBlockSize, nil
}

// AppendRequestHeader appends the request id and opcode.
func AppendRequestHeader(buf []byte, id uint64, op uint8) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, id)
	return append(buf, op)
}

// ParseRequestHeader splits a request payload into id, opcode, and body.
func ParseRequestHeader(p []byte) (id uint64, op uint8, body []byte, err error) {
	if len(p) < 9 {
		return 0, 0, nil, fmt.Errorf("%w: short request", ErrProto)
	}
	return binary.LittleEndian.Uint64(p), p[8], p[9:], nil
}

// AppendResponseHeader appends the request id and status code.
func AppendResponseHeader(buf []byte, id uint64, status uint8) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, id)
	return append(buf, status)
}

// ParseResponseHeader splits a response payload into id, status, and body.
func ParseResponseHeader(p []byte) (id uint64, status uint8, body []byte, err error) {
	if len(p) < 9 {
		return 0, 0, nil, fmt.Errorf("%w: short response", ErrProto)
	}
	return binary.LittleEndian.Uint64(p), p[8], p[9:], nil
}

// Cursor decodes the fixed-width fields of a body. The first decode error
// sticks; callers check Err (or use Done) once at the end rather than
// after every field.
type Cursor struct {
	buf []byte
	off int
	err error
}

// NewCursor returns a cursor over body.
func NewCursor(body []byte) *Cursor { return &Cursor{buf: body} }

func (c *Cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if c.off+n > len(c.buf) {
		c.err = fmt.Errorf("%w: truncated body", ErrProto)
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// U8 decodes one byte.
func (c *Cursor) U8() uint8 {
	b := c.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 decodes a little-endian uint32.
func (c *Cursor) U32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// I64 decodes a little-endian two's-complement int64.
func (c *Cursor) I64() int64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// Block decodes a block id.
func (c *Cursor) Block() ld.BlockID { return ld.BlockID(c.U32()) }

// List decodes a list id.
func (c *Cursor) List() ld.ListID { return ld.ListID(c.U32()) }

// Bytes decodes a u32 length followed by that many bytes.
func (c *Cursor) Bytes() []byte {
	n := c.U32()
	return c.take(int(n))
}

// Rest returns all remaining bytes.
func (c *Cursor) Rest() []byte {
	b := c.buf[c.off:]
	c.off = len(c.buf)
	return b
}

// Err reports the first decode error, if any.
func (c *Cursor) Err() error { return c.err }

// Done reports an error if decoding failed or left trailing bytes.
func (c *Cursor) Done() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrProto, len(c.buf)-c.off)
	}
	return nil
}

// Append helpers for body fields, mirroring the Cursor decoders.

// AppendU8 appends one byte.
func AppendU8(buf []byte, v uint8) []byte { return append(buf, v) }

// AppendU32 appends a little-endian uint32.
func AppendU32(buf []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(buf, v) }

// AppendI64 appends a little-endian two's-complement int64.
func AppendI64(buf []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(buf, uint64(v)) }

// AppendBlock appends a block id.
func AppendBlock(buf []byte, b ld.BlockID) []byte { return AppendU32(buf, uint32(b)) }

// AppendList appends a list id.
func AppendList(buf []byte, l ld.ListID) []byte { return AppendU32(buf, uint32(l)) }

// AppendBytes appends a u32 length prefix and the bytes.
func AppendBytes(buf, p []byte) []byte {
	buf = AppendU32(buf, uint32(len(p)))
	return append(buf, p...)
}

// HintsByte packs ListHints into one byte.
func HintsByte(h ld.ListHints) uint8 {
	var v uint8
	if h.Cluster {
		v |= 1
	}
	if h.Compress {
		v |= 2
	}
	if h.ClusterWithPred {
		v |= 4
	}
	return v
}

// HintsFromByte unpacks ListHints.
func HintsFromByte(v uint8) ld.ListHints {
	return ld.ListHints{
		Cluster:         v&1 != 0,
		Compress:        v&2 != 0,
		ClusterWithPred: v&4 != 0,
	}
}
