// Package wire defines probed's client/server protocol: a
// length-prefixed binary framing over a byte stream, a versioned
// handshake, and the encodings of every request and response message.
// docs/server.md is the normative specification; this package is its
// executable form, shared by internal/server and the public client
// package so the two can never drift apart.
//
// Framing. Every message travels as one frame:
//
//	u32 LE length | u8 type | payload
//
// where length counts the type byte plus the payload (so the minimum
// legal length is 1). Frames longer than MaxFrame are a protocol
// error; the peer that reads one closes the connection. All integers
// in the protocol are little-endian, matching the repo's on-disk
// convention.
//
// Versioning. The first frame in each direction is the handshake:
// the client sends Hello carrying the protocol magic and its version,
// the server answers Welcome with its own version and the database's
// grid shape. The major version must match exactly and the minor must
// be at least MinMinor; minor versions are additive (unknown trailing
// payload bytes are ignored).
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Magic is the four-byte protocol identifier opening the handshake.
const Magic = "ZKDQ"

// Protocol version. Major must match between peers; minor only adds
// opcodes, error codes, and fields at the end of existing payloads.
// Both peers refuse a minor below MinMinor at the handshake with
// CodeVersion, so every session speaks the whole protocol: no opcode
// or response form is gated per connection.
//
// Minor 1 added the trailing flags byte on every request (FlagTrace),
// the timing-breakdown array on DONE and the structured STATSKV
// response. Minor 2 added DELETE, the transaction opcodes
// BEGIN/COMMIT/ROLLBACK and the CONFLICT error code. Minor 3 added
// QUERY (spatial SQL text in; a SCHEMA frame, ROWS batches and DONE
// out) and the PARSE/PLAN error codes. Minor 4 added the UNAVAILABLE
// and READONLY error codes of the cluster layer and distributed
// tracing: a u64 trace ID after the flags byte in the request header
// tail (absent decodes as 0 = unassigned; the front door mints one
// when FlagTrace is set without it), and the TRACE response frame
// carrying the request's trace ID plus its span tree in the canonical
// binary encoding (internal/obs codec), which a coordinator parses
// and grafts under its own fan-out spans. Minor 5 removed the strategy
// byte from the RANGE/EXPLAIN payload — the one change that is not
// additive, which is why it raised the floor with it.
const (
	VersionMajor = 1
	VersionMinor = 5
	// MinMinor is the oldest minor either peer accepts from the other.
	MinMinor = 5
)

// MaxFrame caps a frame's length field (type byte + payload). Frames
// above it are rejected before allocation, bounding what a broken or
// hostile peer can make the other side buffer.
const MaxFrame = 1 << 24

// MaxDims caps the dimensionality any message may claim — the grid
// itself allows at most 64 bits total, so 64 dimensions is already
// unreachable; this bound only defends the decoder.
const MaxDims = 64

// Message types. Requests flow client→server, responses
// server→client; Cancel is the one client frame legal while a
// request is in flight.
const (
	MsgHello   = 0x01 // client→server: handshake open
	MsgWelcome = 0x02 // server→client: handshake accept

	MsgRange      = 0x10 // box range search; streams point batches
	MsgNearest    = 0x11 // m-nearest-neighbor query; streams neighbor batches
	MsgJoin       = 0x12 // spatial join of two shipped relations; streams pair batches
	MsgInsert     = 0x13 // insert a batch of points
	MsgCheckpoint = 0x14 // force a durability checkpoint
	MsgExplain    = 0x15 // plan a range query without running it
	MsgStats      = 0x16 // server + database counters snapshot
	MsgCancel     = 0x18 // cancel the in-flight request with this id
	MsgDelete     = 0x19 // delete a batch of points
	MsgBegin      = 0x1A // open a transaction on this session
	MsgCommit     = 0x1B // commit the session's transaction
	MsgRollback   = 0x1C // roll back the session's transaction
	MsgQuery      = 0x1D // spatial SQL statement; streams schema + row batches

	MsgBatch   = 0x20 // one batch of streamed results
	MsgDone    = 0x21 // request finished; carries its QueryStats
	MsgText    = 0x22 // textual response (EXPLAIN plans)
	MsgError   = 0x23 // request failed; carries a typed error code
	MsgStatsKV = 0x24 // structured key/value counter snapshot
	MsgSchema  = 0x25 // a QUERY result's column names and types
	MsgRows    = 0x26 // one batch of typed QUERY result rows
	MsgTrace   = 0x27 // a traced request's trace ID + encoded span tree
)

// Request flag bits, carried as the trailing flags byte of every
// request.
const (
	// FlagTrace asks the server to trace the request: the DONE frame
	// carries the per-phase timing breakdown, and data requests are
	// preceded by a TRACE frame with the server-side span tree.
	FlagTrace = 1 << 0
)

// Error codes carried by MsgError.
const (
	CodeBadRequest   = 1  // malformed or semantically invalid request
	CodeOverloaded   = 2  // admission control rejected the request; retry later
	CodeCanceled     = 3  // the client's Cancel stopped the request
	CodeDeadline     = 4  // the request's own timeout_ms expired
	CodeShuttingDown = 5  // server is draining; no new requests
	CodeInternal     = 6  // unexpected server-side failure
	CodeVersion      = 7  // handshake version mismatch
	CodeConflict     = 8  // COMMIT lost first-committer-wins validation; retry the tx
	CodeParse        = 9  // QUERY text failed to parse (minor >= 3)
	CodePlan         = 10 // QUERY parsed but cannot run against this database (minor >= 3)
	CodeUnavailable  = 11 // a shard the request needs has no reachable node (minor >= 4)
	CodeReadOnly     = 12 // write sent to a read-only replica (minor >= 4)
)

// CodeString names an error code for diagnostics.
func CodeString(code uint8) string {
	switch code {
	case CodeBadRequest:
		return "bad-request"
	case CodeOverloaded:
		return "overloaded"
	case CodeCanceled:
		return "canceled"
	case CodeDeadline:
		return "deadline"
	case CodeShuttingDown:
		return "shutting-down"
	case CodeInternal:
		return "internal"
	case CodeVersion:
		return "version-mismatch"
	case CodeConflict:
		return "conflict"
	case CodeParse:
		return "parse-error"
	case CodePlan:
		return "plan-error"
	case CodeUnavailable:
		return "shard-unavailable"
	case CodeReadOnly:
		return "read-only"
	default:
		return fmt.Sprintf("code-%d", code)
	}
}

// Batch result kinds (the Kind byte of MsgBatch).
const (
	KindPoints    = 0 // Point records: u64 id, k coordinates
	KindPairs     = 1 // Pair records: two u64 object ids
	KindNeighbors = 2 // Neighbor records: point plus f64 distance
)

// Message is what every typed message offers a sender: Append writes
// its payload behind b, so a frame is built in the buffer it is sent
// from. The Encode methods are Append(nil).
type Message interface{ Append(b []byte) []byte }

// BeginFrame appends the header of a frame of the given type to b, its
// length still open; EndFrame closes the frame once the payload has
// been appended behind it.
func BeginFrame(b []byte, msgType uint8) []byte { return append(b, 0, 0, 0, 0, msgType) }

// EndFrame stores the length of the frame begun at b[start:]. A frame
// above MaxFrame is cut from b again and reported.
func EndFrame(b []byte, start int) ([]byte, error) {
	n := len(b) - start - 4
	if n > MaxFrame {
		return b[:start], fmt.Errorf("wire: frame too large (%d bytes)", n)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// AppendFrame appends m to b as one frame.
func AppendFrame[M Message](b []byte, msgType uint8, m M) ([]byte, error) {
	return EndFrame(m.Append(BeginFrame(b, msgType)), len(b))
}

// WriteFrame writes one frame, the length prefix, the type byte and
// the payload, with one Write. It is not safe for concurrent use on one
// writer; callers serialize (the server per session, the client per
// connection).
func WriteFrame(w io.Writer, msgType uint8, payload []byte) error {
	b, err := EndFrame(append(BeginFrame(make([]byte, 0, 5+len(payload)), msgType), payload...), 0)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadFrame reads one frame, returning its type and payload. A length
// of zero or above MaxFrame is a protocol error. io.EOF is returned
// untouched when the stream ends cleanly between frames.
func ReadFrame(r io.Reader) (msgType uint8, payload []byte, err error) {
	var buf []byte
	return ReadFrameInto(r, &buf)
}

// ReadFrameInto is ReadFrame into a buffer the caller keeps: *buf grows
// when a frame needs it, and the payload returned is a slice of it,
// valid until the buffer's next use. Every Decode function copies what
// it returns out of the payload, so a reader decodes and reads on.
func ReadFrameInto(r io.Reader, buf *[]byte) (msgType uint8, payload []byte, err error) {
	b := slices.Grow((*buf)[:0], 5)[:5]
	*buf = b
	if _, err := io.ReadFull(r, b); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(b)
	if n == 0 || n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: bad frame length %d", n)
	}
	msgType = b[4]
	b = slices.Grow(b[:0], int(n-1))[:n-1]
	*buf = b
	if _, err := io.ReadFull(r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // only a close between frames reads as io.EOF
		}
		return 0, nil, err
	}
	return msgType, b, nil
}

// enc is an append-style encoder. Encoding cannot fail; all methods
// grow the buffer.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) coords(vs []uint32) {
	for _, v := range vs {
		e.u32(v)
	}
}
func (e *enc) u64s(vs []uint64) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.u64(v)
	}
}

// putBytes appends a length-prefixed byte string.
func putBytes[T []byte | string](e *enc, p T) {
	e.u32(uint32(len(p)))
	e.b = append(e.b, p...)
}

// dec is a cursor-style decoder with truncation checks. Methods
// return an error on short input; decode functions propagate it.
type dec struct {
	b   []byte
	off int
	// arena is what coords cuts coordinate vectors from; reserve sizes
	// it for a whole message once count has accepted the record count.
	arena []uint32
}

func (d *dec) remaining() int { return len(d.b) - d.off }

func (d *dec) need(n int) error {
	if d.remaining() < n {
		return fmt.Errorf("wire: truncated message (need %d bytes, have %d)", n, d.remaining())
	}
	return nil
}

func (d *dec) u8() (uint8, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.b[d.off]
	d.off++
	return v, nil
}

func (d *dec) u32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v, nil
}

func (d *dec) u64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}

func (d *dec) bytes() ([]byte, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	if err := d.need(int(n)); err != nil {
		return nil, err
	}
	p := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return p, nil
}

// count validates a claimed record count against the bytes actually
// present: each record needs at least min bytes, so a count that
// cannot fit is rejected before any allocation sized by it.
func (d *dec) count(min int) (int, error) {
	n, err := d.u32()
	if err != nil {
		return 0, err
	}
	if min > 0 && int(n) > d.remaining()/min {
		return 0, fmt.Errorf("wire: implausible count %d for %d remaining bytes", n, d.remaining())
	}
	return int(n), nil
}

func (d *dec) dims() (int, error) {
	k, err := d.u32()
	if err != nil {
		return 0, err
	}
	if k == 0 || k > MaxDims {
		return 0, fmt.Errorf("wire: bad dimension count %d", k)
	}
	return int(k), nil
}

// u64s decodes a counted array into dst's backing array.
func (d *dec) u64s(dst []uint64) ([]uint64, error) {
	n, err := d.count(8)
	if err != nil {
		return nil, err
	}
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		if dst[i], err = d.u64(); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// reserve makes the arena hold n coordinates. n derives from a count
// that count has checked against the bytes present, and from k <=
// MaxDims, so a hostile length cannot size it.
func (d *dec) reserve(n int) { d.arena = make([]uint32, n) }

// coords decodes k coordinates into the front of the arena (a lone
// vector, as in WELCOME or NEAREST, is its own arena) and cuts them off
// with their capacity clipped, so an append to the vector returned
// reallocates instead of reaching the next one.
func (d *dec) coords(k int) ([]uint32, error) {
	if err := d.need(4 * k); err != nil {
		return nil, err
	}
	if len(d.arena) < k {
		d.reserve(k)
	}
	out := d.arena[:k:k]
	d.arena = d.arena[k:]
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(d.b[d.off:])
		d.off += 4
	}
	return out, nil
}
