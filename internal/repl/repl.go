// Package repl implements physical WAL shipping between a primary
// probed and its read replicas (docs/cluster.md).
//
// The unit of replication is the disk.Segment: the compacted record
// batch a checkpoint applied to the primary's page file. The primary
// observes every checkpoint through probe.DB.SetWALSegmentHook, keeps
// a bounded in-memory history of encoded segments, and streams them to
// subscribed replicas; a replica joining with no usable state (or too
// far behind the retained history) first receives a full page-file
// snapshot (probe.DB.StoreImage) and then the live stream.
//
// A replica maintains two page files in ping-pong: segments apply to
// the idle file, a fresh probe.DB opens over it, the serving database
// is swapped atomically (server.SwapDB), and the previous database is
// closed — which blocks until its in-flight reads finish, making the
// close the quiesce point. Reads on a replica therefore always see a
// complete checkpoint state, lagging the primary by the segments not
// yet promoted.
//
// Lag is exported as gauges in the registry the replica is given
// (conventionally the query server's, so "repl.caught_up" surfaces as
// "server.repl.caught_up" through STATS — exactly the key the router's
// health prober reads) and gates /readyz via Replica.ReadyErr.
//
// The stream runs on its own TCP connection with the wire package's
// length-prefixed frames but its own message set; it is not part of
// the query protocol.
package repl

import (
	"encoding/binary"
	"fmt"
	"io"

	"probe/internal/wire"
)

// Protocol frames. A session: replica sends hello; primary answers
// with either a snapshot (snapBegin, chunk*, snapEnd) or nothing, then
// streams segment and heartbeat frames until either side closes.
const (
	msgHello     = 0x01 // replica → primary: [magic "ZKDR"][version u8][haveLSN u64]
	msgSnapBegin = 0x02 // primary → replica: [ckpt LSN u64][total bytes u64]
	msgSnapChunk = 0x03 // primary → replica: raw image bytes
	msgSnapEnd   = 0x04 // primary → replica: empty
	msgSegment   = 0x05 // primary → replica: disk.EncodeSegment bytes, the log's batch
	msgHeartbeat = 0x06 // primary → replica: [latest LSN u64]
	msgError     = 0x7F // either → either: utf-8 text, then close
)

const (
	helloMagic = "ZKDR"
	// replVersion is 2 since a segment is the log's own batch bytes.
	replVersion = 2
	helloLen    = 4 + 1 + 8
	// snapChunkSize keeps snapshot frames comfortably under
	// wire.MaxFrame.
	snapChunkSize = 4 << 20
)

func encodeHello(haveLSN uint64) []byte {
	b := make([]byte, 0, helloLen)
	b = append(b, helloMagic...)
	b = append(b, replVersion)
	return binary.LittleEndian.AppendUint64(b, haveLSN)
}

func decodeHello(p []byte) (uint64, error) {
	if len(p) != helloLen || string(p[:4]) != helloMagic {
		return 0, fmt.Errorf("repl: malformed hello")
	}
	if p[4] != replVersion {
		return 0, fmt.Errorf("repl: protocol version %d, want %d", p[4], replVersion)
	}
	return binary.LittleEndian.Uint64(p[5:]), nil
}

func encodeU64Pair(a, b uint64) []byte {
	buf := make([]byte, 0, 16)
	buf = binary.LittleEndian.AppendUint64(buf, a)
	return binary.LittleEndian.AppendUint64(buf, b)
}

func decodeU64Pair(p []byte) (a, b uint64, err error) {
	if len(p) != 16 {
		return 0, 0, fmt.Errorf("repl: frame has %d bytes, want 16", len(p))
	}
	return binary.LittleEndian.Uint64(p[:8]), binary.LittleEndian.Uint64(p[8:]), nil
}

func encodeU64(v uint64) []byte {
	return binary.LittleEndian.AppendUint64(make([]byte, 0, 8), v)
}

func decodeU64(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("repl: frame has %d bytes, want 8", len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}

// sendError best-effort writes a typed error frame before the caller
// closes the connection.
func sendError(w io.Writer, msg string) {
	wire.WriteFrame(w, msgError, []byte(msg))
}
