package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"probe/internal/geom"
	"probe/internal/obs"
)

func f64bits(f float64) uint64     { return math.Float64bits(f) }
func f64frombits(b uint64) float64 { return math.Float64frombits(b) }

// This file defines the typed messages and their payload codecs. Each
// message has an Append method writing its payload behind a buffer
// (framing is AppendFrame's job; Encode is Append(nil)) and a Decode*
// function parsing one. Decoders tolerate trailing bytes they do not
// understand — that is how a newer minor version adds fields — and
// copy everything they return out of the payload: the coordinates of a
// message come out of one arena sized after its record count has been
// checked, each vector cut with its capacity clipped so that appending
// to one cannot reach the next.

// Point is a wire-level indexed point: an id plus grid coordinates. It
// is the library's point type, so neither end converts a batch.
type Point = geom.Point

// Neighbor is a wire-level nearest-neighbor result: the point and its
// distance under the request's metric.
type Neighbor struct {
	Point
	Dist float64
}

// JoinItem is one object of a shipped join relation: an id and its
// bounding box, decomposed server-side.
type JoinItem struct {
	ID     uint64
	Lo, Hi []uint32
}

// Hello opens the handshake: magic, then the client's version.
type Hello struct {
	Major, Minor uint8
}

func (m Hello) Encode() []byte { return m.Append(nil) }

func (m Hello) Append(b []byte) []byte {
	return append(append(b, Magic...), m.Major, m.Minor)
}

func DecodeHello(p []byte) (Hello, error) {
	d := dec{b: p}
	if err := d.need(6); err != nil {
		return Hello{}, err
	}
	if string(p[:4]) != Magic {
		return Hello{}, fmt.Errorf("wire: bad magic %q", p[:4])
	}
	d.off = 4
	maj, _ := d.u8()
	min, _ := d.u8()
	return Hello{Major: maj, Minor: min}, nil
}

// Welcome accepts the handshake: magic, the server's version, and the
// grid shape (bits per dimension) of the database being served.
type Welcome struct {
	Major, Minor uint8
	Bits         []uint32
}

func (m Welcome) Encode() []byte { return m.Append(nil) }

func (m Welcome) Append(b []byte) []byte {
	e := enc{Hello{m.Major, m.Minor}.Append(b)}
	e.u32(uint32(len(m.Bits)))
	e.coords(m.Bits)
	return e.b
}

func DecodeWelcome(p []byte) (Welcome, error) {
	h, err := DecodeHello(p)
	if err != nil {
		return Welcome{}, err
	}
	d := dec{b: p, off: 6}
	k, err := d.dims()
	if err != nil {
		return Welcome{}, err
	}
	bits, err := d.coords(k)
	if err != nil {
		return Welcome{}, err
	}
	return Welcome{Major: h.Major, Minor: h.Minor, Bits: bits}, nil
}

// Header is the prefix every request shares: the client-chosen
// request id (echoed on every response frame) and an optional
// timeout in milliseconds (0 = none), which the server turns into a
// context deadline.
//
// Flags (the Flag* bits) is logically part of the header but travels
// as the *final* byte of the request payload — minor version 1 added
// it, and the additive-only promise permits appending, never
// inserting. A payload without the byte decodes as Flags == 0.
//
// Trace (minor 4) extends the same tail: a u64 trace ID after the
// flags byte, identifying the request across every node it touches
// (docs/observability.md). Zero means unassigned — a front door
// receiving a traced request with Trace == 0 mints an ID; a
// coordinator fanning out propagates its ID unchanged. A payload
// ending at the flags byte (a 1.1–1.3 peer) decodes as Trace == 0.
type Header struct {
	ID        uint32
	TimeoutMS uint32
	Flags     uint8
	Trace     uint64
}

func (h Header) encodeTo(e *enc) {
	e.u32(h.ID)
	e.u32(h.TimeoutMS)
}

// encodeTail appends the additive header tail: the minor-1 flags byte,
// then the minor-4 trace ID. Every request's Append calls it last.
func (h Header) encodeTail(e *enc) {
	e.u8(h.Flags)
	e.u64(h.Trace)
}

// decodeTail reads the optional trailing header fields; absent fields
// (an older peer) decode as zero. Every request decoder calls it after
// its fixed fields.
func (h *Header) decodeTail(d *dec) {
	if d.remaining() >= 1 {
		h.Flags, _ = d.u8()
	}
	if d.remaining() >= 8 {
		h.Trace, _ = d.u64()
	}
}

func decodeHeader(d *dec) (Header, error) {
	id, err := d.u32()
	if err != nil {
		return Header{}, err
	}
	tmo, err := d.u32()
	if err != nil {
		return Header{}, err
	}
	return Header{ID: id, TimeoutMS: tmo}, nil
}

// RangeReq asks for every point inside the box. The same payload
// shape serves MsgExplain.
type RangeReq struct {
	Header
	Lo, Hi []uint32
}

func (m RangeReq) Encode() []byte { return m.Append(nil) }

func (m RangeReq) Append(b []byte) []byte {
	e := enc{b}
	m.Header.encodeTo(&e)
	e.u32(uint32(len(m.Lo)))
	e.coords(m.Lo)
	e.coords(m.Hi)
	m.Header.encodeTail(&e)
	return e.b
}

func DecodeRangeReq(p []byte) (RangeReq, error) {
	d := dec{b: p}
	h, err := decodeHeader(&d)
	if err != nil {
		return RangeReq{}, err
	}
	k, err := d.dims()
	if err != nil {
		return RangeReq{}, err
	}
	d.reserve(2 * k)
	lo, err := d.coords(k)
	if err != nil {
		return RangeReq{}, err
	}
	hi, err := d.coords(k)
	if err != nil {
		return RangeReq{}, err
	}
	h.decodeTail(&d)
	return RangeReq{Header: h, Lo: lo, Hi: hi}, nil
}

// NearestReq asks for the M points nearest Q under Metric
// (0 = Chebyshev, 1 = Euclidean).
type NearestReq struct {
	Header
	Metric uint8
	M      uint32
	Q      []uint32
}

func (m NearestReq) Encode() []byte { return m.Append(nil) }

func (m NearestReq) Append(b []byte) []byte {
	e := enc{b}
	m.Header.encodeTo(&e)
	e.u8(m.Metric)
	e.u32(m.M)
	e.u32(uint32(len(m.Q)))
	e.coords(m.Q)
	m.Header.encodeTail(&e)
	return e.b
}

func DecodeNearestReq(p []byte) (NearestReq, error) {
	d := dec{b: p}
	h, err := decodeHeader(&d)
	if err != nil {
		return NearestReq{}, err
	}
	metric, err := d.u8()
	if err != nil {
		return NearestReq{}, err
	}
	mm, err := d.u32()
	if err != nil {
		return NearestReq{}, err
	}
	k, err := d.dims()
	if err != nil {
		return NearestReq{}, err
	}
	q, err := d.coords(k)
	if err != nil {
		return NearestReq{}, err
	}
	h.decodeTail(&d)
	return NearestReq{Header: h, Metric: metric, M: mm, Q: q}, nil
}

// AppendPoint appends one point record, u64 id then the coordinates:
// the record of INSERT, DELETE and a BATCH of KindPoints.
func AppendPoint(b []byte, p Point) []byte {
	e := enc{binary.LittleEndian.AppendUint64(b, p.ID)}
	e.coords(p.Coords)
	return e.b
}

// appendPoints and decodePoints are the one codec of a counted run of
// point records.
func appendPoints(e *enc, pts []Point) {
	e.u32(uint32(len(pts)))
	for _, p := range pts {
		e.b = AppendPoint(e.b, p)
	}
}

func decodePoints(d *dec, k int) ([]Point, error) {
	n, err := d.count(8 + 4*k)
	if err != nil {
		return nil, err
	}
	pts := make([]Point, n)
	d.reserve(n * k)
	for i := range pts {
		if pts[i].ID, err = d.u64(); err != nil {
			return nil, err
		}
		if pts[i].Coords, err = d.coords(k); err != nil {
			return nil, err
		}
	}
	return pts, nil
}

// InsertReq ships a batch of points to insert.
type InsertReq struct {
	Header
	Dims   uint32
	Points []Point
}

// DeleteReq ships a batch of points to delete (minor 2): an InsertReq
// under MsgDelete. The DONE response reports the number actually
// removed in StatResults (points already absent are not an error).
type DeleteReq = InsertReq

func (m InsertReq) Encode() []byte { return m.Append(nil) }

func (m InsertReq) Append(b []byte) []byte {
	e := enc{b}
	m.Header.encodeTo(&e)
	e.u32(m.Dims)
	appendPoints(&e, m.Points)
	m.Header.encodeTail(&e)
	return e.b
}

func DecodeDeleteReq(p []byte) (DeleteReq, error) { return DecodeInsertReq(p) }

func DecodeInsertReq(p []byte) (InsertReq, error) {
	d := dec{b: p}
	h, err := decodeHeader(&d)
	if err != nil {
		return InsertReq{}, err
	}
	k, err := d.dims()
	if err != nil {
		return InsertReq{}, err
	}
	pts, err := decodePoints(&d, k)
	if err != nil {
		return InsertReq{}, err
	}
	h.decodeTail(&d)
	return InsertReq{Header: h, Dims: uint32(k), Points: pts}, nil
}

// JoinReq ships two object relations (as bounding boxes) for a
// spatial join. Workers is decoded and ignored: it once requested a
// parallel join, and stays so the frame layout and the protocol minor
// do not change.
type JoinReq struct {
	Header
	Workers uint32
	Dims    uint32
	A, B    []JoinItem
}

func encodeRelation(e *enc, items []JoinItem) {
	e.u32(uint32(len(items)))
	for _, it := range items {
		e.u64(it.ID)
		e.coords(it.Lo)
		e.coords(it.Hi)
	}
}

func decodeRelation(d *dec, k int) ([]JoinItem, error) {
	n, err := d.count(8 + 8*k)
	if err != nil {
		return nil, err
	}
	items := make([]JoinItem, n)
	d.reserve(2 * n * k)
	for i := range items {
		it := &items[i]
		if it.ID, err = d.u64(); err != nil {
			return nil, err
		}
		if it.Lo, err = d.coords(k); err != nil {
			return nil, err
		}
		if it.Hi, err = d.coords(k); err != nil {
			return nil, err
		}
	}
	return items, nil
}

func (m JoinReq) Encode() []byte { return m.Append(nil) }

func (m JoinReq) Append(b []byte) []byte {
	e := enc{b}
	m.Header.encodeTo(&e)
	e.u32(m.Workers)
	e.u32(m.Dims)
	encodeRelation(&e, m.A)
	encodeRelation(&e, m.B)
	m.Header.encodeTail(&e)
	return e.b
}

func DecodeJoinReq(p []byte) (JoinReq, error) {
	d := dec{b: p}
	h, err := decodeHeader(&d)
	if err != nil {
		return JoinReq{}, err
	}
	workers, err := d.u32()
	if err != nil {
		return JoinReq{}, err
	}
	k, err := d.dims()
	if err != nil {
		return JoinReq{}, err
	}
	a, err := decodeRelation(&d, k)
	if err != nil {
		return JoinReq{}, err
	}
	b, err := decodeRelation(&d, k)
	if err != nil {
		return JoinReq{}, err
	}
	h.decodeTail(&d)
	return JoinReq{Header: h, Workers: workers, Dims: uint32(k), A: a, B: b}, nil
}

// SimpleReq is the header-only request shape shared by MsgCheckpoint,
// MsgStats, and — since minor 2 — the transaction control opcodes
// MsgBegin, MsgCommit, and MsgRollback.
type SimpleReq struct {
	Header
}

func (m SimpleReq) Encode() []byte { return m.Append(nil) }

func (m SimpleReq) Append(b []byte) []byte {
	e := enc{b}
	m.Header.encodeTo(&e)
	m.Header.encodeTail(&e)
	return e.b
}

func DecodeSimpleReq(p []byte) (SimpleReq, error) {
	d := dec{b: p}
	h, err := decodeHeader(&d)
	if err != nil {
		return SimpleReq{}, err
	}
	h.decodeTail(&d)
	return SimpleReq{Header: h}, nil
}

// Cancel asks the server to stop the in-flight request with this id.
// It is advisory: the request may already have completed, in which
// case the cancel is a no-op.
type Cancel struct {
	ID uint32
}

func (m Cancel) Encode() []byte { return m.Append(nil) }

func (m Cancel) Append(b []byte) []byte { return binary.LittleEndian.AppendUint32(b, m.ID) }

func DecodeCancel(p []byte) (Cancel, error) {
	d := dec{b: p}
	id, err := d.u32()
	if err != nil {
		return Cancel{}, err
	}
	return Cancel{ID: id}, nil
}

// Batch is one chunk of a streamed result set. Exactly one of the
// three slices is populated, named by Kind; Dims describes the
// coordinate width of Points and Neighbors.
type Batch struct {
	ID        uint32
	Kind      uint8
	Dims      uint32
	Points    []Point
	Pairs     [][2]uint64
	Neighbors []Neighbor
}

// AppendPair and AppendNeighbor append one record of a BATCH of
// KindPairs and KindNeighbors (AppendPoint is the third kind's).
func AppendPair(b []byte, x, y uint64) []byte {
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(b, x), y)
}

func AppendNeighbor(b []byte, p Point, dist float64) []byte {
	return binary.LittleEndian.AppendUint64(AppendPoint(b, p), f64bits(dist))
}

// Records is a BATCH or ROWS frame under construction at the end of a
// buffer: a sender that streams opens it with BeginBatch or BeginRows,
// appends records behind it as it produces them, and End stores how
// many there were.
type Records struct{ start, count int }

// BeginBatch opens a BATCH frame at the end of b.
func BeginBatch(b []byte, id uint32, kind uint8, dims uint32) ([]byte, Records) {
	e := enc{BeginFrame(b, MsgBatch)}
	batchHeader(&e, id, kind, dims)
	e.u32(0)
	return e.b, Records{start: len(b), count: len(e.b) - 4}
}

// End closes the frame holding n records.
func (r Records) End(b []byte, n int) ([]byte, error) {
	binary.LittleEndian.PutUint32(b[r.count:], uint32(n))
	return EndFrame(b, r.start)
}

func batchHeader(e *enc, id uint32, kind uint8, dims uint32) {
	e.u32(id)
	e.u8(kind)
	e.u32(dims)
}

func (m Batch) Encode() []byte { return m.Append(nil) }

func (m Batch) Append(b []byte) []byte {
	e := enc{b}
	batchHeader(&e, m.ID, m.Kind, m.Dims)
	switch m.Kind {
	case KindPoints:
		appendPoints(&e, m.Points)
	case KindPairs:
		e.u32(uint32(len(m.Pairs)))
		for _, p := range m.Pairs {
			e.b = AppendPair(e.b, p[0], p[1])
		}
	case KindNeighbors:
		e.u32(uint32(len(m.Neighbors)))
		for _, n := range m.Neighbors {
			e.b = AppendNeighbor(e.b, n.Point, n.Dist)
		}
	}
	return e.b
}

func DecodeBatch(p []byte) (Batch, error) {
	d := dec{b: p}
	id, err := d.u32()
	if err != nil {
		return Batch{}, err
	}
	kind, err := d.u8()
	if err != nil {
		return Batch{}, err
	}
	dims, err := d.u32()
	if err != nil {
		return Batch{}, err
	}
	k := int(dims)
	if k > MaxDims {
		return Batch{}, fmt.Errorf("wire: bad dimension count %d", k)
	}
	out := Batch{ID: id, Kind: kind, Dims: dims}
	switch kind {
	case KindPoints:
		if out.Points, err = decodePoints(&d, k); err != nil {
			return Batch{}, err
		}
	case KindPairs:
		n, err := d.count(16)
		if err != nil {
			return Batch{}, err
		}
		out.Pairs = make([][2]uint64, n)
		for i := range out.Pairs {
			for j := range out.Pairs[i] {
				if out.Pairs[i][j], err = d.u64(); err != nil {
					return Batch{}, err
				}
			}
		}
	case KindNeighbors:
		n, err := d.count(16 + 4*k)
		if err != nil {
			return Batch{}, err
		}
		out.Neighbors = make([]Neighbor, n)
		d.reserve(n * k)
		for i := range out.Neighbors {
			nb := &out.Neighbors[i]
			if nb.ID, err = d.u64(); err != nil {
				return Batch{}, err
			}
			if nb.Coords, err = d.coords(k); err != nil {
				return Batch{}, err
			}
			bits, err := d.u64()
			if err != nil {
				return Batch{}, err
			}
			nb.Dist = f64frombits(bits)
		}
	default:
		return Batch{}, fmt.Errorf("wire: unknown batch kind %d", kind)
	}
	return out, nil
}

// Stat field indices of the Done message. Done carries a
// field-count-prefixed array of u64s in exactly this order; a peer
// built against an older minor version reads the fields it knows and
// ignores the rest, a newer one zero-fills missing trailing fields.
const (
	StatDataPages = iota
	StatSeeks
	StatElements
	StatResults
	StatLeftItems
	StatRightItems
	StatRawPairs
	StatDistinctPairs
	// StatShards and StatReplicatedItems are retired: they described
	// a parallel join that no longer exists and always read 0. They
	// stay reserved so the later slots keep their positions.
	StatShards
	StatReplicatedItems
	StatPoolGets
	StatPoolHits
	StatPoolMisses
	StatPhysReads
	StatPhysWrites
	StatWALAppends
	StatWALSyncs

	NumStats // count of defined stat fields in this version
)

// StatCounters names the counter each Stat* slot carries (a retired
// slot a retired counter, which nothing counts).
var StatCounters = [NumStats]obs.Counter{
	StatDataPages:       obs.DataPages,
	StatSeeks:           obs.Seeks,
	StatElements:        obs.Elements,
	StatResults:         obs.Results,
	StatLeftItems:       obs.ItemsLeft,
	StatRightItems:      obs.ItemsRight,
	StatRawPairs:        obs.RawPairs,
	StatDistinctPairs:   obs.DistinctPairs,
	StatShards:          obs.Shards,
	StatReplicatedItems: obs.ReplicatedItems,
	StatPoolGets:        obs.PoolGets,
	StatPoolHits:        obs.PoolHits,
	StatPoolMisses:      obs.PoolMisses,
	StatPhysReads:       obs.PhysReads,
	StatPhysWrites:      obs.PhysWrites,
	StatWALAppends:      obs.WALAppends,
	StatWALSyncs:        obs.WALSyncs,
}

// Timing field indices of the Done message's per-phase breakdown
// (minor 1). Like the stats array it is count-prefixed and
// append-only: older peers skip it entirely, newer peers zero-fill
// missing trailing fields. All values are nanoseconds.
const (
	TimingQueue  = iota // frame receipt → execution start (admission wait)
	TimingPlan          // decode + validation before the engine call
	TimingExec          // the query engine call itself
	TimingStream        // writing result batch frames
	TimingTotal         // frame receipt → terminal frame

	NumTimings // count of defined timing fields in this version
)

// Done ends a successful request: the echoed request id, the
// operation's statistics array (see the Stat* indices), and — since
// minor 1 — the server's per-phase timing breakdown (see the Timing*
// indices; empty when the request did not ask for FlagTrace).
type Done struct {
	ID      uint32
	Stats   []uint64
	Timings []uint64
}

func (m Done) Encode() []byte { return m.Append(nil) }

func (m Done) Append(b []byte) []byte {
	e := enc{b}
	e.u32(m.ID)
	e.u64s(m.Stats)
	e.u64s(m.Timings)
	return e.b
}

func DecodeDone(p []byte) (Done, error) {
	var m Done
	if err := m.Decode(p); err != nil {
		return Done{}, err
	}
	return m, nil
}

// Decode is DecodeDone into m, reusing the arrays m already holds: a
// client keeps one Done per connection.
func (m *Done) Decode(p []byte) (err error) {
	d := dec{b: p}
	if m.ID, err = d.u32(); err != nil {
		return err
	}
	if m.Stats, err = d.u64s(m.Stats); err != nil {
		return err
	}
	// The timing array is the minor-1 tail: absent from 1.0 peers.
	m.Timings = m.Timings[:0]
	if d.remaining() >= 4 {
		m.Timings, err = d.u64s(m.Timings)
	}
	return err
}

// Stat reads field i, zero when the peer did not send it — the
// forward-compatible accessor.
func (m Done) Stat(i int) uint64 {
	if i < 0 || i >= len(m.Stats) {
		return 0
	}
	return m.Stats[i]
}

// Timing reads timing field i, zero when the peer did not send it.
func (m Done) Timing(i int) uint64 {
	if i < 0 || i >= len(m.Timings) {
		return 0
	}
	return m.Timings[i]
}

// TextMsg carries a textual response body (EXPLAIN plans, STATS
// snapshots).
type TextMsg struct {
	ID   uint32
	Text string
}

func (m TextMsg) Encode() []byte { return m.Append(nil) }

func (m TextMsg) Append(b []byte) []byte {
	e := enc{b}
	e.u32(m.ID)
	putBytes(&e, m.Text)
	return e.b
}

func DecodeTextMsg(p []byte) (TextMsg, error) {
	d := dec{b: p}
	id, err := d.u32()
	if err != nil {
		return TextMsg{}, err
	}
	body, err := d.bytes()
	if err != nil {
		return TextMsg{}, err
	}
	return TextMsg{ID: id, Text: string(body)}, nil
}

// TraceMsg carries a traced request's identity and span tree (minor
// 4): the request's trace ID and the server-side span tree in the
// canonical binary encoding of internal/obs's codec. A server sends it
// immediately before DONE to clients whose Hello announced minor >= 4;
// older traced clients keep receiving the minor-1 rendered-TEXT form.
// The wire layer treats the tree as opaque bytes — encoding and
// validation live with the span type, not the framing.
type TraceMsg struct {
	ID      uint32
	TraceID uint64
	Span    []byte
}

func (m TraceMsg) Encode() []byte { return m.Append(nil) }

func (m TraceMsg) Append(b []byte) []byte {
	e := enc{b}
	e.u32(m.ID)
	e.u64(m.TraceID)
	putBytes(&e, m.Span)
	return e.b
}

func DecodeTraceMsg(p []byte) (TraceMsg, error) {
	d := dec{b: p}
	id, err := d.u32()
	if err != nil {
		return TraceMsg{}, err
	}
	tid, err := d.u64()
	if err != nil {
		return TraceMsg{}, err
	}
	span, err := d.bytes()
	if err != nil {
		return TraceMsg{}, err
	}
	return TraceMsg{ID: id, TraceID: tid, Span: span}, nil
}

// KV is one named scalar of a StatsKV snapshot.
type KV struct {
	Name  string
	Value int64
}

// StatsKV is the structured response to the STATS opcode (minor 1):
// a flat list of named counter/gauge/histogram-summary readings,
// sorted by name server-side. It replaces the rendered-JSON TEXT
// blob 1.0 servers sent; a server still answers a minor-0 client
// with TEXT.
type StatsKV struct {
	ID  uint32
	KVs []KV
}

func (m StatsKV) Encode() []byte { return m.Append(nil) }

func (m StatsKV) Append(b []byte) []byte {
	e := enc{b}
	e.u32(m.ID)
	e.u32(uint32(len(m.KVs)))
	for _, kv := range m.KVs {
		putBytes(&e, kv.Name)
		e.u64(uint64(kv.Value))
	}
	return e.b
}

func DecodeStatsKV(p []byte) (StatsKV, error) {
	d := dec{b: p}
	id, err := d.u32()
	if err != nil {
		return StatsKV{}, err
	}
	// Each entry is at least a 4-byte name length plus the 8-byte
	// value, so 12 bytes bounds the plausible count.
	n, err := d.count(12)
	if err != nil {
		return StatsKV{}, err
	}
	kvs := make([]KV, n)
	for i := range kvs {
		name, err := d.bytes()
		if err != nil {
			return StatsKV{}, err
		}
		v, err := d.u64()
		if err != nil {
			return StatsKV{}, err
		}
		kvs[i] = KV{Name: string(name), Value: int64(v)}
	}
	return StatsKV{ID: id, KVs: kvs}, nil
}

// ErrorMsg ends a failed request: the echoed id, a typed code (see
// Code*), and a human-readable message.
type ErrorMsg struct {
	ID   uint32
	Code uint8
	Msg  string
}

func (m ErrorMsg) Encode() []byte { return m.Append(nil) }

func (m ErrorMsg) Append(b []byte) []byte {
	e := enc{b}
	e.u32(m.ID)
	e.u8(m.Code)
	putBytes(&e, m.Msg)
	return e.b
}

func DecodeErrorMsg(p []byte) (ErrorMsg, error) {
	d := dec{b: p}
	id, err := d.u32()
	if err != nil {
		return ErrorMsg{}, err
	}
	code, err := d.u8()
	if err != nil {
		return ErrorMsg{}, err
	}
	body, err := d.bytes()
	if err != nil {
		return ErrorMsg{}, err
	}
	return ErrorMsg{ID: id, Code: code, Msg: string(body)}, nil
}
