package repl

import (
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"probe"
	"probe/internal/obs"
	"probe/internal/wire"
)

// PrimaryConfig tunes the shipping side. Zero values select the
// defaults in brackets.
type PrimaryConfig struct {
	// HistorySegments bounds how many shipped segments are retained for
	// incremental catch-up [64]. A replica behind the retained window
	// re-bootstraps from a snapshot.
	HistorySegments int
	// HistoryBytes bounds the retained history's encoded size [32 MiB].
	HistoryBytes int
	// Heartbeat is the idle-stream heartbeat interval [1s]; replicas
	// use it to measure lag and detect a dead primary.
	Heartbeat time.Duration
	// SendBuffer is the per-subscriber queue of encoded segments [64].
	// A replica that cannot drain it is dropped (it reconnects and
	// catches up through history or a snapshot).
	SendBuffer int
	// Registry receives the primary's shipping metrics
	// (repl.segments_shipped, repl.history_bytes, repl.subscribers,
	// repl.snapshots_served, repl.subscribers_dropped) [new registry].
	Registry *obs.Registry
	// Logger receives structured subscription logs; nil disables.
	Logger *slog.Logger
}

func (c *PrimaryConfig) fillDefaults() {
	if c.HistorySegments <= 0 {
		c.HistorySegments = 64
	}
	if c.HistoryBytes <= 0 {
		c.HistoryBytes = 32 << 20
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
	if c.SendBuffer <= 0 {
		c.SendBuffer = 64
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
}

// histEntry is one retained segment: enc is its wire encoding, the
// segment covers LSNs (from, max].
type histEntry struct {
	from uint64
	max  uint64
	enc  []byte
}

// subscriber is one connected replica's send queue. The hook pushes
// encoded segments; the per-subscriber sender goroutine drains them
// onto the socket.
type subscriber struct {
	ch   chan []byte
	dead chan struct{} // closed when the queue overflows
	once sync.Once
}

func (sub *subscriber) drop() { sub.once.Do(func() { close(sub.dead) }) }

// Primary ships a durable database's checkpoint segments to
// subscribed replicas. Create with NewPrimary (which installs the
// checkpoint hook), serve with Serve, stop with Close.
type Primary struct {
	db  *probe.DB
	cfg PrimaryConfig

	mu        sync.Mutex
	hist      []histEntry
	histBytes int
	latest    uint64 // MaxLSN of the newest shipped segment
	subs      map[*subscriber]struct{}
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool

	wg sync.WaitGroup
}

// NewPrimary wraps db (which must be durable) as a shipping primary.
// From here on every db.Checkpoint feeds the replication stream.
func NewPrimary(db *probe.DB, cfg PrimaryConfig) (*Primary, error) {
	cfg.fillDefaults()
	p := &Primary{
		db:        db,
		cfg:       cfg,
		latest:    db.CheckpointLSN(),
		subs:      make(map[*subscriber]struct{}),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
	if err := db.SetWALSegmentHook(p.onSegment); err != nil {
		return nil, err
	}
	return p, nil
}

// Metrics returns the registry the primary records shipping metrics in.
func (p *Primary) Metrics() *obs.Registry { return p.cfg.Registry }

// onSegment is the checkpoint hook: it runs inside DB.Checkpoint, so
// it only appends the bytes the log took to history and enqueues them —
// never blocks, never calls back into the database.
func (p *Primary) onSegment(seg probe.WALSegment, enc []byte) {
	p.mu.Lock()
	entry := histEntry{from: p.latest, max: seg.MaxLSN, enc: enc}
	p.hist = append(p.hist, entry)
	p.histBytes += len(enc)
	for len(p.hist) > p.cfg.HistorySegments ||
		(p.histBytes > p.cfg.HistoryBytes && len(p.hist) > 1) {
		p.histBytes -= len(p.hist[0].enc)
		p.hist = p.hist[1:]
	}
	p.latest = seg.MaxLSN
	for sub := range p.subs {
		select {
		case sub.ch <- enc:
		default:
			// The replica is not draining its queue; drop it rather
			// than block a checkpoint or buffer without bound. It
			// reconnects and catches up.
			sub.drop()
		}
	}
	p.mu.Unlock()
	p.cfg.Registry.Int("repl.segments_shipped").Add(1)
	p.cfg.Registry.Gauge("repl.history_bytes").Set(int64(p.historyBytes()))
}

func (p *Primary) historyBytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.histBytes
}

// Latest returns the newest shipped LSN (the heartbeat value).
func (p *Primary) Latest() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.latest
}

// Serve accepts replica subscriptions on ln until Close. It blocks;
// run it in a goroutine.
func (p *Primary) Serve(ln net.Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ln.Close()
		return fmt.Errorf("repl: Serve after Close")
	}
	p.listeners[ln] = struct{}{}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.listeners, ln)
		p.mu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			continue
		}
		p.conns[conn] = struct{}{}
		p.wg.Add(1)
		p.mu.Unlock()
		go func() {
			defer p.wg.Done()
			defer func() {
				p.mu.Lock()
				delete(p.conns, conn)
				p.mu.Unlock()
				conn.Close()
			}()
			p.serveSubscriber(conn)
		}()
	}
}

// serveSubscriber runs one replica's session: hello, catch-up
// (incremental from history when contiguous, snapshot otherwise),
// then the live stream.
func (p *Primary) serveSubscriber(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, err := wire.ReadFrame(conn)
	if err != nil || typ != msgHello {
		sendError(conn, "repl: expected hello")
		return
	}
	haveLSN, err := decodeHello(payload)
	if err != nil {
		sendError(conn, err.Error())
		return
	}
	conn.SetReadDeadline(time.Time{})

	// Subscribe FIRST, then decide the catch-up path: segments shipped
	// while the snapshot is being built queue on sub.ch, so nothing is
	// lost in between. The replica skips anything the snapshot already
	// contains.
	sub := &subscriber{ch: make(chan []byte, p.cfg.SendBuffer), dead: make(chan struct{})}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.subs[sub] = struct{}{}
	var backlog [][]byte
	incremental := haveLSN >= p.latest ||
		(len(p.hist) > 0 && haveLSN >= p.hist[0].from)
	if incremental {
		for _, e := range p.hist {
			if e.max > haveLSN {
				backlog = append(backlog, e.enc)
			}
		}
	}
	p.mu.Unlock()
	p.cfg.Registry.Gauge("repl.subscribers").Inc()
	defer func() {
		p.mu.Lock()
		delete(p.subs, sub)
		p.mu.Unlock()
		p.cfg.Registry.Gauge("repl.subscribers").Dec()
	}()
	if p.cfg.Logger != nil {
		p.cfg.Logger.Info("repl subscriber connected",
			"remote", conn.RemoteAddr().String(), "have_lsn", haveLSN, "incremental", incremental)
	}

	if !incremental {
		// Snapshot path. StoreImage checkpoints, which fires the hook;
		// the resulting segment lands on sub.ch and the replica drops it
		// as stale (its LSN is <= the image's). Never hold p.mu here.
		img, lsn, err := p.db.StoreImage()
		if err != nil {
			sendError(conn, fmt.Sprintf("repl: snapshot: %v", err))
			return
		}
		p.cfg.Registry.Int("repl.snapshots_served").Add(1)
		if wire.WriteFrame(conn, msgSnapBegin, encodeU64Pair(lsn, uint64(len(img)))) != nil {
			return
		}
		for off := 0; off < len(img); off += snapChunkSize {
			end := min(off+snapChunkSize, len(img))
			if wire.WriteFrame(conn, msgSnapChunk, img[off:end]) != nil {
				return
			}
		}
		if wire.WriteFrame(conn, msgSnapEnd, nil) != nil {
			return
		}
	} else {
		for _, enc := range backlog {
			if wire.WriteFrame(conn, msgSegment, enc) != nil {
				return
			}
		}
	}

	// Live stream: segments as they arrive, heartbeats in between. A
	// parallel reader turns any inbound frame or connection loss into
	// a drop, so a dead replica cannot pin the sender.
	go func() {
		wire.ReadFrame(conn) // replicas never send after hello
		sub.drop()
	}()
	hb := time.NewTicker(p.cfg.Heartbeat)
	defer hb.Stop()
	for {
		select {
		case enc := <-sub.ch:
			if wire.WriteFrame(conn, msgSegment, enc) != nil {
				return
			}
		case <-hb.C:
			if wire.WriteFrame(conn, msgHeartbeat, encodeU64(p.Latest())) != nil {
				return
			}
		case <-sub.dead:
			p.cfg.Registry.Int("repl.subscribers_dropped").Add(1)
			if p.cfg.Logger != nil {
				p.cfg.Logger.Warn("repl subscriber dropped", "remote", conn.RemoteAddr().String())
			}
			return
		}
	}
}

// Close stops serving: the checkpoint hook is removed, listeners and
// subscriber connections close, and every session goroutine exits.
// The database itself is untouched (the server owns it).
func (p *Primary) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for ln := range p.listeners {
		ln.Close()
	}
	for conn := range p.conns {
		conn.Close()
	}
	for sub := range p.subs {
		sub.drop()
	}
	p.mu.Unlock()
	p.db.SetWALSegmentHook(nil)
	p.wg.Wait()
	return nil
}
