package repl

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"probe"
	"probe/internal/disk"
	"probe/internal/obs"
	"probe/internal/wire"
)

// ReplicaConfig tunes the applying side. Zero values select the
// defaults in brackets.
type ReplicaConfig struct {
	// Primary is the primary's replication listen address (required).
	Primary string
	// Grid is the cluster grid; the opened databases must match it
	// (required).
	Grid probe.Grid
	// PathA and PathB are the ping-pong page file paths (required,
	// distinct). Segments apply to the idle one; the freshly promoted
	// one serves.
	PathA, PathB string
	// FS is the filesystem the page files live on [disk.OSFS{}].
	FS disk.FS
	// DialTimeout bounds each connection attempt [2s].
	DialTimeout time.Duration
	// RetryInterval is the reconnect backoff after a lost primary
	// [500ms].
	RetryInterval time.Duration
	// StreamTimeout is the per-frame read deadline on the stream; the
	// primary heartbeats every second, so several missed beats mean a
	// dead primary [5s].
	StreamTimeout time.Duration
	// Registry receives the replica's lag gauges and counters
	// (repl.caught_up, repl.lag_segments, repl.applied_lsn,
	// repl.primary_lsn, repl.segments_applied, repl.snapshots_received,
	// repl.promotions, repl.reconnects). Pass the query server's
	// registry so the router's health prober sees them through STATS
	// [new registry].
	Registry *obs.Registry
	// Logger receives structured replication logs; nil disables.
	Logger *slog.Logger
	// OpenOpts is appended to the options each promoted database opens
	// with (pool size etc.). WithDurability/WithFS are supplied by the
	// replica itself.
	OpenOpts []probe.Option
}

func (c *ReplicaConfig) fillDefaults() error {
	if c.Primary == "" || c.PathA == "" || c.PathB == "" || c.PathA == c.PathB {
		return fmt.Errorf("repl: replica config requires Primary and two distinct page file paths")
	}
	if c.FS == nil {
		c.FS = disk.OSFS{}
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 500 * time.Millisecond
	}
	if c.StreamTimeout <= 0 {
		c.StreamTimeout = 5 * time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return nil
}

// Replica maintains a read-only copy of a primary's database by
// applying its shipped checkpoint segments to a ping-pong pair of
// page files. Create with NewReplica, drive with Run (one goroutine),
// hand the serving side over with SetSwap, gate readiness with
// ReadyErr.
type Replica struct {
	cfg ReplicaConfig

	mu            sync.Mutex
	db            *probe.DB // current serving database (nil until first sync)
	swap          func(*probe.DB) *probe.DB
	active        int // index (0/1) of the file db serves from
	fileLSN       [2]uint64
	pending       []disk.Segment // received, not yet in both files
	primaryLatest uint64
	conn          net.Conn
	closed        bool

	ready chan struct{} // closed when db first becomes non-nil
}

func (r *Replica) path(i int) string {
	if i == 0 {
		return r.cfg.PathA
	}
	return r.cfg.PathB
}

// NewReplica validates cfg and, when both page files already exist
// (a restart), reopens the newer one immediately so serving can
// resume before the primary is reachable.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	r := &Replica{cfg: cfg, ready: make(chan struct{})}
	bothExist := true
	for i := 0; i < 2; i++ {
		_, exists, err := cfg.FS.Stat(r.path(i))
		if err != nil {
			return nil, fmt.Errorf("repl: stat %s: %w", r.path(i), err)
		}
		if !exists {
			bothExist = false
		}
	}
	if bothExist {
		for i := 0; i < 2; i++ {
			fs, err := disk.OpenFileStoreFS(cfg.FS, r.path(i))
			if err != nil {
				return nil, fmt.Errorf("repl: reopen %s: %w", r.path(i), err)
			}
			r.fileLSN[i] = fs.CheckpointLSN()
			fs.Close()
		}
		r.active = 0
		if r.fileLSN[1] > r.fileLSN[0] {
			r.active = 1
		}
		db, err := r.openFile(r.active)
		if err != nil {
			return nil, err
		}
		r.db = db
		close(r.ready)
	}
	r.updateGauges()
	return r, nil
}

func (r *Replica) openFile(i int) (*probe.DB, error) {
	opts := append([]probe.Option{
		probe.WithDurability(r.path(i)), probe.WithFS(r.cfg.FS),
	}, r.cfg.OpenOpts...)
	return probe.Open(r.cfg.Grid, opts...)
}

// DB returns the current serving database (nil before the first sync).
func (r *Replica) DB() *probe.DB {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.db
}

// WaitReady blocks until the replica has a database to serve.
func (r *Replica) WaitReady(ctx context.Context) (*probe.DB, error) {
	select {
	case <-r.ready:
		return r.DB(), nil
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

// SetSwap hands promotion over to the query server: fn (typically
// server.SwapDB) is called with each newly promoted database, and is
// called once immediately so the server is synced to the current
// version. The server then owns closing the database it serves.
func (r *Replica) SetSwap(fn func(*probe.DB) *probe.DB) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.swap = fn
	if fn != nil && r.db != nil {
		fn(r.db)
	}
}

// ReadyErr reports why the replica should not serve reads yet: no
// database, or lagging the primary's newest shipped segment. nil
// means caught up — the /readyz and router-probe contract.
func (r *Replica) ReadyErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.db == nil {
		return fmt.Errorf("replica has no database yet (initial sync pending)")
	}
	if applied := r.fileLSN[r.active]; applied < r.primaryLatest {
		return fmt.Errorf("replica lagging: applied LSN %d < primary LSN %d", applied, r.primaryLatest)
	}
	return nil
}

// updateGauges publishes the lag picture. Caller may hold r.mu (the
// registry has its own locking; no lock ordering cycle).
func (r *Replica) updateGauges() {
	caught := int64(1)
	applied := r.fileLSN[r.active]
	if r.db == nil || applied < r.primaryLatest {
		caught = 0
	}
	reg := r.cfg.Registry
	reg.Gauge("repl.caught_up").Set(caught)
	unapplied := 0
	for _, seg := range r.pending {
		if seg.MaxLSN > applied {
			unapplied++
		}
	}
	reg.Gauge("repl.lag_segments").Set(int64(unapplied))
	reg.Gauge("repl.applied_lsn").Set(int64(applied))
	reg.Gauge("repl.primary_lsn").Set(int64(r.primaryLatest))
}

// Run drives the replica until ctx ends or Close: connect, catch up
// (snapshot or incremental), apply the live stream, reconnect on
// loss. Run owns all page file and database mutation; it is the only
// goroutine that applies segments.
func (r *Replica) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil || r.isClosed() {
			return err
		}
		if err := r.session(ctx); err != nil && r.cfg.Logger != nil {
			r.cfg.Logger.Warn("repl session ended", "err", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(r.cfg.RetryInterval):
		}
	}
}

func (r *Replica) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// session runs one connection to the primary to completion.
func (r *Replica) session(ctx context.Context) error {
	d := net.Dialer{Timeout: r.cfg.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", r.cfg.Primary)
	if err != nil {
		return err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		conn.Close()
		return nil
	}
	r.conn = conn
	haveLSN := min(r.fileLSN[0], r.fileLSN[1])
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.conn = nil
		r.mu.Unlock()
		conn.Close()
	}()
	// Sever the blocking read when ctx ends; Close does the same via
	// r.conn.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-watchDone:
		}
	}()

	if err := wire.WriteFrame(conn, msgHello, encodeHello(haveLSN)); err != nil {
		return err
	}
	r.cfg.Registry.Int("repl.reconnects").Add(1)

	var snap []byte // accumulating snapshot image, nil outside a transfer
	var snapLSN uint64
	for {
		conn.SetReadDeadline(time.Now().Add(r.cfg.StreamTimeout))
		typ, payload, err := wire.ReadFrame(conn)
		if err != nil {
			return err
		}
		switch typ {
		case msgSnapBegin:
			lsn, total, err := decodeU64Pair(payload)
			if err != nil {
				return err
			}
			if total > 1<<32 {
				return fmt.Errorf("repl: implausible snapshot size %d", total)
			}
			snap, snapLSN = make([]byte, 0, total), lsn
		case msgSnapChunk:
			if snap == nil {
				return fmt.Errorf("repl: snapshot chunk outside a transfer")
			}
			snap = append(snap, payload...)
		case msgSnapEnd:
			if snap == nil {
				return fmt.Errorf("repl: snapshot end outside a transfer")
			}
			if err := r.installSnapshot(snap, snapLSN); err != nil {
				return err
			}
			snap = nil
		case msgSegment:
			seg, err := disk.DecodeSegment(payload)
			if err != nil {
				return err
			}
			if err := r.ingest(seg); err != nil {
				return err
			}
		case msgHeartbeat:
			lsn, err := decodeU64(payload)
			if err != nil {
				return err
			}
			r.mu.Lock()
			if lsn > r.primaryLatest {
				r.primaryLatest = lsn
			}
			r.updateGauges()
			r.mu.Unlock()
		case msgError:
			return fmt.Errorf("repl: primary: %s", payload)
		default:
			return fmt.Errorf("repl: unexpected frame 0x%02x", typ)
		}
	}
}

// installSnapshot writes the received image to BOTH page files and
// promotes a database over it — the bootstrap (and fallen-behind)
// path. The idle file is written and promoted first: the serving
// database holds the active file (probe.ErrInUse) until it is closed.
func (r *Replica) installSnapshot(img []byte, lsn uint64) error {
	target := 1 - r.active // only this goroutine writes r.active
	if err := r.writeImage(target, img); err != nil {
		return err
	}
	db, err := r.openFile(target)
	if err != nil {
		return fmt.Errorf("repl: open snapshot: %w", err)
	}
	r.mu.Lock()
	old := r.db
	r.db = db
	r.active = target
	r.fileLSN[target] = lsn
	if lsn > r.primaryLatest {
		r.primaryLatest = lsn
	}
	kept := r.pending[:0]
	for _, seg := range r.pending {
		if seg.MaxLSN > lsn {
			kept = append(kept, seg)
		}
	}
	r.pending = kept
	if r.swap != nil {
		r.swap(db)
	}
	r.mu.Unlock()
	if old != nil {
		old.CloseReadOnly()
	}
	if err := r.writeImage(1-target, img); err != nil {
		return err
	}
	r.mu.Lock()
	r.fileLSN[1-target] = lsn
	r.updateGauges()
	r.mu.Unlock()
	r.cfg.Registry.Int("repl.snapshots_received").Add(1)
	r.signalReady()
	if r.cfg.Logger != nil {
		r.cfg.Logger.Info("repl snapshot installed", "lsn", lsn, "bytes", len(img))
	}
	return nil
}

// writeImage replaces page file i with a shipped image and truncates
// the WAL a database serving the old file left.
func (r *Replica) writeImage(i int, img []byte) error {
	f, err := r.cfg.FS.Create(r.path(i))
	if err != nil {
		return fmt.Errorf("repl: create %s: %w", r.path(i), err)
	}
	if _, err := f.WriteAt(img, 0); err != nil {
		f.Close()
		return fmt.Errorf("repl: write %s: %w", r.path(i), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if wf, err := r.cfg.FS.Create(r.path(i) + ".wal"); err == nil {
		wf.Close()
	}
	return nil
}

func (r *Replica) signalReady() {
	select {
	case <-r.ready:
	default:
		close(r.ready)
	}
}

// ingest queues one received segment and promotes: all segments the
// idle file is missing are applied to it, a database opens over it,
// the serving side swaps, and the previous database closes (blocking
// until its in-flight reads finish — the quiesce point).
func (r *Replica) ingest(seg disk.Segment) error {
	r.mu.Lock()
	if seg.MaxLSN > r.primaryLatest {
		r.primaryLatest = seg.MaxLSN
	}
	if seg.MaxLSN <= min(r.fileLSN[0], r.fileLSN[1]) {
		// Stale: both files already contain it (e.g. the segment the
		// snapshot checkpoint itself produced).
		r.updateGauges()
		r.mu.Unlock()
		return nil
	}
	r.pending = append(r.pending, seg)
	target := 1 - r.active
	var apply []disk.Segment
	for _, s := range r.pending {
		if s.MaxLSN > r.fileLSN[target] {
			apply = append(apply, s)
		}
	}
	r.mu.Unlock()

	for _, s := range apply {
		if err := disk.ApplyWALSegment(r.cfg.FS, r.path(target), s); err != nil {
			return fmt.Errorf("repl: apply segment (max LSN %d) to %s: %w", s.MaxLSN, r.path(target), err)
		}
		r.cfg.Registry.Int("repl.segments_applied").Add(1)
		r.mu.Lock()
		r.fileLSN[target] = s.MaxLSN
		r.mu.Unlock()
	}

	db, err := r.openFile(target)
	if err != nil {
		return fmt.Errorf("repl: open %s after apply: %w", r.path(target), err)
	}
	r.mu.Lock()
	old := r.db
	r.db = db
	r.active = target
	kept := r.pending[:0]
	floor := min(r.fileLSN[0], r.fileLSN[1])
	for _, s := range r.pending {
		if s.MaxLSN > floor {
			kept = append(kept, s)
		}
	}
	r.pending = kept
	if r.swap != nil {
		r.swap(db)
	}
	r.updateGauges()
	r.mu.Unlock()
	r.cfg.Registry.Int("repl.promotions").Add(1)
	if old != nil {
		old.CloseReadOnly()
	}
	r.signalReady()
	return nil
}

// Close stops the replica: the session (if any) is severed and Run
// returns. The serving database is closed only if no swap function
// was installed (otherwise the query server owns it).
func (r *Replica) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	conn := r.conn
	db, owned := r.db, r.swap == nil
	r.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	if owned && db != nil {
		return db.CloseReadOnly()
	}
	return nil
}
