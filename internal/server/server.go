// Package server implements probed's network front end: one probe.DB
// served over the wire protocol (internal/wire, specified in
// docs/server.md). The protocol itself — sessions, admission,
// cancellation, transactions, drain, telemetry — is internal/session's;
// this package is its engine over a database plus what only a
// single-node server has: hot-swapping the database under a
// replication applier (SwapDB), refusing writes on a replica
// (Config.ReadOnly), an extra readiness condition, and the database,
// transaction and buffer-pool series on /metrics.
//
// Shutdown drains the sessions, then checkpoints and closes the
// database: after it returns the store is consistent and reopens
// without recovery work.
package server

import (
	"context"
	"errors"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"probe"
	"probe/internal/obs"
	"probe/internal/session"
)

// Config tunes a Server. Zero values select the defaults in brackets.
type Config struct {
	// MaxInflight bounds concurrently executing requests across all
	// sessions [16]. Requests beyond it are rejected with the typed
	// "overloaded" error, never queued.
	MaxInflight int
	// DrainTimeout is how long Shutdown waits for in-flight requests
	// to finish before cancelling them [5s].
	DrainTimeout time.Duration
	// WriteTimeout bounds each response frame write, so one stalled
	// client cannot pin a request (and the DB mutex under it)
	// indefinitely [10s].
	WriteTimeout time.Duration
	// BatchSize is the number of results per streamed batch frame
	// [512].
	BatchSize int
	// TxIdleTimeout bounds how long a session may hold a transaction
	// open without issuing any request before the server rolls it back
	// [30s]. An abandoned transaction pins an MVCC snapshot, which
	// stalls version garbage collection; the timeout caps that damage.
	TxIdleTimeout time.Duration

	// Logger receives structured request logs (log/slog). nil disables
	// request logging entirely; the server never logs on its own.
	Logger *slog.Logger

	// SlowQuery is the slow-query log threshold: a request whose total
	// latency reaches it is logged at Warn with its rendered trace-span
	// tree. Zero disables the slow-query log (the zero value stays
	// silent); negative logs every request that way — the firehose
	// setting for debugging.
	SlowQuery time.Duration

	// LogEvery samples the per-request Info log: every Nth completed
	// request logs one line (opcode, session, duration, results, pages
	// read). Zero disables sampling. Slow-query logging is independent
	// of the sample.
	LogEvery int

	// TraceBuffer is the capacity of the in-memory trace store behind
	// the admin endpoint's /debug/traces: the last N interesting
	// requests (client-traced, slow, or sampled), each with its trace
	// ID, outcome, and — when traced — full span tree [64].
	TraceBuffer int

	// ReadOnly rejects every mutating request (INSERT, DELETE,
	// CHECKPOINT, BEGIN) with the typed read-only error. Read replicas
	// serve under this flag: their database is maintained by the
	// replication applier, never by clients.
	ReadOnly bool

	// Metrics, when non-nil, is used as the server's registry instead
	// of a fresh one. A replica passes the registry its lag gauges
	// live in, so "repl.caught_up" surfaces through STATS (as
	// "server.repl.caught_up") for the router's health prober.
	Metrics *obs.Registry
}

// Server serves one probe.DB over the wire protocol. Create with New,
// start with Serve, stop with Shutdown. The server owns the database:
// Shutdown checkpoints and closes it. Serve, ServeConn, Metrics and
// the admission primitives are the embedded session server's.
type Server struct {
	*session.Server

	// db is the served database, behind an atomic pointer so a
	// replication applier can swap in a freshly caught-up version
	// (SwapDB) without stopping the server. Each access loads it once
	// via database().
	db       atomic.Pointer[probe.DB]
	readOnly bool

	// readyCheck, when set, gates /readyz beyond the drain flag: a
	// replica reports unready while it lags the primary.
	readyMu    sync.Mutex
	readyCheck func() error
}

// New returns a server over db. The server takes ownership: Shutdown
// checkpoints and closes db.
func New(db *probe.DB, cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 16
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	s := &Server{readOnly: cfg.ReadOnly}
	s.db.Store(db)
	s.Server = session.New(engine{s}, session.Config{
		Name:          "server",
		MaxInflight:   cfg.MaxInflight,
		DrainTimeout:  cfg.DrainTimeout,
		WriteTimeout:  cfg.WriteTimeout,
		BatchSize:     cfg.BatchSize,
		TxIdleTimeout: cfg.TxIdleTimeout,
		Logger:        cfg.Logger,
		SlowQuery:     cfg.SlowQuery,
		LogEvery:      cfg.LogEvery,
		TraceBuffer:   cfg.TraceBuffer,
	}, cfg.Metrics)
	return s
}

// DB returns the database the server fronts.
func (s *Server) DB() *probe.DB { return s.database() }

// database loads the served DB. Call sites load once per use; a
// request racing a SwapDB may see either version, which is exactly a
// replica's consistency contract (reads lag by at most one applied
// segment).
func (s *Server) database() *probe.DB { return s.db.Load() }

// SwapDB atomically replaces the served database and returns the
// previous one. The replication applier uses it to promote a freshly
// caught-up store version; the caller owns closing the returned DB
// (probe.DB.Close blocks until in-flight operations on it finish, so
// close-after-swap is the quiesce point). New requests see the new
// database immediately.
func (s *Server) SwapDB(db *probe.DB) *probe.DB {
	s.Metrics().Int("server.db_swaps").Add(1)
	return s.db.Swap(db)
}

// SetReadyCheck installs fn as an extra /readyz condition: the
// endpoint reports 503 with fn's error while fn returns non-nil. A
// replica's lag check plugs in here. nil removes the check.
func (s *Server) SetReadyCheck(fn func() error) {
	s.readyMu.Lock()
	s.readyCheck = fn
	s.readyMu.Unlock()
}

func (s *Server) readyErr() error {
	s.readyMu.Lock()
	fn := s.readyCheck
	s.readyMu.Unlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// Shutdown drains the sessions (see session.Server.Shutdown), then
// checkpoints and closes the database. It is safe to call once;
// subsequent calls return nil immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.Server.Shutdown(ctx) {
		return nil
	}
	// All sessions are gone; the database is quiescent. Make the
	// state durable and release the store.
	db := s.database()
	if _, err := db.Checkpoint(); err != nil && !errors.Is(err, probe.ErrClosed) {
		db.Close()
		return err
	}
	return db.Close()
}
