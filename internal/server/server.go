// Package server implements probed's network front end: one probe.DB
// served over the wire protocol (internal/wire, specified in
// docs/server.md). The protocol itself — sessions, admission,
// cancellation, transactions, drain, telemetry, refusing writes on a
// replica (Config.ReadOnly) — is internal/session's; this package is
// its engine over a database plus what only a single-node server has:
// hot-swapping the database under a replication applier (SwapDB), an
// extra readiness condition, and the database, transaction and
// buffer-pool series on /metrics.
//
// Shutdown drains the sessions, then checkpoints and closes the
// database: after it returns the store is consistent and reopens
// without recovery work.
package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"probe"
	"probe/internal/session"
)

// Config tunes a Server: the session layer's settings, documented
// there.
type Config = session.Config

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
	db atomic.Pointer[probe.DB]

	// readyCheck, when set, gates /readyz beyond the drain flag: a
	// replica reports unready while it lags the primary.
	readyMu    sync.Mutex
	readyCheck func() error
}

// New returns a server over db. The server takes ownership: Shutdown
// checkpoints and closes db.
func New(db *probe.DB, cfg Config) *Server {
	s := &Server{}
	s.db.Store(db)
	s.Server = session.New(engine{s}, "server", "", cfg)
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
