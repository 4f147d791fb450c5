// Package session is the server side of the wire protocol
// (internal/wire, specified in docs/server.md), written once for every
// front end: probed's internal/server runs it over one probe.DB,
// zrouted's internal/router over the scatter-gather Router. Everything
// a client can observe about the protocol — handshake, framing,
// admission, cancellation, transactions, drain, the TRACE/DONE tail,
// request logging, the /debug/traces ring — lives here; what a request
// does to data is behind the Engine interface.
//
// Concurrency model. Each accepted connection gets one session
// goroutine; a session executes at most one request at a time, in its
// own goroutine, while the session loop keeps reading frames so a
// CANCEL can interrupt the running request. Every request runs under
// a context.Context derived from the server's base context plus the
// request's own timeout; the engine checks it at page-load (or
// backend-call) boundaries, so a cancel stops a long scan promptly.
//
// Admission control. In-flight requests across all sessions are
// bounded by Config.MaxInflight. Admission is fail-fast: a request
// arriving with no free slot is rejected immediately with the typed
// "overloaded" error rather than queued, so clients see load as
// backpressure they can retry against, and a slow query cannot grow
// an unbounded queue inside the server.
//
// Transactions. A session may hold at most one open transaction
// (BEGIN … COMMIT/ROLLBACK, protocol minor 2) when the engine offers
// them; while it is open, the session's RANGE, NEAREST, INSERT, DELETE
// and QUERY requests run inside it. The transaction is rolled back if
// the connection drops or if the session sends nothing for
// Config.TxIdleTimeout, so an abandoned client cannot pin an MVCC
// snapshot (and the garbage-collection horizon under it) forever.
//
// Drain. Shutdown stops accepting connections and requests (new ones
// get "shutting-down"), waits up to Config.DrainTimeout for in-flight
// requests to finish and open transactions to commit or roll back —
// sessions holding a transaction may keep issuing requests during the
// grace window — then cancels whatever remains and closes every
// connection (rolling back still-open transactions). Releasing the
// engine afterwards is the front end's job.
package session

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"probe/internal/obs"
)

// Config tunes a Server; it is internal/server's Config as well, and
// internal/router fills one from its own. Zero values select the
// defaults in brackets.
type Config struct {
	// MaxInflight bounds concurrently executing requests across all
	// sessions [16]; one beyond it is rejected as "overloaded", never
	// queued.
	MaxInflight int
	// DrainTimeout is Shutdown's grace window before it cancels
	// in-flight requests [5s].
	DrainTimeout time.Duration
	// WriteTimeout bounds each response frame write, so one stalled
	// client cannot pin a request indefinitely [10s].
	WriteTimeout time.Duration
	BatchSize    int // results per streamed batch frame [512]
	// TxIdleTimeout rolls back a transaction whose session sent nothing
	// for this long [30s]: an abandoned one pins an MVCC snapshot, which
	// stalls version garbage collection.
	TxIdleTimeout time.Duration

	// Logger receives the structured request log (log/slog); nil
	// disables it. The server never logs on its own.
	Logger *slog.Logger
	// SlowQuery logs a request whose total latency reaches it at Warn
	// with its rendered span tree. Zero disables; negative logs every
	// request that way (the firehose).
	SlowQuery time.Duration
	// LogEvery logs every Nth completed request at Info (opcode,
	// duration, results, pages); <= 0 disables. Independent of SlowQuery.
	LogEvery int
	// TraceBuffer is the capacity of /debug/traces: the last N traced,
	// slow or sampled requests with trace ID, outcome and, when traced,
	// the span tree [64].
	TraceBuffer int

	// ReadOnly refuses INSERT, DELETE, CHECKPOINT and BEGIN with the
	// typed read-only error before they reach the engine: a replica's
	// data comes from the replication applier, never from clients.
	ReadOnly bool
	// Metrics is the server's registry; nil makes a fresh one. A replica
	// passes the one its lag gauges live in, so STATS reports
	// "server.repl.caught_up" to the router's health prober.
	Metrics *obs.Registry
}

func (c *Config) fillDefaults() {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 16
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 512
	}
	if c.TxIdleTimeout <= 0 {
		c.TxIdleTimeout = 30 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
}

// Cancellation causes: context.Cause distinguishes a client's CANCEL
// frame from the server's drain, so the error frame carries the right
// typed code.
var (
	errClientCancel = errors.New("session: cancelled by client")
	errDraining     = errors.New("session: draining")
)

// Server serves one Engine over the wire protocol. Create with New,
// start with Serve, stop with Shutdown.
type Server struct {
	eng Engine
	cfg Config

	// name ("server", "router") prefixes every metric kept here and
	// names the front end in errors; spanPrefix ("router.") prefixes
	// the opcode in a request span's name.
	name, spanPrefix string

	// metrics holds the session layer's telemetry under name:
	// counters (accepted, active, rejected, cancelled, requests,
	// sessions), gauges (inflight, open_sessions, open_txs), and
	// per-opcode histograms (latency.<op> in nanoseconds, pages.<op>
	// in data pages).
	metrics *obs.Registry

	// reqSeq numbers completed requests for the sampled Info log.
	reqSeq atomic.Uint64

	// traces is the ring buffer of recent interesting requests served
	// at /debug/traces (capacity Config.TraceBuffer).
	traces *obs.TraceStore

	baseCtx    context.Context
	cancelBase context.CancelCauseFunc

	// sem is the admission semaphore; a slot is held for the duration
	// of one executing request.
	sem chan struct{}

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	draining  bool

	// active counts executing requests and openTxs counts sessions
	// holding an open transaction; idle is closed & re-made when both
	// drop to 0 (what Shutdown's grace window waits for).
	active  int
	openTxs int
	idle    chan struct{}

	wg sync.WaitGroup // session goroutines
}

// New returns the server of the front end name, executing requests
// against eng; spanPrefix prefixes its request spans' names.
func New(eng Engine, name, spanPrefix string, cfg Config) *Server {
	cfg.fillDefaults()
	if cfg.ReadOnly {
		eng = readOnly{eng}
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	return &Server{
		eng:        eng,
		cfg:        cfg,
		name:       name,
		spanPrefix: spanPrefix,
		metrics:    cfg.Metrics,
		traces:     obs.NewTraceStore(cfg.TraceBuffer),
		baseCtx:    ctx,
		cancelBase: cancel,
		sem:        make(chan struct{}, cfg.MaxInflight),
		listeners:  make(map[net.Listener]struct{}),
		conns:      make(map[net.Conn]struct{}),
		idle:       make(chan struct{}),
	}
}

// Metrics returns the registry the server keeps its telemetry in.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// metric names one of the server's own metrics.
func (s *Server) metric(name string) string { return s.name + "." + name }

// Serve accepts connections on ln until Shutdown closes it (or ln
// fails). It blocks; run it in a goroutine. The listener is closed by
// Shutdown; Serve then returns nil.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("%s: Serve after Shutdown", s.name)
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.Draining() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.metrics.Int(s.metric("sessions")).Add(1)
		s.metrics.Gauge(s.metric("open_sessions")).Inc()
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				s.metrics.Gauge(s.metric("open_sessions")).Dec()
			}()
			s.ServeConn(conn)
		}()
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// BeginRequest claims an admission slot; false means the server is at
// MaxInflight and the request must be rejected as overloaded.
func (s *Server) BeginRequest() bool {
	select {
	case s.sem <- struct{}{}:
	default:
		s.metrics.Int(s.metric("rejected")).Add(1)
		return false
	}
	s.mu.Lock()
	s.active++
	s.mu.Unlock()
	s.metrics.Int(s.metric("accepted")).Add(1)
	s.metrics.Int(s.metric("active")).Add(1)
	s.metrics.Gauge(s.metric("inflight")).Inc()
	return true
}

// EndRequest releases the slot claimed by BeginRequest.
func (s *Server) EndRequest() {
	<-s.sem
	s.mu.Lock()
	s.active--
	s.signalIdleLocked()
	s.mu.Unlock()
	s.metrics.Int(s.metric("active")).Add(-1)
	s.metrics.Gauge(s.metric("inflight")).Dec()
}

// signalIdleLocked wakes Shutdown's grace-window wait once no request
// executes and no transaction is open. Caller holds s.mu.
func (s *Server) signalIdleLocked() {
	if s.active == 0 && s.openTxs == 0 {
		close(s.idle)
		s.idle = make(chan struct{})
	}
}

// txBegan and txEnded track sessions holding an open transaction, for
// the drain grace window and the open_txs gauge.
func (s *Server) txBegan() {
	s.mu.Lock()
	s.openTxs++
	s.mu.Unlock()
	s.metrics.Int(s.metric("tx_begun")).Add(1)
	s.metrics.Gauge(s.metric("open_txs")).Inc()
}

func (s *Server) txEnded() {
	s.mu.Lock()
	s.openTxs--
	s.signalIdleLocked()
	s.mu.Unlock()
	s.metrics.Gauge(s.metric("open_txs")).Dec()
}

// Shutdown drains the server: stop accepting connections and
// requests, wait up to Config.DrainTimeout (bounded further by ctx)
// for in-flight requests to finish and open transactions to end,
// cancel the stragglers, and close all connections. When it returns
// no session is running and the engine is quiescent. Only the first
// call drains and reports true; later calls return false immediately.
func (s *Server) Shutdown(ctx context.Context) bool {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return false
	}
	s.draining = true
	for ln := range s.listeners {
		ln.Close()
	}
	idle := s.idle
	busy := s.active > 0 || s.openTxs > 0
	s.mu.Unlock()

	// Grace period: let in-flight requests finish and open
	// transactions commit or roll back naturally.
	if busy {
		timer := time.NewTimer(s.cfg.DrainTimeout)
		defer timer.Stop()
		select {
		case <-idle:
		case <-timer.C:
		case <-ctx.Done():
		}
	}

	// Cancel whatever is still running; the engine unwinds promptly
	// and the executor sends the shutting-down error frame.
	s.cancelBase(errDraining)

	// Close every connection: idle sessions are blocked in ReadFrame
	// and exit on the close; busy ones finish their (now cancelled)
	// request first.
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return true
}
