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

// Config carries a front end's settings into the session layer;
// internal/server and internal/router fill it from their own Config,
// which document the shared fields. Zero values select the defaults in
// brackets.
type Config struct {
	// Name is the front end: "server" or "router". It prefixes every
	// metric the session layer keeps ("server.requests") and names the
	// front end in error messages.
	Name string
	// SpanPrefix prefixes the opcode in a request span's name
	// ("router." gives "router.range").
	SpanPrefix string

	MaxInflight   int           // admission slots (required)
	DrainTimeout  time.Duration // Shutdown's grace window [5s]
	WriteTimeout  time.Duration // per response frame [10s]
	BatchSize     int           // results per streamed frame [512]
	TxIdleTimeout time.Duration // idle transaction rollback [30s]

	Logger      *slog.Logger  // request logs; nil disables
	SlowQuery   time.Duration // Warn threshold; 0 off, negative logs all
	LogEvery    int           // Info sample interval; <= 0 off
	TraceBuffer int           // /debug/traces ring capacity [64]
}

func (c *Config) fillDefaults() {
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

	// metrics holds the session layer's telemetry under cfg.Name:
	// counters (accepted, active, rejected, cancelled, requests,
	// sessions), gauges (inflight, open_sessions, open_txs), and
	// per-opcode histograms (latency.<op> in nanoseconds, pages.<op>
	// in page reads).
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

// New returns a server executing requests against eng and keeping its
// telemetry in metrics.
func New(eng Engine, cfg Config, metrics *obs.Registry) *Server {
	cfg.fillDefaults()
	ctx, cancel := context.WithCancelCause(context.Background())
	return &Server{
		eng:        eng,
		cfg:        cfg,
		metrics:    metrics,
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
func (s *Server) metric(name string) string { return s.cfg.Name + "." + name }

// Serve accepts connections on ln until Shutdown closes it (or ln
// fails). It blocks; run it in a goroutine. The listener is closed by
// Shutdown; Serve then returns nil.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("%s: Serve after Shutdown", s.cfg.Name)
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
