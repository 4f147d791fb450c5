package router

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"probe/client"
	"probe/internal/session"
)

// endpoint is one dialable node (a shard's primary or one replica)
// with its small pool of idle client connections and its health state.
type endpoint struct {
	r       *Router
	shard   int
	addr    string
	replica bool

	mu      sync.Mutex
	idle    []*client.Conn
	down    bool
	ready   bool // replicas: caught up per last probe; primaries: always true
	dialErr error
}

const maxIdleConns = 8

func newEndpoint(r *Router, shard int, addr string, replica bool) *endpoint {
	return &endpoint{r: r, shard: shard, addr: addr, replica: replica, ready: !replica}
}

// healthGauge is the endpoint's exported health gauge (1 = reachable
// and, for replicas, caught up).
func (ep *endpoint) healthGauge() string {
	kind := "primary"
	if ep.replica {
		kind = "replica." + ep.addr
	}
	return fmt.Sprintf("router.shard%d.%s.up", ep.shard, kind)
}

func (ep *endpoint) setHealth(up bool) {
	v := int64(0)
	if up {
		v = 1
	}
	ep.r.Metrics().Gauge(ep.healthGauge()).Set(v)
}

// get returns a pooled connection or dials a fresh one. The boolean
// reports whether the conn came from the pool (a pooled conn may be
// stale, which justifies one retry on poison).
func (ep *endpoint) get(ctx context.Context) (*client.Conn, bool, error) {
	ep.mu.Lock()
	for len(ep.idle) > 0 {
		c := ep.idle[len(ep.idle)-1]
		ep.idle = ep.idle[:len(ep.idle)-1]
		ep.mu.Unlock()
		if c.Broken() == nil {
			return c, true, nil
		}
		c.Close()
		ep.mu.Lock()
	}
	ep.mu.Unlock()
	c, err := ep.dial(ctx)
	if err != nil {
		return nil, false, err
	}
	return c, false, nil
}

// dial opens and handshakes one connection, verifying the shard serves
// the grid the router learned.
func (ep *endpoint) dial(ctx context.Context) (*client.Conn, error) {
	d := net.Dialer{Timeout: ep.r.cfg.DialTimeout}
	nc, err := d.DialContext(ctx, "tcp", ep.addr)
	if err != nil {
		return nil, err
	}
	// The handshake needs its own deadline: a hung node accepts the
	// TCP connection and then never answers the hello, which would
	// otherwise block this dial (and the prober behind it) forever.
	deadline := time.Now().Add(ep.r.cfg.DialTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	nc.SetDeadline(deadline)
	c, err := client.NewConn(nc)
	if err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetDeadline(time.Time{})
	if want := ep.r.gridBits(); want != nil {
		got := c.GridBits()
		if !equalBits(got, want) {
			c.Close()
			return nil, fmt.Errorf("router: shard %d node %s serves grid %v, cluster grid is %v",
				ep.shard, ep.addr, got, want)
		}
	}
	return c, nil
}

func equalBits(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// put returns a connection to the pool; poisoned or surplus conns are
// closed.
func (ep *endpoint) put(c *client.Conn) {
	if c.Broken() != nil {
		c.Close()
		return
	}
	ep.mu.Lock()
	if ep.down || len(ep.idle) >= maxIdleConns {
		ep.mu.Unlock()
		c.Close()
		return
	}
	ep.idle = append(ep.idle, c)
	ep.mu.Unlock()
}

// closePool closes every idle pooled connection (shutdown).
func (ep *endpoint) closePool() {
	ep.mu.Lock()
	idle := ep.idle
	ep.idle = nil
	ep.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// markDown records a transport failure: the pool is flushed (any
// pooled conn shares the dead peer) and the prober takes over.
func (ep *endpoint) markDown(err error) {
	ep.mu.Lock()
	ep.down = true
	ep.dialErr = err
	idle := ep.idle
	ep.idle = nil
	ep.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
	ep.setHealth(false)
}

func (ep *endpoint) markUp() {
	ep.mu.Lock()
	ep.down = false
	ep.dialErr = nil
	ep.mu.Unlock()
	ep.setHealth(true)
}

func (ep *endpoint) isDown() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.down
}

func (ep *endpoint) isReady() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.ready && !ep.down
}

func (ep *endpoint) setReady(v bool) {
	ep.mu.Lock()
	ep.ready = v
	ep.mu.Unlock()
}

// probe re-checks the endpoint: dial + handshake, and for replicas the
// caught-up flag from the node's STATS counters ("server.repl.caught_up";
// a node without the key — a plain probed — counts as caught up).
func (ep *endpoint) probe(ctx context.Context) {
	c, _, err := ep.get(ctx)
	if err != nil {
		ep.markDown(err)
		return
	}
	if ep.replica {
		pctx, cancel := context.WithTimeout(ctx, ep.r.cfg.DialTimeout)
		stats, err := c.Stats(pctx)
		cancel()
		if err != nil {
			c.Close()
			ep.markDown(err)
			return
		}
		caught, present := stats["server.repl.caught_up"]
		ep.setReady(!present || caught != 0)
	}
	ep.markUp()
	ep.put(c)
}

// backend is one shard's set of endpoints: the primary plus replicas.
type backend struct {
	r        *Router
	id       int
	primary  *endpoint
	replicas []*endpoint
}

func newBackend(r *Router, id int, def ShardDef) *backend {
	b := &backend{r: r, id: id, primary: newEndpoint(r, id, def.Primary, false)}
	for _, addr := range def.Replicas {
		b.replicas = append(b.replicas, newEndpoint(r, id, addr, true))
	}
	return b
}

func (b *backend) endpoints() []*endpoint {
	eps := make([]*endpoint, 0, 1+len(b.replicas))
	eps = append(eps, b.primary)
	eps = append(eps, b.replicas...)
	return eps
}

// readCandidates orders the endpoints a read may use: the primary
// first when healthy, then caught-up replicas. When nothing looks
// healthy every endpoint is tried anyway — the prober may simply not
// have noticed a recovery yet, and a failed attempt only costs the
// dial timeout the request was going to spend on an unavailable error
// anyway.
func (b *backend) readCandidates() []*endpoint {
	var eps []*endpoint
	if !b.primary.isDown() {
		eps = append(eps, b.primary)
	}
	for _, rep := range b.replicas {
		if rep.isReady() {
			eps = append(eps, rep)
		}
	}
	if len(eps) == 0 {
		eps = b.endpoints()
	}
	return eps
}

// read runs fn against the first endpoint that can serve it, failing
// over from a dead primary to caught-up replicas. Transport failures
// (dial errors, poisoned connections, hung-call watchdog expiries)
// mark the endpoint down and move on; any other error — a real server
// answer or the client's own cancellation — returns as-is.
func (b *backend) read(ctx context.Context, fn func(context.Context, *client.Conn) error) error {
	return b.call(ctx, b.readCandidates(), fn)
}

// write runs fn against the shard's primary only: replicas are
// read-only, so a dead primary makes writes typed-unavailable.
func (b *backend) write(ctx context.Context, fn func(context.Context, *client.Conn) error) error {
	return b.call(ctx, []*endpoint{b.primary}, fn)
}

func (b *backend) call(ctx context.Context, eps []*endpoint, fn func(context.Context, *client.Conn) error) error {
	var lastErr error
	lastAddr := b.primary.addr
	for _, ep := range eps {
		err, transport := b.tryEndpoint(ctx, ep, fn)
		if err == nil {
			return nil
		}
		if !transport {
			return err
		}
		if ctx.Err() != nil {
			// The client's own context ended; don't burn failover
			// attempts on it.
			return ctx.Err()
		}
		ep.markDown(err)
		lastErr, lastAddr = err, ep.addr
	}
	b.r.Metrics().Int("router.unavailable").Add(1)
	return &ShardError{Shard: b.id, Addr: lastAddr, Err: lastErr}
}

// tryEndpoint runs fn once against ep (with a single retry on a fresh
// connection when a pooled conn turns out poisoned), bounding the call
// with the backend watchdog so a hung shard cannot wedge the router.
// The bool reports whether the failure was transport-level (failover
// is warranted). When the request is traced, the call runs
// traced — FlagTrace plus the request's trace ID propagate to the
// shard — and the shard's answer is grafted under the request span as
// a fanout.shard<N>.<primary|replica> subtree.
func (b *backend) tryEndpoint(ctx context.Context, ep *endpoint, fn func(context.Context, *client.Conn) error) (error, bool) {
	span, traceID, traced := session.TraceFrom(ctx)
	for attempt := 0; ; attempt++ {
		c, pooled, err := ep.get(ctx)
		if err != nil {
			return err, true
		}
		if traced {
			c.SetTrace(true)
			c.SetTraceID(traceID)
		}
		t0 := time.Now()
		err = b.callOnce(ctx, c, fn)
		callDur := time.Since(t0)
		b.r.Metrics().Histogram(fmt.Sprintf("router.fanout.shard%d.ns", b.id)).Observe(int64(callDur))
		b.r.Metrics().Int(fmt.Sprintf("router.fanout.shard%d.calls", b.id)).Add(1)
		broken := c.Broken() != nil
		if traced {
			graft(span, b.id, ep.replica, callDur, c)
			// Pooled connections are shared across requests: strip the
			// trace state before returning the conn so an untraced
			// request picking it up next does not run traced.
			c.SetTrace(false)
			c.SetTraceID(0)
		}
		if !broken {
			ep.put(c)
		} else {
			c.Close()
		}
		if err == nil {
			return nil, false
		}
		if transportErr(err) || broken {
			// A pooled conn may have died while idle; one retry on a
			// freshly dialed conn distinguishes a stale pool entry from
			// a dead node.
			if pooled && attempt == 0 {
				continue
			}
			return err, true
		}
		return err, false
	}
}

// callOnce bounds one backend call with the watchdog: if the shard
// hangs past BackendTimeout (plus a grace period for the client's
// graceful CANCEL path), the connection is torn down so the blocked
// read unblocks with a poisoned-connection error.
func (b *backend) callOnce(ctx context.Context, c *client.Conn, fn func(context.Context, *client.Conn) error) error {
	bctx := ctx
	var cancel context.CancelFunc
	if d := b.r.cfg.BackendTimeout; d > 0 {
		bctx, cancel = context.WithTimeoutCause(ctx, d, errBackendTimeout)
		defer cancel()
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-bctx.Done():
			// Give the client's CANCEL round trip a grace window; a live
			// server answers it quickly and the conn survives. A hung one
			// doesn't — sever so the blocked read returns.
			t := time.NewTimer(b.r.cfg.CancelGrace)
			defer t.Stop()
			select {
			case <-t.C:
				c.Close()
			case <-done:
			}
		case <-done:
		}
	}()
	err := fn(bctx, c)
	if err != nil && context.Cause(bctx) == errBackendTimeout {
		return fmt.Errorf("%w after %s: %v", errBackendTimeout, b.r.cfg.BackendTimeout, err)
	}
	return err
}

// transportErr classifies failures that justify failover: the node is
// unreachable or the conversation died, as opposed to the node
// answering with a real (even if unhappy) result.
func transportErr(err error) bool {
	if errors.Is(err, client.ErrPoisoned) || errors.Is(err, errBackendTimeout) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	// Dial-level failures (connection refused etc.) surface as
	// *net.OpError which is a net.Error; handshake short-reads as io
	// errors wrapped by the client are poisoned. Anything else is a
	// protocol-level answer.
	return false
}
