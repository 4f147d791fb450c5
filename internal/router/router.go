package router

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"probe"
	"probe/client"
	"probe/internal/core"
	"probe/internal/session"
	"probe/internal/wire"
	"probe/internal/zorder"
)

// Config tunes one Router. Zero values select the defaults in
// brackets.
type Config struct {
	// Map is the z-range shard map (required, validated).
	Map *Map
	// MaxInflight caps concurrently executing front-side requests [64].
	MaxInflight int
	// BatchSize is points/pairs/rows per streamed response frame [512].
	BatchSize int
	// DialTimeout bounds one backend dial [2s].
	DialTimeout time.Duration
	// BackendTimeout bounds one backend call: a shard that neither
	// answers nor fails within it counts as unavailable, so a hung node
	// cannot wedge the router [30s].
	BackendTimeout time.Duration
	// CancelGrace is how long after a backend-call cancellation the
	// router waits for the client's graceful CANCEL round trip before
	// severing the connection [500ms].
	CancelGrace time.Duration
	// ProbeInterval is the health re-probe cadence for down primaries
	// and replica catch-up state [1s].
	ProbeInterval time.Duration
	// DrainTimeout bounds graceful shutdown [5s].
	DrainTimeout time.Duration
	// WriteTimeout bounds one front-side response frame write [10s].
	WriteTimeout time.Duration
	// Logger, SlowQuery, LogEvery and TraceBuffer are session.Config's.
	// Every logged request line carries its trace_id, so router lines
	// grep-correlate with the shard lines of the same request; a slow
	// request logs its fan-out span tree, and /debug/traces holds the
	// grafted tree of a traced one.
	Logger      *slog.Logger
	SlowQuery   time.Duration
	LogEvery    int
	TraceBuffer int
}

func (c *Config) fillDefaults() {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 512
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.BackendTimeout <= 0 {
		c.BackendTimeout = 30 * time.Second
	}
	if c.CancelGrace <= 0 {
		c.CancelGrace = 500 * time.Millisecond
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
}

// Router is the scatter-gather coordinator: the wire protocol in
// front (the embedded session server, which the Router is the Engine
// of), per-shard connection pools behind, the shard map in between.
// Serve and the admission primitives are the session server's, and so
// is the one registry (Metrics) everything lands in: the front-side
// series and the router's own fan-out latency histograms, shard/replica
// health gauges and merge overhead.
type Router struct {
	*session.Server

	cfg      Config
	m        *Map
	backends []*backend

	// grid is learned from the first reachable shard's handshake and
	// immutable afterwards (gridMu guards the learning window).
	gridMu sync.Mutex
	grid   zorder.Grid
	bits   []int

	// probeCtx bounds every health probe; Shutdown cancels it to stop
	// the prober.
	probeCtx   context.Context
	stopProbes context.CancelFunc
	probeWG    sync.WaitGroup
}

// New builds a Router over a validated shard map. Call Start to learn
// the cluster grid and begin health probing, then Serve.
func New(cfg Config) (*Router, error) {
	if cfg.Map == nil {
		return nil, errors.New("router: no shard map")
	}
	if err := cfg.Map.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	r := &Router{cfg: cfg, m: cfg.Map}
	r.probeCtx, r.stopProbes = context.WithCancel(context.Background())
	r.Server = session.New(r, "router", "router.", session.Config{
		MaxInflight:  cfg.MaxInflight,
		DrainTimeout: cfg.DrainTimeout,
		WriteTimeout: cfg.WriteTimeout,
		BatchSize:    cfg.BatchSize,
		Logger:       cfg.Logger,
		SlowQuery:    cfg.SlowQuery,
		LogEvery:     cfg.LogEvery,
		TraceBuffer:  cfg.TraceBuffer,
	})
	for i, def := range cfg.Map.Shards {
		r.backends = append(r.backends, newBackend(r, i, def))
	}
	return r, nil
}

// gridBits returns the cluster grid's bits per dimension, nil until
// learned.
func (r *Router) gridBits() []int {
	r.gridMu.Lock()
	defer r.gridMu.Unlock()
	return r.bits
}

// Grid returns the cluster grid (zero Grid until Start succeeds).
func (r *Router) Grid() zorder.Grid {
	r.gridMu.Lock()
	defer r.gridMu.Unlock()
	return r.grid
}

// Start learns the cluster grid from the first reachable shard,
// verifies every reachable node agrees, and begins background health
// probing. It retries until ctx expires; a cluster with no reachable
// shard cannot route anything, so refusing to start is the safe
// answer.
func (r *Router) Start(ctx context.Context) error {
	var lastErr error
	for {
		for _, b := range r.backends {
			for _, ep := range b.endpoints() {
				c, _, err := ep.get(ctx)
				if err != nil {
					lastErr = fmt.Errorf("shard %d node %s: %w", b.id, ep.addr, err)
					continue
				}
				bits := c.GridBits()
				g, err := zorder.NewGridAsym(bits)
				if err != nil {
					c.Close()
					return fmt.Errorf("router: shard %d grid: %w", b.id, err)
				}
				r.gridMu.Lock()
				r.grid, r.bits = g, bits
				r.gridMu.Unlock()
				ep.markUp()
				ep.put(c)
				r.startProber()
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("router: no shard reachable: %w (last: %v)", ctx.Err(), lastErr)
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// startProber launches the background health loop: down endpoints are
// re-dialed, replica catch-up state refreshed.
func (r *Router) startProber() {
	r.probeWG.Add(1)
	go func() {
		defer r.probeWG.Done()
		t := time.NewTicker(r.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-r.probeCtx.Done():
				return
			case <-t.C:
				r.ProbeNow()
			}
		}
	}()
}

// ProbeNow runs one synchronous health sweep over every endpoint:
// down nodes are re-dialed, replica catch-up refreshed. The prober
// calls it on a ticker; tests call it directly to converge health
// state without waiting.
func (r *Router) ProbeNow() {
	ctx, cancel := context.WithTimeout(r.probeCtx, r.cfg.DialTimeout+r.cfg.ProbeInterval)
	defer cancel()
	var wg sync.WaitGroup
	for _, b := range r.backends {
		for _, ep := range b.endpoints() {
			if !ep.isDown() && !ep.replica {
				ep.setHealth(true)
				continue
			}
			wg.Add(1)
			go func(ep *endpoint) {
				defer wg.Done()
				ep.probe(ctx)
			}(ep)
		}
	}
	wg.Wait()
}

// Ready reports whether the router can serve: the grid is learned and
// every shard has at least one endpoint not known-down.
func (r *Router) Ready() error {
	if r.gridBits() == nil {
		return errors.New("router: cluster grid not learned")
	}
	for _, b := range r.backends {
		ok := !b.primary.isDown()
		for _, rep := range b.replicas {
			ok = ok || rep.isReady()
		}
		if !ok {
			return fmt.Errorf("router: shard %d has no live node", b.id)
		}
	}
	return nil
}

// Shutdown drains the front side (see session.Server.Shutdown), then
// stops the prober and closes every backend pool. Safe to call once;
// subsequent calls return nil immediately.
func (r *Router) Shutdown(ctx context.Context) error {
	if !r.Server.Shutdown(ctx) {
		return nil
	}
	r.stopProbes()
	r.probeWG.Wait()
	for _, b := range r.backends {
		for _, ep := range b.endpoints() {
			ep.closePool()
		}
	}
	return nil
}

// ---- Scatter-gather data operations: the session.Engine ----

// shardsFor returns the backends owning a pixel of the box (Map.Cover).
func (r *Router) shardsFor(box probe.Box) ([]*backend, error) {
	g := r.Grid()
	if !g.Valid(box.Lo) || !g.Valid(box.Hi) {
		return nil, fmt.Errorf("router: box corner outside grid")
	}
	idxs := r.m.Cover(g, box.Lo, box.Hi)
	out := make([]*backend, len(idxs))
	for i, s := range idxs {
		out[i] = r.backends[s]
	}
	return out, nil
}

// Range streams every point in the box to fn in global (z, id)
// order, exactly as a single node would; fn returning false stops the
// scatter early without error. The shards tile the z-space in
// ascending, disjoint intervals (Map.Validate) and every point lives
// on the owner of its z-key (applyWrite), so each shard's stream lies
// wholly below the next shard's: draining the streams in shard order
// is the global order. A shard that cannot answer fails the whole
// request with a typed *ShardError — never a silently partial stream.
func (r *Router) Range(ctx context.Context, box probe.Box, fn func(probe.Point) bool) (probe.QueryStats, error) {
	shards, err := r.shardsFor(box)
	if err != nil {
		return probe.QueryStats{}, err
	}
	r.observeFanout("range", len(shards))
	if len(shards) == 1 {
		var qs probe.QueryStats
		err := shards[0].read(ctx, func(bctx context.Context, c *client.Conn) error {
			s, err := c.RangeFunc(bctx, box.Lo, box.Hi, fn)
			qs = s
			return err
		})
		return qs, err
	}

	sctx, cancel := context.WithCancelCause(ctx)
	defer cancel(context.Canceled)

	// Every shard reads ahead in parallel, at most four batches beyond
	// what the gather has consumed, so a later shard's answer is ready
	// when its turn comes without buffering its whole stream.
	type shardStream struct {
		ch  chan []probe.Point
		err error
	}
	streams := make([]*shardStream, len(shards))
	var qsMu sync.Mutex
	var total probe.QueryStats
	var wg sync.WaitGroup
	for i, b := range shards {
		st := &shardStream{ch: make(chan []probe.Point, 4)}
		streams[i] = st
		wg.Add(1)
		go func(b *backend, st *shardStream) {
			defer wg.Done()
			err := b.read(sctx, func(bctx context.Context, c *client.Conn) error {
				buf := make([]probe.Point, 0, r.cfg.BatchSize)
				flush := func() bool {
					if len(buf) == 0 {
						return true
					}
					select {
					case st.ch <- buf:
						buf = make([]probe.Point, 0, r.cfg.BatchSize)
						return true
					case <-sctx.Done():
						return false
					}
				}
				qs, err := c.RangeFunc(bctx, box.Lo, box.Hi, func(p probe.Point) bool {
					buf = append(buf, p)
					if len(buf) >= r.cfg.BatchSize {
						return flush()
					}
					return true
				})
				if err == nil && !flush() {
					err = sctx.Err()
				}
				qsMu.Lock()
				total.Add(qs)
				qsMu.Unlock()
				return err
			})
			st.err = err
			close(st.ch)
		}(b, st)
	}

	t0 := time.Now()
	delivered := 0
	stopped := false
gather:
	for _, st := range streams {
		for batch := range st.ch {
			for _, p := range batch {
				delivered++
				if !fn(p) {
					stopped = true
					break gather
				}
			}
		}
		// Channel closed: st.err is settled (written before close) and
		// safe to read. A shard that failed, even after its last batch,
		// ends the request here.
		if err = st.err; err != nil {
			break
		}
	}
	mergeDur := time.Since(t0)
	r.Metrics().Histogram("router.merge.ns").Observe(int64(mergeDur))
	if span, _, traced := session.TraceFrom(ctx); traced {
		// Attribute the router's own gather overhead: the in-order drain
		// (which includes delivering rows to the client and waiting for
		// the shard whose turn it is) as a sibling of the per-shard
		// fan-out subtrees.
		span.Attach(probe.NewSealedTrace("merge", mergeDur))
	}
	if stopped {
		cancel(errScatterStop)
	} else if err != nil {
		cancel(err)
	}
	// Unblock any worker still sending, then wait them out so their
	// conns are back in the pools before we return.
	wg.Wait()
	if err != nil {
		return total, err
	}
	total.Results = delivered // as a single node counts them
	return total, nil
}

// Nearest asks the shard that owns q first. Its m-th distance d bounds
// the answer: every point that could displace one of its m lies in the
// L-infinity box of radius ceil(d) around q (core.RingBox), so the
// second phase asks, in parallel, only the other shards owning a pixel
// of that box (Map.Cover) and folds the lists into the global top m,
// ordered by (distance, id) like a single node. An owner holding fewer
// than m points certifies nothing and the second phase is every other
// shard. A shard outside the cover is not contacted, so it may be down;
// one that is asked and cannot answer fails the whole request.
func (r *Router) Nearest(ctx context.Context, q []uint32, m int, metric probe.Metric) ([]probe.Neighbor, probe.QueryStats, error) {
	g := r.Grid()
	owner := r.m.OwnerOf(g.ShuffleKey(q))
	lists := make([][]probe.Neighbor, len(r.backends))
	ask := func(bctx context.Context, i int, c *client.Conn) (probe.QueryStats, error) {
		nbs, qs, err := c.Nearest(bctx, q, m, metric)
		lists[i] = nbs
		return qs, err
	}
	asked := 1
	defer func() { r.observeFanout("nearest", asked) }()
	total, err := r.fanAll(ctx, []int{owner}, (*backend).read, ask)
	if err != nil {
		return nil, total, err
	}
	var rest []int
	if own := lists[owner]; m > 0 && len(own) >= m {
		lo, hi := make([]uint32, len(q)), make([]uint32, len(q))
		core.RingBox(g, q, uint64(math.Ceil(own[m-1].Dist)), lo, hi)
		rest = r.m.Cover(g, lo, hi)
	} else {
		rest = r.allShards()
	}
	rest = slices.DeleteFunc(rest, func(i int) bool { return i == owner })
	asked += len(rest)
	qs, err := r.fanAll(ctx, rest, (*backend).read, ask)
	total.Add(qs)
	if err != nil {
		return nil, total, err
	}
	out := mergeNeighbors(lists, m)
	total.Results = len(out)
	return out, total, nil
}

// allShards lists every shard index.
func (r *Router) allShards() []int {
	all := make([]int, len(r.backends))
	for i := range all {
		all[i] = i
	}
	return all
}

// fanAll runs call against the shards idxs names, through do (the
// failing-over backend.read or the primary-only backend.write), and
// sums the per-shard stats: one shard inline, several in parallel. The
// first failing shard, in idxs order, fails the whole.
func (r *Router) fanAll(ctx context.Context, idxs []int, do func(*backend, context.Context, func(context.Context, *client.Conn) error) error,
	call func(bctx context.Context, i int, c *client.Conn) (probe.QueryStats, error)) (probe.QueryStats, error) {

	stats := make([]probe.QueryStats, len(idxs))
	errs := make([]error, len(idxs))
	one := func(k int) {
		errs[k] = do(r.backends[idxs[k]], ctx, func(bctx context.Context, c *client.Conn) (err error) {
			stats[k], err = call(bctx, idxs[k], c)
			return err
		})
	}
	if len(idxs) == 1 {
		one(0)
	} else {
		var wg sync.WaitGroup
		for k := range idxs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				one(k)
			}()
		}
		wg.Wait()
	}
	var total probe.QueryStats
	for k := range idxs {
		if errs[k] != nil {
			return total, errs[k]
		}
		total.Add(stats[k])
	}
	return total, nil
}

// Join ships each item to every shard owning a pixel of its box and
// unions the per-shard joins. A joining pair shares at least one grid
// pixel; that pixel lives in exactly one shard, which both items were
// shipped to — so the union over shards is exactly the single-node
// join, and DedupPairs restores its sorted, distinct order.
func (r *Router) Join(ctx context.Context, a, b []session.BoxItem) ([]probe.Pair, probe.QueryStats, error) {
	aParts, bParts := r.scatterItems(a), r.scatterItems(b)
	var idxs []int
	for i := range r.backends {
		if len(aParts[i]) > 0 && len(bParts[i]) > 0 {
			idxs = append(idxs, i)
		}
	}
	r.observeFanout("join", len(idxs))
	lists := make([][]probe.Pair, len(r.backends))
	total, err := r.fanAll(ctx, idxs, (*backend).read, func(bctx context.Context, i int, c *client.Conn) (probe.QueryStats, error) {
		pairs, qs, err := c.Join(bctx, aParts[i], bParts[i], 0)
		lists[i] = pairs
		return qs, err
	})
	if err != nil {
		return nil, total, err
	}
	var pairs []probe.Pair
	for _, l := range lists {
		pairs = append(pairs, l...)
	}
	pairs = core.DedupPairs(pairs)
	total.Results = len(pairs)
	total.DistinctPairs = len(pairs)
	return pairs, total, nil
}

// scatterItems clips a join relation to the shards: item i goes to
// every shard owning a pixel of its box (Map.Cover). The session layer
// has validated every box against the grid.
func (r *Router) scatterItems(items []session.BoxItem) [][]client.BoxItem {
	g := r.Grid()
	out := make([][]client.BoxItem, len(r.backends))
	for _, it := range items {
		lo, hi := it.Box.Lo, it.Box.Hi
		for _, s := range r.m.Cover(g, lo, hi) {
			out[s] = append(out[s], client.BoxItem{ID: it.ID, Lo: lo, Hi: hi})
		}
	}
	return out
}

// Insert routes each point to the shard owning its z-key and applies
// the per-shard batches in parallel. Any shard failure fails the
// call; shards that already applied stay applied (inserts are
// idempotent re-sends), and the partial outcome is counted in
// router.partial_writes.
func (r *Router) Insert(ctx context.Context, pts []probe.Point) (probe.QueryStats, error) {
	return r.applyWrite(ctx, pts, (*client.Conn).Insert)
}

// Delete routes each point to its owning shard and applies the
// per-shard deletions in parallel; absent points are skipped by the
// shards as usual.
func (r *Router) Delete(ctx context.Context, pts []probe.Point) (probe.QueryStats, error) {
	return r.applyWrite(ctx, pts, (*client.Conn).Delete)
}

func (r *Router) applyWrite(ctx context.Context, pts []probe.Point,
	op func(*client.Conn, context.Context, []probe.Point) (probe.QueryStats, error)) (probe.QueryStats, error) {

	g := r.Grid()
	byShard := make([][]probe.Point, len(r.backends))
	for _, p := range pts {
		s := r.m.OwnerOf(g.ShuffleKey(p.Coords))
		byShard[s] = append(byShard[s], p)
	}
	statsList := make([]probe.QueryStats, len(r.backends))
	errs := make([]error, len(r.backends))
	var wg sync.WaitGroup
	fanout := 0
	for i, batch := range byShard {
		if len(batch) == 0 {
			continue
		}
		fanout++
		wg.Add(1)
		go func(i int, batch []probe.Point) {
			defer wg.Done()
			errs[i] = r.backends[i].write(ctx, func(bctx context.Context, c *client.Conn) error {
				qs, err := op(c, bctx, batch)
				if err != nil {
					return err
				}
				statsList[i] = qs
				return nil
			})
		}(i, batch)
	}
	wg.Wait()
	r.observeFanout("write", fanout)
	var total probe.QueryStats
	var firstErr error
	okShards := 0
	for i := range r.backends {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = errs[i]
			}
			continue
		}
		if len(byShard[i]) > 0 {
			okShards++
		}
		total.Add(statsList[i])
		total.Results += statsList[i].Results
	}
	if firstErr != nil {
		if okShards > 0 {
			r.Metrics().Int("router.partial_writes").Add(1)
		}
		return total, firstErr
	}
	return total, nil
}

// Checkpoint forces a durability checkpoint on every shard primary.
func (r *Router) Checkpoint(ctx context.Context) (probe.QueryStats, error) {
	return r.fanAll(ctx, r.allShards(), (*backend).write, func(bctx context.Context, _ int, c *client.Conn) (probe.QueryStats, error) {
		return c.Checkpoint(bctx)
	})
}

// Explain gathers each intersecting shard's plan for the box and
// composes them under a routing header.
func (r *Router) Explain(ctx context.Context, box probe.Box) (string, error) {
	shards, err := r.shardsFor(box)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cluster scatter: %d/%d shards intersect\n", len(shards), len(r.backends))
	for _, bk := range shards {
		var text string
		err := bk.read(ctx, func(bctx context.Context, c *client.Conn) error {
			t, err := c.Explain(bctx, box.Lo, box.Hi)
			text = t
			return err
		})
		if err != nil {
			return "", err
		}
		rg, _ := r.m.Range(bk.id)
		fmt.Fprintf(&b, "shard %d [z %#016x..%#016x] %s:\n", bk.id, rg.Lo, rg.Hi, r.m.Shards[bk.id].Primary)
		for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
			b.WriteString("  " + line + "\n")
		}
	}
	return b.String(), nil
}

// Stats answers STATS with the router's one registry: fan-out
// histograms, shard/replica health gauges, request counters, all
// already named "router.*".
func (r *Router) Stats() []session.StatsSection {
	return []session.StatsSection{{Registry: r.Metrics()}}
}

// errNoTx is Begin's answer. Multi-statement transactions need a
// single snapshot and write-set, which a scatter over independent
// shards does not provide; reject loudly rather than fake it.
var errNoTx = errors.New("transactions are not supported through the router; connect to a shard directly")

// Begin refuses: the router has no transactions.
func (r *Router) Begin(ctx context.Context) (session.Tx, error) { return nil, errNoTx }

// ErrorCode types the router's own failures. A shard the request
// needed with no live node becomes the UNAVAILABLE code; a shard's own
// typed answer (bad request, conflict...) passes through with its
// original code.
func (r *Router) ErrorCode(err error) uint8 {
	var se *client.ServerError
	switch {
	case errors.Is(err, ErrShardUnavailable):
		return wire.CodeUnavailable
	case errors.As(err, &se):
		return se.Code
	case errors.Is(err, errNoTx):
		return wire.CodeBadRequest
	}
	return 0
}

// observeFanout records one scatter's breadth.
func (r *Router) observeFanout(op string, shards int) {
	r.Metrics().Int("router.requests." + op).Add(1)
	r.Metrics().Histogram("router.fanout.shards").Observe(int64(shards))
}
