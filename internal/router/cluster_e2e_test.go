package router

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"probe"
	"probe/client"
	"probe/internal/battery"
	"probe/internal/disk/faultfs"
	"probe/internal/obs"
	"probe/internal/repl"
	"probe/internal/server"
	"probe/internal/wire"
)

func clusterGrid() probe.Grid { return probe.MustGrid(2, 10) }

func clusterPoints(rng *rand.Rand, n int, idBase uint64) []probe.Point {
	pts := make([]probe.Point, n)
	for i := range pts {
		pts[i] = probe.Pt2(idBase+uint64(i), uint32(rng.Intn(1024)), uint32(rng.Intn(1024)))
	}
	return pts
}

// startShard serves db on a loopback listener and returns its address.
func startShard(t *testing.T, db *probe.DB, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv := server.New(db, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv, ln.Addr().String()
}

// startRouter builds, starts and serves a router over m.
func startRouter(t *testing.T, m *Map, cfg Config) (*Router, string) {
	t.Helper()
	cfg.Map = m
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Start(ctx); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(ln)
	t.Cleanup(func() { r.Shutdown(context.Background()) })
	return r, ln.Addr().String()
}

func dialRouter(t *testing.T, addr string) *client.Conn {
	t.Helper()
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// insertThrough pushes pts through the router in batches, scattering
// them onto their owner shards.
func insertThrough(t *testing.T, cl *client.Conn, pts []probe.Point) {
	t.Helper()
	ctx := context.Background()
	for off := 0; off < len(pts); off += 500 {
		end := min(off+500, len(pts))
		if _, err := cl.Insert(ctx, pts[off:end]); err != nil {
			t.Fatalf("insert through router: %v", err)
		}
	}
}

func samePoints(a, b []probe.Point) string {
	if len(a) != len(b) {
		return fmt.Sprintf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return fmt.Sprintf("row %d: id %d vs %d", i, a[i].ID, b[i].ID)
		}
		for d := range a[i].Coords {
			if a[i].Coords[d] != b[i].Coords[d] {
				return fmt.Sprintf("row %d dim %d: %d vs %d", i, d, a[i].Coords[d], b[i].Coords[d])
			}
		}
	}
	return ""
}

func randBox(rng *rand.Rand) (lo, hi []uint32) {
	xlo, ylo := uint32(rng.Intn(1024)), uint32(rng.Intn(1024))
	return []uint32{xlo, ylo},
		[]uint32{xlo + uint32(rng.Intn(int(1024-xlo))), ylo + uint32(rng.Intn(int(1024-ylo)))}
}

// TestClusterQueryDifferential is the cluster acceptance battery: the
// same data lives once in a single in-process database and once
// sharded across three servers behind a router; RANGE streams must be
// byte-identical (z-order preserved through the merge), NNEAREST
// results identical, and 220 generated spatial SQL statements must
// return identical schemas and row sets.
func TestClusterQueryDifferential(t *testing.T) {
	g := clusterGrid()
	shardDBs := make([]*probe.DB, 3)
	addrs := make([]string, 3)
	for i := range shardDBs {
		db, err := probe.Open(g)
		if err != nil {
			t.Fatal(err)
		}
		shardDBs[i] = db
		_, addrs[i] = startShard(t, db, server.Config{BatchSize: 32})
	}
	m, err := BuildEvenMap(DefaultPrefixBits(3), addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt, raddr := startRouter(t, m, Config{BatchSize: 32})
	cl := dialRouter(t, raddr)

	pts := clusterPoints(rand.New(rand.NewSource(1986)), 4000, 1)
	insertThrough(t, cl, pts)
	single, err := probe.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if err := single.InsertAll(pts); err != nil {
		t.Fatal(err)
	}

	// The scatter must actually have scattered: no shard owns
	// everything, none is empty (4000 uniform points over an even map).
	for i, db := range shardDBs {
		if db.Len() == 0 || db.Len() == len(pts) {
			t.Fatalf("shard %d holds %d of %d points: not sharded", i, db.Len(), len(pts))
		}
	}

	ctx := context.Background()

	// RANGE: byte-identical streams, including z-order.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		lo, hi := randBox(rng)
		box, err := probe.NewBox(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := single.RangeSearch(box)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := cl.Range(ctx, lo, hi)
		if err != nil {
			t.Fatalf("router range: %v", err)
		}
		if d := samePoints(want, got); d != "" {
			t.Fatalf("range %v..%v: cluster stream differs from single node: %s", lo, hi, d)
		}
	}

	// NNEAREST: identical neighbor lists. Random points first, then the
	// places where the two-phase plan changes shape: the first and last
	// pixel of every shard and the grid's corners under both metrics, m
	// beyond the owner's count (every shard is asked) and beyond the
	// cluster's (everything comes back).
	var cases []nearestCase
	for i := 0; i < 20; i++ {
		cases = append(cases, nearestCase{[]uint32{uint32(rng.Intn(1024)), uint32(rng.Intn(1024))}, 8, probe.Euclidean})
	}
	for i := 0; i < 10; i++ {
		cases = append(cases, nearestCase{[]uint32{uint32(rng.Intn(1024)), uint32(rng.Intn(1024))}, 1 + rng.Intn(12), probe.Chebyshev})
	}
	cases = append(cases, boundaryCases(t, rt, 8)...)
	cases = append(cases, boundaryCases(t, rt, 1)...)
	for _, m := range []int{len(pts) / 2, len(pts), len(pts) + 1000} {
		cases = append(cases,
			nearestCase{[]uint32{700, 300}, m, probe.Euclidean},
			nearestCase{[]uint32{0, 1023}, m, probe.Chebyshev})
	}
	for _, c := range cases {
		want, _, err := single.Nearest(c.q, c.m, c.metric)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := cl.Nearest(ctx, c.q, c.m, c.metric)
		if err != nil {
			t.Fatalf("router %v: %v", c, err)
		}
		if d := sameNeighbors(want, got); d != "" {
			t.Fatalf("%v: cluster differs from single node: %s", c, d)
		}
	}

	// The full statement battery, single node vs cluster.
	const n = 220
	for i := 0; i < n; i++ {
		qseed := int64(1000 + i)
		sql, ordered := battery.GenQuery(rand.New(rand.NewSource(qseed)))
		local, lerr := single.Query(ctx, sql)
		remote, rerr := cl.Query(ctx, sql)
		if lerr != nil || rerr != nil {
			t.Errorf("seed %d: errors differ or non-nil: single=%v cluster=%v\n  query: %s", qseed, lerr, rerr, sql)
			continue
		}
		if d := battery.Diff(
			battery.Result{Columns: local.Columns, Rows: local.Rows},
			battery.Result{Columns: remote.Columns, Rows: remote.Rows},
			ordered,
		); d != "" {
			t.Errorf("seed %d: single vs cluster %s\n  query: %s", qseed, d, sql)
		}
	}

	// EXPLAIN through the router: a join has no plan to choose, so its
	// access line is the one a single node and a transaction print.
	ex, err := cl.Query(ctx, "EXPLAIN SELECT region, id FROM points JOIN REGIONS(1 BOX(0, 40, 0, 40)) ON INTERSECTS")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Explain, "spatial merge join: 1 region against points in z order") {
		t.Errorf("cluster EXPLAIN access line: %q", ex.Explain)
	}

	// Malformed requests: a client cannot tell the cluster from one node,
	// so the router must answer with the typed code a shard gives when
	// asked directly.
	node := dialRouter(t, addrs[0])
	codeOf := func(what string, err error) uint8 {
		var se *client.ServerError
		if !errors.As(err, &se) {
			t.Fatalf("%s: got %v, want a typed server error", what, err)
		}
		return se.Code
	}
	for _, tc := range []struct {
		name string
		do   func(*client.Conn) error
	}{
		{"range with a 3-d box", func(c *client.Conn) error {
			_, _, err := c.Range(ctx, []uint32{1, 2, 3}, []uint32{4, 5, 6})
			return err
		}},
		{"explain with a 3-d box", func(c *client.Conn) error {
			_, err := c.Explain(ctx, []uint32{1, 2, 3}, []uint32{4, 5, 6})
			return err
		}},
		{"nearest with a 3-d point", func(c *client.Conn) error {
			_, _, err := c.Nearest(ctx, []uint32{1, 2, 3}, 4, probe.Euclidean)
			return err
		}},
	} {
		want := codeOf(tc.name+" on one node", tc.do(node))
		got := codeOf(tc.name+" through the router", tc.do(cl))
		if got != want || want != wire.CodeBadRequest {
			t.Errorf("%s: node answers %s, router %s, want bad-request from both",
				tc.name, wire.CodeString(want), wire.CodeString(got))
		}
	}
}

// ---- chaos proxy ----

const (
	proxyPass int32 = iota
	proxySever
	proxyHang
	proxyTruncate
)

// chaosProxy sits between the router and one shard. In pass mode it
// forwards bytes; sever kills existing connections and refuses new
// ones; hang accepts and keeps connections but stops forwarding —
// the "node wedged mid-request" failure the backend watchdog exists
// for; truncate forwards budget more bytes and then closes every
// connection at its next byte — a node dying at a known offset of its
// answer, whatever the kernel had buffered.
type chaosProxy struct {
	ln     net.Listener
	target string
	mode   atomic.Int32
	budget atomic.Int64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

func newChaosProxy(t *testing.T, target string) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	t.Cleanup(p.close)
	go p.accept()
	return p
}

func (p *chaosProxy) addr() string { return p.ln.Addr().String() }

func (p *chaosProxy) setMode(m int32) {
	p.mode.Store(m)
	if m == proxySever {
		p.mu.Lock()
		for c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
	}
}

func (p *chaosProxy) close() {
	p.mu.Lock()
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.ln.Close()
}

func (p *chaosProxy) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

func (p *chaosProxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *chaosProxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	c.Close()
}

func (p *chaosProxy) accept() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		if p.mode.Load() == proxySever {
			conn.Close()
			continue
		}
		up, err := net.DialTimeout("tcp", p.target, time.Second)
		if err != nil {
			conn.Close()
			continue
		}
		if !p.track(conn) || !p.track(up) {
			conn.Close()
			up.Close()
			continue
		}
		go p.pipe(up, conn)
		go p.pipe(conn, up)
	}
}

// pipe copies src to dst, stalling (not dropping) bytes while the
// proxy is hung.
func (p *chaosProxy) pipe(dst, src net.Conn) {
	defer p.untrack(src)
	defer p.untrack(dst)
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			for p.mode.Load() == proxyHang {
				if p.isClosed() {
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			if p.mode.Load() == proxyTruncate && p.budget.Add(-int64(n)) < 0 {
				return
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// TestClusterShardKillSchedules is the fault-injection acceptance
// harness: three shards behind chaos proxies (shard 0 with a
// WAL-shipped read replica), and 104 seeded schedules that sever or
// hang one shard and then drive reads through the router. Every
// request must end in one of exactly three states — correct result
// (served by a healthy primary or by the replica), or the typed
// shard-unavailable error — within a bounded time; a deadlock, a
// transport-level failure surfacing to the client, or a silently
// partial result fails the harness.
func TestClusterShardKillSchedules(t *testing.T) {
	g := clusterGrid()

	// Shard 0: durable primary shipping its WAL to a replica that
	// serves read-only behind the same registry its lag gauges live in,
	// exactly the zrouted/probed production wiring.
	primFS := faultfs.New()
	shard0, err := probe.Open(g, probe.WithDurability("shard0"), probe.WithFS(primFS))
	if err != nil {
		t.Fatal(err)
	}
	_, shard0Addr := startShard(t, shard0, server.Config{})
	prim, err := repl.NewPrimary(shard0, repl.PrimaryConfig{Heartbeat: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go prim.Serve(pln)
	t.Cleanup(func() { prim.Close() })

	reg := obs.NewRegistry()
	rep, err := repl.NewReplica(repl.ReplicaConfig{
		Primary: pln.Addr().String(), Grid: g,
		PathA: "rep.a", PathB: "rep.b", FS: faultfs.New(),
		RetryInterval: 50 * time.Millisecond,
		Registry:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	repCtx, repCancel := context.WithCancel(context.Background())
	t.Cleanup(repCancel)
	go rep.Run(repCtx)
	t.Cleanup(func() { rep.Close() })
	wctx, wcancel := context.WithTimeout(repCtx, 10*time.Second)
	repDB, err := rep.WaitReady(wctx)
	wcancel()
	if err != nil {
		t.Fatal(err)
	}
	repSrv, repAddr := startShard(t, repDB, server.Config{ReadOnly: true, Metrics: reg})
	rep.SetSwap(repSrv.SwapDB)

	// Shards 1 and 2: plain in-memory servers.
	shardDBs := []*probe.DB{shard0}
	shardAddrs := []string{shard0Addr}
	for i := 1; i < 3; i++ {
		db, err := probe.Open(g)
		if err != nil {
			t.Fatal(err)
		}
		shardDBs = append(shardDBs, db)
		_, addr := startShard(t, db, server.Config{})
		shardAddrs = append(shardAddrs, addr)
	}

	// Chaos proxies in front of every primary; the replica is reached
	// directly (its failure mode is covered by lag gating).
	proxies := make([]*chaosProxy, 3)
	proxied := make([]string, 3)
	for i := range proxies {
		proxies[i] = newChaosProxy(t, shardAddrs[i])
		proxied[i] = proxies[i].addr()
	}

	m, err := BuildEvenMap(DefaultPrefixBits(3), proxied, [][]string{{repAddr}, nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	r, raddr := startRouter(t, m, Config{
		DialTimeout:    300 * time.Millisecond,
		BackendTimeout: 200 * time.Millisecond,
		CancelGrace:    50 * time.Millisecond,
		ProbeInterval:  25 * time.Millisecond,
	})
	cl := dialRouter(t, raddr)
	ctx := context.Background()

	// Seed through the router, checkpoint (ships shard 0's segment),
	// and wait until the replica serves exactly the primary's rows.
	pts := clusterPoints(rand.New(rand.NewSource(404)), 1500, 1)
	insertThrough(t, cl, pts)
	if _, err := cl.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	reference, err := probe.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	defer reference.Close()
	if err := reference.InsertAll(pts); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() error {
		if err := rep.ReadyErr(); err != nil {
			return err
		}
		if got, want := repSrv.DB().Len(), shard0.Len(); got != want {
			return fmt.Errorf("replica has %d points, primary %d", got, want)
		}
		return nil
	})

	// One read through the router, classified. A bounded context is the
	// deadlock detector: nothing in the cluster may sit on a request
	// past the watchdog budget.
	readOnce := func(lo, hi []uint32) (outcome string) {
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		got, _, err := cl.Range(rctx, lo, hi)
		switch {
		case err == nil:
			box, berr := probe.NewBox(lo, hi)
			if berr != nil {
				t.Fatal(berr)
			}
			want, _, rerr := reference.RangeSearch(box)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if d := samePoints(want, got); d != "" {
				t.Fatalf("degraded read differs from reference for %v..%v: %s", lo, hi, d)
			}
			return "ok"
		case errors.Is(err, client.ErrUnavailable):
			return "unavailable"
		default:
			t.Fatalf("read ended in a non-typed state: %v", err)
			return ""
		}
	}

	zlo := func(lo []uint32) uint64 { return r.Grid().ShuffleKey(lo) }

	const schedules = 104
	var okCount, degraded, replicaServed int
	for i := 0; i < schedules; i++ {
		rng := rand.New(rand.NewSource(int64(5000 + i)))
		victim := rng.Intn(3)
		mode := []int32{proxySever, proxyHang}[rng.Intn(2)]
		proxies[victim].setMode(mode)

		for op := 0; op < 2; op++ {
			lo, hi := randBox(rng)
			// The box's lower corner landing on the victim makes a
			// success against a killed shard 0 attributable to the
			// replica.
			needsVictim := m.OwnerOf(zlo(lo)) == victim
			switch readOnce(lo, hi) {
			case "ok":
				okCount++
				if victim == 0 && needsVictim {
					replicaServed++
				}
			case "unavailable":
				degraded++
			}
		}

		proxies[victim].setMode(proxyPass)
		// Every 8th schedule, require full recovery before moving on:
		// the prober must bring the severed/hung node back.
		if i%8 == 7 {
			waitFor(t, 5*time.Second, func() error {
				r.ProbeNow()
				rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
				defer cancel()
				_, _, err := cl.Range(rctx, []uint32{0, 0}, []uint32{1023, 1023})
				return err
			})
		}
	}

	if okCount == 0 || degraded == 0 {
		t.Fatalf("schedules did not exercise both outcomes: ok=%d degraded=%d", okCount, degraded)
	}
	t.Logf("schedules=%d ok=%d degraded=%d (replica-attributable successes=%d)",
		schedules, okCount, degraded, replicaServed)

	// Full recovery: every shard healthy again, a full-region read is
	// exact, and the router reports ready.
	waitFor(t, 10*time.Second, func() error {
		r.ProbeNow()
		if err := r.Ready(); err != nil {
			return err
		}
		rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		defer cancel()
		got, _, err := cl.Range(rctx, []uint32{0, 0}, []uint32{1023, 1023})
		if err != nil {
			return err
		}
		box, _ := probe.NewBox([]uint32{0, 0}, []uint32{1023, 1023})
		want, _, err := reference.RangeSearch(box)
		if err != nil {
			return err
		}
		if d := samePoints(want, got); d != "" {
			return fmt.Errorf("post-recovery read differs: %s", d)
		}
		return nil
	})
}

// TestClusterReadOnlyReplicaRejectsWrites pins the replica's
// front-door contract through real wiring: writes to a ReadOnly
// server come back as the typed read-only error.
func TestClusterReadOnlyReplicaRejectsWrites(t *testing.T) {
	db, err := probe.Open(clusterGrid())
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startShard(t, db, server.Config{ReadOnly: true})
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Insert(context.Background(), []probe.Point{probe.Pt2(1, 2, 3)}); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("insert on replica: got %v, want ErrReadOnly", err)
	}
	if _, _, err := cl.Range(context.Background(), []uint32{0, 0}, []uint32{10, 10}); err != nil {
		t.Fatalf("read on replica: %v", err)
	}
}

// waitFor polls fn until it returns nil or the deadline passes.
func waitFor(t *testing.T, d time.Duration, fn func() error) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		err := fn()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached in %s: %v", d, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
