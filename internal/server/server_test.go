package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"probe"
	"probe/client"
)

// testGrid is the 1024x1024 space every server test runs on.
func testGrid() probe.Grid { return probe.MustGrid(2, 10) }

func randPoints(rng *rand.Rand, n int, idBase uint64) []probe.Point {
	pts := make([]probe.Point, n)
	for i := range pts {
		pts[i] = probe.Pt2(idBase+uint64(i), uint32(rng.Intn(1024)), uint32(rng.Intn(1024)))
	}
	return pts
}

// startServer opens a durable database at a temp path, seeds it,
// starts a server on a loopback listener, and returns everything a
// test needs. Shutdown is NOT registered as cleanup: tests own it.
func startServer(t *testing.T, cfg Config, seed []probe.Point) (*Server, string, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db")
	db, err := probe.Open(testGrid(), probe.WithDurability(path), probe.WithPoolPages(64))
	if err != nil {
		t.Fatal(err)
	}
	if len(seed) > 0 {
		if err := db.InsertAll(seed); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(db, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv, ln.Addr().String(), path
}

func dial(t *testing.T, addr string) *client.Conn {
	t.Helper()
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func sortPoints(pts []probe.Point) {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].ID != pts[j].ID {
			return pts[i].ID < pts[j].ID
		}
		return false
	})
}

func samePoints(t *testing.T, what string, got, want []probe.Point) {
	t.Helper()
	sortPoints(got)
	sortPoints(want)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d points, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("%s: point %d: got id %d, want %d", what, i, got[i].ID, want[i].ID)
		}
	}
}

func sortPairs(ps []probe.Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
}

// boxesOverlap is the brute-force oracle for the shipped-relation
// join: element decomposition at full resolution makes the join
// exactly box intersection.
func boxesOverlap(a, b client.BoxItem) bool {
	for d := range a.Lo {
		if a.Hi[d] < b.Lo[d] || b.Hi[d] < a.Lo[d] {
			return false
		}
	}
	return true
}

// TestEndToEndMixedWorkload is the acceptance test: 8 concurrent
// client connections run mixed INSERT then RANGE/JOIN/NNEAREST
// against a durable store; every query result must equal the direct
// library call (or the brute-force oracle); the drain checkpoints and
// the store reopens clean.
func TestEndToEndMixedWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	seed := randPoints(rng, 4000, 0)
	srv, addr, path := startServer(t, Config{MaxInflight: 16, BatchSize: 64}, seed)
	db := srv.DB()

	const conns = 8

	// Phase 1: each connection inserts its own disjoint id block.
	var wg sync.WaitGroup
	insErr := make([]error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := client.Dial(addr)
			if err != nil {
				insErr[i] = err
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(int64(100 + i)))
			pts := randPoints(rng, 100, uint64(10000+i*1000))
			if _, err := cl.Insert(context.Background(), pts); err != nil {
				insErr[i] = err
			}
		}(i)
	}
	wg.Wait()
	for i, err := range insErr {
		if err != nil {
			t.Fatalf("conn %d insert: %v", i, err)
		}
	}
	if got, want := db.Len(), 4000+conns*100; got != want {
		t.Fatalf("after inserts: Len = %d, want %d", got, want)
	}

	// Direct library answers, computed once on the now-stable state.
	type rangeCase struct {
		lo, hi []uint32
		want   []probe.Point
	}
	cases := make([]rangeCase, conns)
	for i := range cases {
		lo := []uint32{uint32(i * 100), uint32(i * 50)}
		hi := []uint32{min(lo[0]+400, 1023), lo[1] + 500} // the wire refuses a box outside the grid
		box, err := probe.NewBox(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := db.RangeSearch(box)
		if err != nil {
			t.Fatal(err)
		}
		cases[i] = rangeCase{lo: lo, hi: hi, want: want}
	}
	q := []uint32{512, 512}
	wantNbs, _, err := db.Nearest(q, 10, probe.Euclidean)
	if err != nil {
		t.Fatal(err)
	}

	// A join relation pair and its brute-force oracle.
	jrng := rand.New(rand.NewSource(7))
	mkRel := func(n int, base uint64) []client.BoxItem {
		items := make([]client.BoxItem, n)
		for i := range items {
			x, y := uint32(jrng.Intn(900)), uint32(jrng.Intn(900))
			items[i] = client.BoxItem{
				ID: base + uint64(i),
				Lo: []uint32{x, y},
				Hi: []uint32{x + uint32(jrng.Intn(100)), y + uint32(jrng.Intn(100))},
			}
		}
		return items
	}
	relA, relB := mkRel(40, 0), mkRel(40, 1000)
	var wantPairs []probe.Pair
	for _, a := range relA {
		for _, b := range relB {
			if boxesOverlap(a, b) {
				wantPairs = append(wantPairs, probe.Pair{A: a.ID, B: b.ID})
			}
		}
	}
	sortPairs(wantPairs)

	// Phase 2: concurrent mixed queries, each checked against the
	// direct answer.
	qErr := make([]error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := client.Dial(addr)
			if err != nil {
				qErr[i] = err
				return
			}
			defer cl.Close()
			ctx := context.Background()
			for iter := 0; iter < 6; iter++ {
				c := cases[(i+iter)%len(cases)]
				got, _, err := cl.Range(ctx, c.lo, c.hi)
				if err != nil {
					qErr[i] = fmt.Errorf("range: %w", err)
					return
				}
				if len(got) != len(c.want) {
					qErr[i] = fmt.Errorf("range: got %d points, want %d", len(got), len(c.want))
					return
				}
				switch iter % 3 {
				case 0:
					workers := 0
					if i%2 == 1 {
						workers = 4
					}
					pairs, _, err := cl.Join(ctx, relA, relB, workers)
					if err != nil {
						qErr[i] = fmt.Errorf("join: %w", err)
						return
					}
					sortPairs(pairs)
					if len(pairs) != len(wantPairs) {
						qErr[i] = fmt.Errorf("join: got %d pairs, want %d", len(pairs), len(wantPairs))
						return
					}
					for j := range pairs {
						if pairs[j] != wantPairs[j] {
							qErr[i] = fmt.Errorf("join: pair %d: got %v, want %v", j, pairs[j], wantPairs[j])
							return
						}
					}
				case 1:
					nbs, _, err := cl.Nearest(ctx, q, 10, probe.Euclidean)
					if err != nil {
						qErr[i] = fmt.Errorf("nearest: %w", err)
						return
					}
					if len(nbs) != len(wantNbs) {
						qErr[i] = fmt.Errorf("nearest: got %d, want %d", len(nbs), len(wantNbs))
						return
					}
					for j := range nbs {
						if nbs[j].Point.ID != wantNbs[j].Point.ID {
							qErr[i] = fmt.Errorf("nearest: rank %d: got id %d, want %d",
								j, nbs[j].Point.ID, wantNbs[j].Point.ID)
							return
						}
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range qErr {
		if err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
	}

	// One checked full-result range via the client for exact identity.
	cl := dial(t, addr)
	got, _, err := cl.Range(context.Background(), cases[0].lo, cases[0].hi)
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, "final range", got, cases[0].want)

	// Drain, then reopen: the checkpointed store must carry everything.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	db2, err := probe.Open(testGrid(), probe.WithDurability(path))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if got, want := db2.Len(), 4000+conns*100; got != want {
		t.Fatalf("reopened Len = %d, want %d", got, want)
	}
	box, _ := probe.NewBox(cases[0].lo, cases[0].hi)
	reGot, _, err := db2.RangeSearch(box)
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, "reopened range", reGot, cases[0].want)
}

// TestConsumerStopMidStream: the client-side fn returning false ends
// the stream without error, mirroring the library's RangeSearchFunc.
func TestConsumerStopMidStream(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, addr, _ := startServer(t, Config{BatchSize: 16}, randPoints(rng, 20000, 0))
	cl := dial(t, addr)

	n := 0
	_, err := cl.RangeFunc(context.Background(), []uint32{0, 0}, []uint32{1023, 1023}, func(probe.Point) bool {
		n++
		return n < 10
	})
	if err != nil {
		t.Fatalf("early stop: %v", err)
	}
	if n != 10 {
		t.Fatalf("fn called %d times, want 10", n)
	}
	if _, _, err := cl.Range(context.Background(), []uint32{0, 0}, []uint32{50, 50}); err != nil {
		t.Fatalf("query after early stop: %v", err)
	}
}

// TestShutdownDrains: shutting down mid-traffic produces only typed
// or transport errors on clients, Shutdown itself returns clean, and
// the checkpointed store reopens with everything.
func TestShutdownDrains(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	seed := randPoints(rng, 5000, 0)
	srv, addr, path := startServer(t, Config{DrainTimeout: 2 * time.Second, BatchSize: 64}, seed)

	stop := make(chan error, 1)
	go func() {
		cl, err := client.Dial(addr)
		if err != nil {
			stop <- err
			return
		}
		defer cl.Close()
		for {
			if _, _, err := cl.Range(context.Background(), []uint32{0, 0}, []uint32{1023, 1023}); err != nil {
				stop <- err
				return
			}
		}
	}()

	time.Sleep(100 * time.Millisecond) // let a few queries through
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	err := <-stop
	if err == nil {
		t.Fatal("client loop ended without error")
	}
	if !errors.Is(err, client.ErrShuttingDown) && !errors.Is(err, client.ErrCanceled) &&
		!isTransport(err) {
		t.Fatalf("drain-time client error: %v (type %T)", err, err)
	}

	db2, err := probe.Open(testGrid(), probe.WithDurability(path))
	if err != nil {
		t.Fatalf("reopen after drain: %v", err)
	}
	defer db2.Close()
	if db2.Len() != 5000 {
		t.Fatalf("reopened Len = %d, want 5000", db2.Len())
	}
}

func isTransport(err error) bool {
	var ne net.Error
	return errors.Is(err, net.ErrClosed) || errors.As(err, &ne) ||
		strings.Contains(err.Error(), "EOF") || strings.Contains(err.Error(), "reset")
}

// TestExplainStatsCheckpoint exercises the three non-streaming verbs.
func TestExplainStatsCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_, addr, _ := startServer(t, Config{}, randPoints(rng, 500, 0))
	cl := dial(t, addr)
	ctx := context.Background()

	plan, err := cl.Explain(ctx, []uint32{0, 0}, []uint32{100, 100})
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if !strings.Contains(plan, "scan") {
		t.Fatalf("explain plan %q does not name an access path", plan)
	}

	if _, err := cl.Checkpoint(ctx); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	// The structured snapshot carries both registries: server-side
	// request counters and database operation counters, with the
	// latency histogram summaries the registry flattens in.
	if got := stats["server.server.requests"]; got < 2 {
		t.Fatalf("server.server.requests = %d, want >= 2 (explain + checkpoint ran)", got)
	}
	if _, ok := stats["db.checkpoint.count"]; !ok {
		t.Fatalf("stats %v missing db.checkpoint.count", stats)
	}
	if got := stats["server.server.latency.explain.count"]; got != 1 {
		t.Fatalf("explain latency histogram count = %d, want 1", got)
	}
}
