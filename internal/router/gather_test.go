package router

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"probe"
	"probe/internal/server"
)

// gatherCluster is n in-memory shards behind chaos proxies and a
// router, holding the same points as one single-node oracle. Batches
// are 8 rows at both layers so every stream crosses many batch
// boundaries and the read-ahead channels fill.
type gatherCluster struct {
	r       *Router
	proxies []*chaosProxy
	single  *probe.DB
}

func newGatherCluster(t *testing.T, shards, points int) *gatherCluster {
	t.Helper()
	return newGatherClusterOf(t, shards, clusterPoints(rand.New(rand.NewSource(19)), points, 1))
}

// newGatherClusterOf is newGatherCluster over the given points.
func newGatherClusterOf(t *testing.T, shards int, pts []probe.Point) *gatherCluster {
	t.Helper()
	g := clusterGrid()
	gc := &gatherCluster{proxies: make([]*chaosProxy, shards)}
	addrs := make([]string, shards)
	for i := range addrs {
		db, err := probe.Open(g)
		if err != nil {
			t.Fatal(err)
		}
		_, addr := startShard(t, db, server.Config{BatchSize: 8})
		gc.proxies[i] = newChaosProxy(t, addr)
		addrs[i] = gc.proxies[i].addr()
	}
	m, err := BuildEvenMap(DefaultPrefixBits(shards), addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A stopped scatter cancels its readers through the client's CANCEL
	// round trip; a generous grace keeps a loaded machine from severing
	// a healthy connection instead.
	gc.r, _ = startRouter(t, m, Config{BatchSize: 8, CancelGrace: 10 * time.Second, DialTimeout: time.Second})

	if len(pts) > 0 {
		if _, err := gc.r.Insert(context.Background(), pts); err != nil {
			t.Fatal(err)
		}
	}
	if gc.single, err = probe.Open(g); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gc.single.Close() })
	if err := gc.single.InsertAll(pts); err != nil {
		t.Fatal(err)
	}
	return gc
}

// stream collects what Router.Range delivers for box until stop says
// otherwise (nil = never).
func (gc *gatherCluster) stream(box probe.Box, stop func(rows int) bool) ([]probe.Point, probe.QueryStats, error) {
	var got []probe.Point
	qs, err := gc.r.Range(context.Background(), box, func(p probe.Point) bool {
		got = append(got, p)
		return stop == nil || !stop(len(got))
	})
	return got, qs, err
}

func (gc *gatherCluster) want(t *testing.T, box probe.Box) []probe.Point {
	t.Helper()
	want, _, err := gc.single.RangeSearch(box)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGatherMatchesSingleNode: for boxes whose scatter reaches 2, 3, …
// n shards — including shards in the middle of the run that hold
// nothing in the box, and a box nothing lives in at all — the stream
// drained in shard order is the single node's, row for row. Five
// shards, not four: four even shards are the grid's quadrants, and a
// box owns pixels of one, two or four quadrants, never three.
func TestGatherMatchesSingleNode(t *testing.T) {
	const shards = 5
	gc := newGatherCluster(t, shards, 3000)
	boxes := []probe.Box{
		probe.Box2(0, 1023, 0, 1023),
		probe.Box2(100, 600, 100, 200), // across the x midline only
		probe.Box2(100, 200, 100, 600), // across the y midline only
		probe.Box2(600, 900, 300, 700),
		probe.Box2(300, 700, 600, 900),
		probe.Box2(500, 520, 500, 520), // the centre: every quadrant, few rows
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 40; i++ {
		lo, hi := randBox(rng)
		boxes = append(boxes, probe.Box2(lo[0], hi[0], lo[1], hi[1]))
	}
	// Empty the centre of the x midline: a multi-shard box no shard has
	// a row for.
	hole := probe.Box2(505, 518, 40, 60)
	if doomed := gc.want(t, hole); len(doomed) > 0 {
		if _, err := gc.r.Delete(context.Background(), doomed); err != nil {
			t.Fatal(err)
		}
		for _, p := range doomed {
			if _, err := gc.single.Delete(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	boxes = append(boxes, hole)

	seen := map[int]int{}
	for _, box := range boxes {
		fan, err := gc.r.shardsFor(box)
		if err != nil {
			t.Fatal(err)
		}
		seen[len(fan)]++
		want := gc.want(t, box)
		got, qs, err := gc.stream(box, nil)
		if err != nil {
			t.Fatalf("%v over %d shards: %v", box, len(fan), err)
		}
		if d := samePoints(want, got); d != "" {
			t.Fatalf("%v over %d shards: gathered stream differs from single node: %s", box, len(fan), d)
		}
		if qs.Results != len(want) {
			t.Fatalf("%v: Results %d, want %d", box, qs.Results, len(want))
		}
	}
	for k := 2; k <= shards; k++ {
		if seen[k] == 0 {
			t.Errorf("no box scattered to %d shards (fan-outs seen: %v)", k, seen)
		}
	}
	if fan, _ := gc.r.shardsFor(hole); len(fan) < 2 || len(gc.want(t, hole)) != 0 {
		t.Errorf("the empty box reaches %d shards and holds %d rows; want a multi-shard box with none",
			len(fan), len(gc.want(t, hole)))
	}
}

// idleConns counts the pooled connections of every primary.
func (gc *gatherCluster) idleConns() []int {
	n := make([]int, len(gc.r.backends))
	for i, b := range gc.r.backends {
		b.primary.mu.Lock()
		n[i] = len(b.primary.idle)
		b.primary.mu.Unlock()
	}
	return n
}

// TestGatherEarlyStop: a consumer that stops at row k — for every k of
// a stream that crosses all shards — gets exactly the single node's
// first k rows and no error, and by the time Range returns every
// reader has unwound and put its connection back in its pool intact.
func TestGatherEarlyStop(t *testing.T) {
	gc := newGatherCluster(t, 3, 2500)
	box := probe.Box2(380, 640, 380, 640)
	want := gc.want(t, box)
	if fan, _ := gc.r.shardsFor(box); len(fan) != 3 || len(want) < 100 {
		t.Fatalf("box reaches %d shards with %d rows; the test needs all 3 and a long stream", len(fan), len(want))
	}
	// One request at a time: each shard's pool holds the one connection
	// the loading and the first scatter dialed.
	if _, _, err := gc.stream(box, nil); err != nil {
		t.Fatal(err)
	}
	pooled := gc.idleConns()
	for k := 1; k <= len(want); k++ {
		got, qs, err := gc.stream(box, func(rows int) bool { return rows == k })
		if err != nil {
			t.Fatalf("stop at row %d: %v", k, err)
		}
		if d := samePoints(want[:k], got); d != "" {
			t.Fatalf("stop at row %d: delivered prefix differs: %s", k, d)
		}
		if qs.Results != k {
			t.Fatalf("stop at row %d: Results %d", k, qs.Results)
		}
		for i, n := range gc.idleConns() {
			if n != pooled[i] {
				t.Fatalf("stop at row %d: shard %d pools %d connections, %d before the scatter", k, i, n, pooled[i])
			}
		}
	}
	if err := gc.r.Ready(); err != nil {
		t.Fatalf("after %d stopped scatters: %v", len(want), err)
	}
}

// TestGatherShardFailsMidStream: a shard whose answer breaks off part
// way — first, middle or last in the drain order — ends the request
// with the typed *ShardError naming it, after a strict prefix of the
// true stream and never a row out of place; once the shard is back the
// same scatter is whole again.
func TestGatherShardFailsMidStream(t *testing.T) {
	gc := newGatherCluster(t, 3, 3000)
	box := probe.Box2(0, 1023, 0, 1023)
	want := gc.want(t, box)
	for victim, proxy := range gc.proxies {
		// Room for the request and a few dozen rows of the answer, far
		// short of the shard's ~1000.
		proxy.budget.Store(1500)
		proxy.setMode(proxyTruncate)
		got, _, err := gc.stream(box, nil)
		var se *ShardError
		if !errors.As(err, &se) || se.Shard != victim || !errors.Is(err, ErrShardUnavailable) {
			t.Fatalf("shard %d cut mid-stream: got %v after %d rows, want its *ShardError", victim, err, len(got))
		}
		if len(got) >= len(want) {
			t.Fatalf("shard %d cut mid-stream: %d rows delivered of %d", victim, len(got), len(want))
		}
		if d := samePoints(want[:len(got)], got); d != "" {
			t.Fatalf("shard %d cut mid-stream: delivered rows are not a prefix of the stream: %s", victim, d)
		}
		if victim > 0 && len(got) == 0 {
			t.Fatalf("shard %d cut mid-stream: the shards before it delivered nothing", victim)
		}

		proxy.setMode(proxyPass)
		gc.r.ProbeNow()
		got, _, err = gc.stream(box, nil)
		if err != nil {
			t.Fatalf("after shard %d came back: %v", victim, err)
		}
		if d := samePoints(want, got); d != "" {
			t.Fatalf("after shard %d came back: %s", victim, d)
		}
	}
}
