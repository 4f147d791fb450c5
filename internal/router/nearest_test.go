package router

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"probe"
	"probe/client"
	"probe/internal/core"
)

// nearestCase is one NEAREST request of a differential.
type nearestCase struct {
	q      []uint32
	m      int
	metric probe.Metric
}

func (c nearestCase) String() string { return fmt.Sprintf("nearest %v m=%d %v", c.q, c.m, c.metric) }

// sameNeighbors compares two neighbour lists field by field: what the
// wire carries of a neighbour is its point and its distance.
func sameNeighbors(want, got []probe.Neighbor) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d vs %d neighbours", len(want), len(got))
	}
	for i := range want {
		if want[i].Dist != got[i].Dist || want[i].Point.ID != got[i].Point.ID ||
			!slices.Equal(want[i].Point.Coords, got[i].Point.Coords) {
			return fmt.Sprintf("neighbour %d: %+v vs %+v", i, want[i], got[i])
		}
	}
	return ""
}

// boundaryCases lists the query points where the owner changes or the
// certified box is clipped: the first and the last pixel of every
// shard's z-range and the grid's four corners, under both metrics.
func boundaryCases(t *testing.T, r *Router, m int) []nearestCase {
	t.Helper()
	g := r.Grid()
	var qs [][]uint32
	for i := range r.m.Shards {
		rg, err := r.m.Range(i)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, g.UnshuffleKey(rg.Lo), g.UnshuffleKey(rg.Hi))
	}
	x, y := uint32(g.SideOf(0)-1), uint32(g.SideOf(1)-1)
	qs = append(qs, []uint32{0, 0}, []uint32{x, 0}, []uint32{0, y}, []uint32{x, y})
	var cases []nearestCase
	for _, q := range qs {
		cases = append(cases, nearestCase{q, m, probe.Euclidean}, nearestCase{q, m, probe.Chebyshev})
	}
	return cases
}

// nearestPlan recomputes, from the single node's answer, the shards a
// two-phase NEAREST must ask: the owner, and the cover of the box the
// owner's m-th distance certifies (every shard when it holds fewer).
func nearestPlan(t *testing.T, gc *gatherCluster, c nearestCase) (owner int, asked []int) {
	t.Helper()
	g := gc.r.Grid()
	owner = gc.r.m.OwnerOf(g.ShuffleKey(c.q))
	own, _, err := gc.r.backends[owner].nearest(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(own) < c.m {
		return owner, gc.r.allShards()
	}
	lo, hi := make([]uint32, len(c.q)), make([]uint32, len(c.q))
	core.RingBox(g, c.q, uint64(math.Ceil(own[c.m-1].Dist)), lo, hi)
	return owner, gc.r.m.Cover(g, lo, hi)
}

// nearest asks one shard directly.
func (b *backend) nearest(c nearestCase) (nbs []probe.Neighbor, qs probe.QueryStats, err error) {
	err = b.read(context.Background(), func(ctx context.Context, cl *client.Conn) error {
		nbs, qs, err = cl.Nearest(ctx, c.q, c.m, c.metric)
		return err
	})
	return nbs, qs, err
}

// fanoutOf runs one NEAREST and returns what it added to
// router.fanout.shards: the number of shards it asked.
func fanoutOf(t *testing.T, gc *gatherCluster, c nearestCase) ([]probe.Neighbor, int64, error) {
	t.Helper()
	h := gc.r.Metrics().Histogram("router.fanout.shards")
	before := h.Snapshot()
	got, _, err := gc.r.Nearest(context.Background(), c.q, c.m, c.metric)
	after := h.Snapshot()
	if after.Count != before.Count+1 {
		t.Fatalf("%v: %d fan-out observations, want 1", c, after.Count-before.Count)
	}
	return got, after.Sum - before.Sum, err
}

// TestNearestSparseCluster: a cluster whose middle shard holds two
// points, and m around the owner's, a shard's and the cluster's count.
// Every answer is the single node's, and the shards asked are the ones
// the plan names: all of them exactly when the owner holds fewer than m.
func TestNearestSparseCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var pts []probe.Point
	for len(pts) < 120 {
		// Shards 0 and 2 of an even 3-shard map own the low and the
		// high z-prefixes: the lower-left and the upper-right quadrants
		// lie wholly in them.
		x, y := uint32(rng.Intn(512)), uint32(rng.Intn(512))
		if len(pts)%2 == 1 {
			x, y = x+512, y+512
		}
		pts = append(pts, probe.Pt2(uint64(len(pts)+1), x, y))
	}
	gc := newGatherClusterOf(t, 3, pts)
	g := gc.r.Grid()
	mid, err := gc.r.m.Range(1)
	if err != nil {
		t.Fatal(err)
	}
	sparse := []probe.Point{
		{ID: 1001, Coords: g.UnshuffleKey(mid.Lo)},
		{ID: 1002, Coords: g.UnshuffleKey(mid.Hi)},
	}
	if _, err := gc.r.Insert(context.Background(), sparse); err != nil {
		t.Fatal(err)
	}
	if err := gc.single.InsertAll(sparse); err != nil {
		t.Fatal(err)
	}

	var cases []nearestCase
	for _, m := range []int{1, 2, 3, 8, 60, 61, 121, 122, 123, 500} {
		cases = append(cases, boundaryCases(t, gc.r, m)...)
		for i := 0; i < 6; i++ {
			q := []uint32{uint32(rng.Intn(1024)), uint32(rng.Intn(1024))}
			cases = append(cases, nearestCase{q, m, probe.Metric(i % 2)})
		}
	}
	fanouts := map[int64]int{}
	for _, c := range cases {
		want, _, err := gc.single.Nearest(c.q, c.m, c.metric)
		if err != nil {
			t.Fatal(err)
		}
		_, asked := nearestPlan(t, gc, c)
		got, fanout, err := fanoutOf(t, gc, c)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if d := sameNeighbors(want, got); d != "" {
			t.Fatalf("%v over shards %v: %s", c, asked, d)
		}
		if fanout != int64(len(asked)) {
			t.Fatalf("%v: asked %d shards, the plan names %v", c, fanout, asked)
		}
		fanouts[fanout]++
	}
	for n := int64(1); n <= 3; n++ {
		if fanouts[n] == 0 {
			t.Errorf("no case asked %d shards (seen: %v)", n, fanouts)
		}
	}
}

// TestNearestFanoutMetric pins what router.fanout.shards records for
// a NEAREST: the shards asked over both phases. One for a point deep
// inside a shard, every shard for an empty cluster.
func TestNearestFanoutMetric(t *testing.T) {
	gc := newGatherCluster(t, 3, 3000)
	c := nearestCase{[]uint32{100, 100}, 8, probe.Euclidean}
	want, _, err := gc.single.Nearest(c.q, c.m, c.metric)
	if err != nil {
		t.Fatal(err)
	}
	got, fanout, err := fanoutOf(t, gc, c)
	if err != nil {
		t.Fatal(err)
	}
	if d := sameNeighbors(want, got); d != "" {
		t.Fatal(d)
	}
	if fanout != 1 {
		t.Errorf("%v, deep inside shard 0: asked %d shards, want 1", c, fanout)
	}

	empty := newGatherClusterOf(t, 3, nil)
	got, fanout, err = fanoutOf(t, empty, c)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty cluster: %d neighbours, %v", len(got), err)
	}
	if fanout != 3 {
		t.Errorf("empty cluster: asked %d shards, want all 3", fanout)
	}
}

// TestNearestAvailability pins which stopped shard fails a NEAREST: the
// owner and a shard inside the certified box's cover do, with the typed
// *ShardError naming them and never a shorter list; a shard outside the
// cover is not asked and may be down. No shard has a replica.
func TestNearestAvailability(t *testing.T) {
	gc := newGatherCluster(t, 3, 3000)
	g := gc.r.Grid()
	rg, err := gc.r.m.Range(1)
	if err != nil {
		t.Fatal(err)
	}
	// The first pixel of shard 1: its neighbourhood reaches back into
	// shard 0 and stays clear of shard 2.
	c := nearestCase{g.UnshuffleKey(rg.Lo), 8, probe.Euclidean}
	owner, asked := nearestPlan(t, gc, c)
	if owner != 1 || !slices.Equal(asked, []int{0, 1}) {
		t.Fatalf("%v: owner %d, cover %v; the test needs owner 1 and cover [0 1]", c, owner, asked)
	}
	want, _, err := gc.single.Nearest(c.q, c.m, c.metric)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		victim int
		fails  bool
		fanout int64
	}{
		{"outside the cover", 2, false, 2},
		{"the owner", 1, true, 1},
		{"inside the cover", 0, true, 2},
	} {
		gc.proxies[tc.victim].setMode(proxySever)
		got, fanout, err := fanoutOf(t, gc, c)
		var se *ShardError
		switch {
		case !tc.fails && err != nil:
			t.Errorf("shard %d (%s) down: %v, want the full answer", tc.victim, tc.name, err)
		case !tc.fails:
			if d := sameNeighbors(want, got); d != "" {
				t.Errorf("shard %d (%s) down: %s", tc.victim, tc.name, d)
			}
		case !errors.As(err, &se) || se.Shard != tc.victim || !errors.Is(err, ErrShardUnavailable) || got != nil:
			t.Errorf("shard %d (%s) down: %d neighbours and %v, want none and its *ShardError", tc.victim, tc.name, len(got), err)
		}
		if fanout != tc.fanout {
			t.Errorf("shard %d (%s) down: fan-out recorded as %d, want %d", tc.victim, tc.name, fanout, tc.fanout)
		}
		gc.proxies[tc.victim].setMode(proxyPass)
		gc.r.ProbeNow()
		if got, _, err := gc.r.Nearest(context.Background(), c.q, c.m, c.metric); err != nil || sameNeighbors(want, got) != "" {
			t.Fatalf("after shard %d came back: %v %s", tc.victim, err, sameNeighbors(want, got))
		}
	}
}

// TestNearestTieAcrossShards: two points at the same distance from the
// query, on different shards, and room for one of them. The single node
// keeps the smaller id (core.compareCandidates); so must the fold
// (neighborLess), whichever shard holds it.
func TestNearestTieAcrossShards(t *testing.T) {
	for _, farID := range []uint64{1, 3} {
		gc := newGatherClusterOf(t, 3, nil)
		g := gc.r.Grid()
		rg, err := gc.r.m.Range(1)
		if err != nil {
			t.Fatal(err)
		}
		q := g.UnshuffleKey(rg.Lo)
		near := probe.Pt2(2, q[0]+3, q[1])
		far := probe.Pt2(farID, q[0]-3, q[1])
		if gc.r.m.OwnerOf(g.ShuffleKey(far.Coords)) == 1 {
			far = probe.Pt2(farID, q[0], q[1]-3)
		}
		if a, b := gc.r.m.OwnerOf(g.ShuffleKey(near.Coords)), gc.r.m.OwnerOf(g.ShuffleKey(far.Coords)); a != 1 || b == 1 {
			t.Fatalf("points %v and %v live on shards %d and %d; the test needs shard 1 and another", near, far, a, b)
		}
		pts := []probe.Point{near, far, probe.Pt2(9, q[0]+40, q[1]+40)}
		if _, err := gc.r.Insert(context.Background(), pts); err != nil {
			t.Fatal(err)
		}
		if err := gc.single.InsertAll(pts); err != nil {
			t.Fatal(err)
		}
		for _, c := range []nearestCase{{q, 1, probe.Euclidean}, {q, 1, probe.Chebyshev}, {q, 2, probe.Euclidean}, {q, 3, probe.Chebyshev}} {
			want, _, err := gc.single.Nearest(c.q, c.m, c.metric)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := gc.r.Nearest(context.Background(), c.q, c.m, c.metric)
			if err != nil {
				t.Fatal(err)
			}
			if d := sameNeighbors(want, got); d != "" {
				t.Errorf("far point has id %d, %v: %s", farID, c, d)
			}
			if want[0].Point.ID != min(farID, 2) {
				t.Fatalf("far point has id %d, %v: the single node answers id %d first", farID, c, want[0].Point.ID)
			}
		}
	}
}
