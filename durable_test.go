package probe_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"probe"
	"probe/internal/disk"
	"probe/internal/disk/faultfs"
)

// collect drains the database into an id -> (x, y) map via Scan.
func collect(t *testing.T, db *probe.DB) map[uint64][2]uint32 {
	t.Helper()
	got := map[uint64][2]uint32{}
	if err := db.Scan(func(p probe.Point) bool {
		got[p.ID] = [2]uint32{p.Coords[0], p.Coords[1]}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestDurableCreateCheckpointReopen(t *testing.T) {
	g := probe.MustGrid(2, 8)
	path := filepath.Join(t.TempDir(), "probe.db")

	db, err := probe.Open(g, probe.WithDurability(path), probe.WithPageSize(256))
	if err != nil {
		t.Fatal(err)
	}
	if rec, _ := db.Recovered(); rec {
		t.Fatal("fresh database reports recovered")
	}
	for i := uint64(0); i < 200; i++ {
		if err := db.Insert(probe.Pt2(i, uint32(i%256), uint32((i*7)%256))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := collect(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: same grid, no page-size option (it is read from disk).
	db2, err := probe.Open(g, probe.WithDurability(path))
	if err != nil {
		t.Fatal(err)
	}
	if rec, _ := db2.Recovered(); !rec {
		t.Fatal("reopened database does not report recovered")
	}
	if db2.Len() != 200 {
		t.Fatalf("reopened Len %d, want 200", db2.Len())
	}
	if got := collect(t, db2); len(got) != len(want) {
		t.Fatalf("reopened scan has %d points, want %d", len(got), len(want))
	} else {
		for id, xy := range want {
			if got[id] != xy {
				t.Fatalf("point %d: got %v, want %v", id, got[id], xy)
			}
		}
	}
	if err := db2.Index().Tree().CheckInvariants(); err != nil {
		t.Fatalf("recovered tree invariants: %v", err)
	}
	// Queries answer from the recovered index.
	pts, _, err := db2.RangeSearch(probe.Box2(0, 50, 0, 255))
	if err != nil {
		t.Fatal(err)
	}
	brute := 0
	for _, xy := range want {
		if xy[0] <= 50 {
			brute++
		}
	}
	if len(pts) != brute {
		t.Fatalf("recovered range search found %d points, brute force says %d", len(pts), brute)
	}
	// The recovered database accepts new work; Close checkpoints it.
	if err := db2.Insert(probe.Pt2(1000, 3, 3)); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, err := probe.Open(g, probe.WithDurability(path))
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if db3.Len() != 201 {
		t.Fatalf("after close-reopen Len %d, want 201", db3.Len())
	}
}

func TestDurableCrashRollsBackToCheckpoint(t *testing.T) {
	g := probe.MustGrid(2, 8)
	fsys := faultfs.New()
	db, err := probe.Open(g, probe.WithDurability("probe.db"), probe.WithFS(fsys), probe.WithPageSize(256))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50; i++ {
		if err := db.Insert(probe.Pt2(i, uint32(i), uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// More inserts, never checkpointed: a crash must lose exactly these.
	for i := uint64(100); i < 150; i++ {
		if err := db.Insert(probe.Pt2(i, uint32(i%256), 7)); err != nil {
			t.Fatal(err)
		}
	}
	img := fsys.CrashImage() // crash now — no Close
	db2, err := probe.Open(g, probe.WithDurability("probe.db"), probe.WithFS(img))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got := collect(t, db2)
	if len(got) != 50 {
		t.Fatalf("recovered %d points, want the 50 checkpointed ones", len(got))
	}
	for i := uint64(0); i < 50; i++ {
		if got[i] != [2]uint32{uint32(i), uint32(i)} {
			t.Fatalf("checkpointed point %d missing or wrong: %v", i, got[i])
		}
	}
}

func TestDurableGridMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "probe.db")
	db, err := probe.Open(probe.MustGrid(2, 8), probe.WithDurability(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Open(probe.MustGrid(2, 10), probe.WithDurability(path)); err == nil ||
		!strings.Contains(err.Error(), "grid bits") {
		t.Fatalf("grid mismatch not rejected: %v", err)
	}
}

// writeDescriptorOnly creates a store at path that holds nothing but a
// hand-built database descriptor of the given format version and value
// size for a grid of the given bits: its tree root names a page that
// was never allocated, so an Open that got as far as the tree could
// only fail on that page.
func writeDescriptorOnly(t *testing.T, path string, version, valueSize uint32, bits ...int) {
	t.Helper()
	rs, err := disk.CreateRecoverableStore(disk.OSFS{}, path, 256)
	if err != nil {
		t.Fatal(err)
	}
	if id, err := rs.Allocate(); err != nil || id != 1 {
		t.Fatalf("descriptor page allocated as %d, %v", id, err)
	}
	buf := make([]byte, 256)
	copy(buf, "PROBEDB1")
	words := []uint32{version, uint32(len(bits))}
	for _, b := range bits {
		words = append(words, uint32(b))
	}
	words = append(words, 99 /* root */, 1 /* height */, 1 /* leaves */, 20 /* leaf capacity */, valueSize)
	for i, w := range words {
		binary.LittleEndian.PutUint32(buf[8+4*i:], w)
	}
	if err := rs.Write(1, buf); err != nil {
		t.Fatal(err)
	}
	if err := rs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableRefusesFormatVersion1: a store written before keys took
// the grid's width (version 1: 16-byte keys), before leaves stored
// them against a frame (version 2), before a frame held more than one
// id base (version 3), before its fields were packed in bits (version
// 4), before its z fields were taken from a base per block of 32
// entries (version 5), before they were gaps from the previous key
// (version 6) or before internal pages held their separators at a
// fixed stride (version 7) has other pages behind the same descriptor,
// so it is refused by its version, in one sentence that says what to
// do.
func TestDurableRefusesFormatVersion1(t *testing.T) {
	for _, version := range []uint32{1, 2, 3, 4, 5, 6, 7} {
		path := filepath.Join(t.TempDir(), "probe.db")
		writeDescriptorOnly(t, path, version, 0, 8, 8)
		db, err := probe.Open(probe.MustGrid(2, 8), probe.WithDurability(path))
		if err == nil {
			db.Close()
			t.Fatalf("a version-%d store opened", version)
		}
		for _, want := range []string{fmt.Sprintf("version %d", version), "version 8", "must be rebuilt"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("refusal %q does not say %q", err, want)
			}
		}
	}
}

// TestDurableRefusesValueSize: the descriptor keeps a value-size slot
// that is always 0, since the tree stores keys only; a store whose slot
// holds anything else is refused by the descriptor, before the tree.
func TestDurableRefusesValueSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "probe.db")
	writeDescriptorOnly(t, path, 8, 8, 8, 8)
	db, err := probe.Open(probe.MustGrid(2, 8), probe.WithDurability(path))
	if err == nil {
		db.Close()
		t.Fatal("a store recording value size 8 opened")
	}
	for _, want := range []string{"descriptor", "value size 8"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not say %q", err, want)
		}
	}
}

// TestDurableLeafCapacityConflict: a reopen keeps the capacity the
// store was created with, explicit or derived (recorded as 0). Asking
// for another one is refused, as a conflicting page size is; leaving
// the option out, or repeating the recorded one, reopens.
func TestDurableLeafCapacityConflict(t *testing.T) {
	g := probe.MustGrid(2, 8)
	for _, created := range []int{20, 0} {
		path := filepath.Join(t.TempDir(), "probe.db")
		db, err := probe.Open(g, probe.WithDurability(path), probe.WithLeafCapacity(created))
		if err != nil {
			t.Fatal(err)
		}
		want := db.Index().Tree().LeafCapacity()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		for _, other := range []int{50, want} {
			if other == created {
				continue
			}
			if db, err := probe.Open(g, probe.WithDurability(path), probe.WithLeafCapacity(other)); err == nil ||
				!strings.Contains(err.Error(), "leaf capacity") {
				if err == nil {
					db.Close()
				}
				t.Errorf("created with capacity %d, reopened with %d: %v", created, other, err)
			}
		}
		for _, opts := range [][]probe.Option{nil, {probe.WithLeafCapacity(created)}} {
			db, err := probe.Open(g, append(opts, probe.WithDurability(path))...)
			if err != nil {
				t.Fatalf("created with capacity %d, reopened with %d options: %v", created, len(opts), err)
			}
			if got := db.Index().Tree().LeafCapacity(); got != want {
				t.Errorf("created with capacity %d: reopened at %d, want %d", created, got, want)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDurableGridWidthMismatch: a grid of another total width would
// read the pages at another stride, and one of the same width in other
// dimensions would misread the z values; both are refused from the
// descriptor, before the tree (here: a root that does not exist) is
// touched.
func TestDurableGridWidthMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "probe.db")
	writeDescriptorOnly(t, path, 8, 0, 12, 12)
	for _, g := range []probe.Grid{probe.MustGrid(2, 8), probe.MustGrid(3, 8), probe.MustGrid(3, 21)} {
		db, err := probe.Open(g, probe.WithDurability(path))
		if err == nil {
			db.Close()
			t.Fatalf("a 2 x 12-bit store opened as %v", g)
		}
		if !strings.Contains(err.Error(), "grid bits") {
			t.Errorf("opening a 2 x 12-bit store as %v: %v", g, err)
		}
	}
	// The descriptor itself is sound: with its own grid the store
	// opens, and only then does the missing root matter.
	db, err := probe.Open(probe.MustGrid(2, 12), probe.WithDurability(path))
	if err != nil {
		t.Fatalf("opening with the recorded grid: %v", err)
	}
	defer db.CloseReadOnly()
	if _, _, err := db.RangeSearch(probe.Box2(0, 10, 0, 10)); err == nil {
		t.Error("a search through a root that was never allocated succeeded")
	}
}

func TestDurablePageSizeConflict(t *testing.T) {
	path := filepath.Join(t.TempDir(), "probe.db")
	g := probe.MustGrid(2, 8)
	db, err := probe.Open(g, probe.WithDurability(path), probe.WithPageSize(256))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Open(g, probe.WithDurability(path), probe.WithPageSize(512)); err == nil ||
		!strings.Contains(err.Error(), "page size") {
		t.Fatalf("page-size conflict not rejected: %v", err)
	}
	// Omitting the option adopts the on-disk page size.
	db2, err := probe.Open(g, probe.WithDurability(path))
	if err != nil {
		t.Fatalf("reopen without page-size option: %v", err)
	}
	db2.Close()
}

func TestDurableBulkLoadIntoExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "probe.db")
	g := probe.MustGrid(2, 8)
	db, err := probe.Open(g, probe.WithDurability(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	pts := []probe.Point{probe.Pt2(1, 2, 3)}
	if _, err := probe.Open(g, probe.WithDurability(path), probe.WithBulkLoad(pts)); err == nil ||
		!strings.Contains(err.Error(), "bulk-load") {
		t.Fatalf("bulk load into existing database not rejected: %v", err)
	}
}

func TestDurableBulkLoadFreshPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "probe.db")
	g := probe.MustGrid(2, 8)
	pts := make([]probe.Point, 100)
	for i := range pts {
		pts[i] = probe.Pt2(uint64(i), uint32(i%256), uint32((i*3)%256))
	}
	db, err := probe.Open(g, probe.WithDurability(path), probe.WithPageSize(256), probe.WithBulkLoad(pts))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := probe.Open(g, probe.WithDurability(path))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Len() != 100 {
		t.Fatalf("bulk-loaded database reopened with %d points, want 100", db2.Len())
	}
}

func TestDurableStatsAndTrace(t *testing.T) {
	g := probe.MustGrid(2, 8)
	fsys := faultfs.New()
	db, err := probe.Open(g, probe.WithDurability("probe.db"), probe.WithFS(fsys), probe.WithPageSize(256))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := uint64(0); i < 20; i++ {
		if err := db.Insert(probe.Pt2(i, uint32(i), uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	tr := probe.NewTrace("test")
	qs, err := db.Checkpoint(probe.WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if qs.WALAppends == 0 {
		t.Fatalf("traced checkpoint attributes no WAL appends: %+v", qs)
	}
	if qs.WALSyncs == 0 {
		t.Fatalf("traced checkpoint attributes no WAL syncs: %+v", qs)
	}
	ds := db.DurabilityStats()
	if ds.WALAppends == 0 || ds.WALSyncs == 0 || ds.Checkpoints < 2 {
		t.Fatalf("durability stats: %+v", ds)
	}
}

// TestDurableCheckpointCountsPageWrites: a checkpoint's PhysWrites is
// the page-file slots its apply writes, one per page image and one per
// free stamped: the batch's records, which are its WAL appends less the
// commit record. Traced or not, the count is the same, and it is what
// the store's lifetime PageWrites grew by.
func TestDurableCheckpointCountsPageWrites(t *testing.T) {
	g := probe.MustGrid(2, 10)
	db, err := probe.Open(g, probe.WithDurability("probe.db"), probe.WithFS(faultfs.New()), probe.WithPageSize(256))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(59))
	for i, traced := range []bool{true, false} {
		pts := make([]probe.Point, 2000)
		for id := range pts {
			pts[id] = probe.Pt2(uint64(i)<<20|uint64(id), uint32(rng.Intn(1024)), uint32(rng.Intn(1024)))
			if err := db.Insert(pts[id]); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range pts[:500] { // frees as well as images
			if _, err := db.Delete(p); err != nil {
				t.Fatal(err)
			}
		}
		var opts []probe.QueryOption
		tr := probe.NewTrace("test")
		if traced {
			opts = append(opts, probe.WithTrace(tr))
		}
		before := db.DurabilityStats().PageWrites
		qs, err := db.Checkpoint(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if qs.PhysWrites <= 1 || qs.PhysWrites != qs.WALAppends-1 {
			t.Errorf("traced %v: checkpoint PhysWrites %d, WALAppends %d: want the %d batch records, more than 1",
				traced, qs.PhysWrites, qs.WALAppends, qs.WALAppends-1)
		}
		if grew := db.DurabilityStats().PageWrites - before; grew != qs.PhysWrites {
			t.Errorf("traced %v: PageWrites grew by %d, the checkpoint reports %d", traced, grew, qs.PhysWrites)
		}
		if got := uint64(tr.Total(probe.CounterPhysWrites)); traced && got != qs.PhysWrites {
			t.Errorf("the trace carries %d physical writes, the checkpoint reports %d", got, qs.PhysWrites)
		}
	}
}

func TestDurableRecoveryCountsPages(t *testing.T) {
	g := probe.MustGrid(2, 8)
	fsys := faultfs.New()
	db, err := probe.Open(g, probe.WithDurability("probe.db"), probe.WithFS(fsys), probe.WithPageSize(256))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 30; i++ {
		if err := db.Insert(probe.Pt2(i, uint32(i), uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Crash mid-checkpoint, after the commit fsync: find a schedule
	// that lands there by scanning fault indices until recovery reports
	// a committed batch.
	base := fsys.Clone()
	for fault := 1; fault < 40; fault++ {
		run := base.Clone()
		dbr, err := probe.Open(g, probe.WithDurability("probe.db"), probe.WithFS(run))
		if err != nil {
			t.Fatal(err)
		}
		if err := dbr.Insert(probe.Pt2(999, 1, 2)); err != nil {
			t.Fatal(err)
		}
		run.Arm(faultfs.Plan{Seed: int64(fault), CrashAt: fault})
		_, ckErr := dbr.Checkpoint()
		if !run.Crashed() {
			if ckErr != nil {
				t.Fatalf("fault %d: checkpoint failed without crash: %v", fault, ckErr)
			}
			break
		}
		img := run.CrashImage()
		db2, err := probe.Open(g, probe.WithDurability("probe.db"), probe.WithFS(img))
		if err != nil {
			var ce *disk.ChecksumError
			if errors.As(err, &ce) {
				t.Fatalf("fault %d: single crash surfaced as checksum error: %v", fault, err)
			}
			t.Fatalf("fault %d: %v", fault, err)
		}
		rec, info := db2.Recovered()
		if !rec {
			t.Fatalf("fault %d: not recovered", fault)
		}
		if info.Committed && info.PagesRecovered == 0 {
			t.Fatalf("fault %d: committed recovery replayed no pages", fault)
		}
		db2.Close()
	}
}

func TestDurableCloseIdempotentAndGuards(t *testing.T) {
	g := probe.MustGrid(2, 8)
	path := filepath.Join(t.TempDir(), "probe.db")
	db, err := probe.Open(g, probe.WithDurability(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint after close succeeded")
	}
}

func TestInMemoryCheckpointAndStats(t *testing.T) {
	db, err := probe.Open(probe.MustGrid(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(probe.Pt2(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatalf("in-memory checkpoint: %v", err)
	}
	if ds := db.DurabilityStats(); ds != (probe.DurabilityStats{}) {
		t.Fatalf("in-memory durability stats not zero: %+v", ds)
	}
	if rec, _ := db.Recovered(); rec {
		t.Fatal("in-memory database reports recovered")
	}
}

// runWritePath runs the benchmark's serve_write shape against a
// durable database on a 64-page pool: 8-point InsertAll, 4-point Update
// transactions, 8 single deletes, and a Checkpoint every 256
// operations. It calls each with the store's stats after each of the
// eight checkpoints and returns the database.
func runWritePath(t *testing.T, each func(epoch int, ds probe.DurabilityStats)) *probe.DB {
	t.Helper()
	g := probe.MustGrid(2, 10)
	rng := rand.New(rand.NewSource(18))
	next := uint64(0)
	newPoints := func(n int) []probe.Point {
		pts := make([]probe.Point, n)
		for i := range pts {
			next++
			pts[i] = probe.Pt2(next, uint32(rng.Intn(1024)), uint32(rng.Intn(1024)))
		}
		return pts
	}
	db, err := probe.Open(g, probe.WithDurability("probe.db"), probe.WithFS(faultfs.New()),
		probe.WithPageSize(1024), probe.WithPoolPages(64), probe.WithBulkLoad(newPoints(80000)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.CloseReadOnly() })
	var live []probe.Point // inserted here and not yet deleted, oldest first
	ctx := context.Background()
	for epoch := 1; epoch <= 8; epoch++ {
		for op := 0; op < 255; op++ {
			switch {
			case op%12 < 9:
				pts := newPoints(8)
				if err := db.InsertAll(pts); err != nil {
					t.Fatal(err)
				}
				live = append(live, pts...)
			case op%12 < 11:
				pts := newPoints(4)
				if err := db.Update(ctx, func(tx *probe.Tx) error { return tx.InsertAll(pts) }); err != nil {
					t.Fatal(err)
				}
				live = append(live, pts...)
			default:
				for _, p := range live[:8] {
					if ok, err := db.Delete(p); err != nil || !ok {
						t.Fatalf("delete %v: %v %v", p, ok, err)
					}
				}
				live = live[8:]
			}
		}
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		each(epoch, db.DurabilityStats())
	}
	return db
}

// TestDurableReadsSurviveWriteFailure: a fault on the write path
// freezes the store's writes, and reads stay available. A 16-frame pool
// under 20 000 bulk-loaded points misses on most searches; no miss may
// write, so none meets the store's sticky error, and every answer is
// the last committed version's.
func TestDurableReadsSurviveWriteFailure(t *testing.T) {
	g := probe.MustGrid(2, 10)
	rng := rand.New(rand.NewSource(50))
	want := map[uint64][2]uint32{}
	newPoints := func(n int) []probe.Point {
		pts := make([]probe.Point, n)
		for i := range pts {
			id := uint64(len(want) + 1)
			pts[i] = probe.Pt2(id, uint32(rng.Intn(1024)), uint32(rng.Intn(1024)))
			want[id] = [2]uint32{pts[i].Coords[0], pts[i].Coords[1]}
		}
		return pts
	}
	fsys := faultfs.New()
	db, err := probe.Open(g, probe.WithDurability("probe.db"), probe.WithFS(fsys),
		probe.WithPoolPages(16), probe.WithBulkLoad(newPoints(20000)))
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseReadOnly()
	for _, p := range newPoints(20) {
		if err := db.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	fsys.Arm(faultfs.Plan{FailAt: 1}) // the checkpoint's first log append
	if _, err := db.Checkpoint(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("checkpoint: want the injected fault, got %v", err)
	}
	fsys.Disarm()
	if err := db.Insert(probe.Pt2(1<<40, 1, 1)); err == nil || !strings.Contains(err.Error(), "needs recovery") {
		t.Fatalf("insert after the fault: %v", err)
	}
	failed, reads := 0, uint64(0)
	for i := 0; i < 200; i++ {
		x1, x2, y1, y2 := uint32(rng.Intn(1024)), uint32(rng.Intn(1024)), uint32(rng.Intn(1024)), uint32(rng.Intn(1024))
		box := probe.Box2(min(x1, x2), max(x1, x2), min(y1, y2), max(y1, y2))
		pts, st, err := db.RangeSearch(box)
		reads += st.PhysReads
		if err != nil {
			if failed++; failed == 1 {
				t.Errorf("range search %d: %v", i, err)
			}
			continue
		}
		n := 0
		for _, xy := range want {
			if box.ContainsPoint(xy[:]) {
				n++
			}
		}
		for _, p := range pts {
			if want[p.ID] != [2]uint32{p.Coords[0], p.Coords[1]} {
				t.Fatalf("range search %d returned %v, not a committed point", i, p)
			}
		}
		if len(pts) != n {
			t.Fatalf("range search %d: %d points, want %d", i, len(pts), n)
		}
	}
	if failed > 0 {
		t.Fatalf("%d of 200 range searches failed after the write-path fault", failed)
	}
	if reads == 0 {
		t.Fatal("no search missed the pool")
	}
}

// TestDurableWritePathSpaceAmplification: a batch copies each page once
// and the store reuses every page freed in the epoch, checkpointed or
// not, before it grows the file, so after every checkpoint of
// runWritePath the page file holds the live tree plus at most 24 free
// slots: the pages the last commits retired, a footprint that does not
// grow with the tree.
func TestDurableWritePathSpaceAmplification(t *testing.T) {
	db := runWritePath(t, func(epoch int, ds probe.DurabilityStats) {
		if ds.FilePages > ds.LivePages+24 {
			t.Fatalf("epoch %d: the page file holds %d slots for %d live pages (%d reused)",
				epoch, ds.FilePages, ds.LivePages, ds.PagesReused)
		}
	})
	if ds := db.DurabilityStats(); ds.PagesReused == 0 {
		t.Fatalf("no page was reused: %+v", ds)
	}
}

// TestPageGateWritePathFile pins the page file of runWritePath after
// its first and last checkpoints: slots and live pages. How a full
// leaf splits (internal/btree, recutLeaf) sets how many leaves the
// writes leave, and how many keys a leaf's bytes hold how many leaves
// there are, so a change to either moves these counts. Z distances
// from a base per 32-entry block rather than gaps from the previous key
// gave 434 slots for 412 live pages and 439 for 421, z deltas from the
// leaf's first key 453 for 432 and 466 for 447, and whole-byte key
// fields under a count cap of 739 601 for 579 and 618 for 598.
func TestPageGateWritePathFile(t *testing.T) {
	want := map[int][2]int{1: {397, 373}, 8: {411, 392}}
	runWritePath(t, func(epoch int, ds probe.DurabilityStats) {
		if w, ok := want[epoch]; ok && (ds.FilePages != w[0] || ds.LivePages != w[1]) {
			t.Errorf("epoch %d: %d slots for %d live pages, want %d for %d", epoch, ds.FilePages, ds.LivePages, w[0], w[1])
		}
	})
}

// TestDurablePathInUse: a durable path whose store an open DB holds is
// refused with ErrInUse, under any spelling of the path and from inside
// a read's callback that has just closed the holder; once the last
// read leaves, the path reopens and holds every committed point.
func TestDurablePathInUse(t *testing.T) {
	g := probe.MustGrid(2, 8)
	dir := t.TempDir()
	path := filepath.Join(dir, "probe.db")
	db, err := probe.Open(g, probe.WithDurability(path), probe.WithPageSize(256))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 300; i++ {
		if err := db.Insert(probe.Pt2(i, uint32(i%256), uint32((i*13)%256))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := collect(t, db)
	for _, p := range []string{path, filepath.Join(dir, ".", "probe.db"), filepath.Join(dir, "sub", "..", "probe.db")} {
		if other, err := probe.Open(g, probe.WithDurability(p)); !errors.Is(err, probe.ErrInUse) {
			if other != nil {
				other.Close()
			}
			t.Fatalf("second open of %s: %v, want ErrInUse", p, err)
		}
	}

	var inside error
	stop := false
	if _, err := db.RangeSearchFunc(probe.Box2(0, 255, 0, 255), func(probe.Point) bool {
		if stop {
			return false
		}
		stop = true
		if err := db.Close(); err != nil {
			inside = err
			return false
		}
		other, err := probe.Open(g, probe.WithDurability(path))
		if other != nil {
			other.Close()
		}
		if !errors.Is(err, probe.ErrInUse) {
			inside = fmt.Errorf("open inside the read that holds the store: %v, want ErrInUse", err)
		}
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if inside != nil {
		t.Fatal(inside)
	}

	db2, err := probe.Open(g, probe.WithDurability(path))
	if err != nil {
		t.Fatalf("reopen after the last read left: %v", err)
	}
	defer db2.Close()
	got := collect(t, db2)
	if len(got) != len(want) {
		t.Fatalf("reopened database holds %d points, want %d", len(got), len(want))
	}
	for id, c := range want {
		if got[id] != c {
			t.Fatalf("point %d reopened at %v, want %v", id, got[id], c)
		}
	}
}
