package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"probe"
	"probe/internal/btree"
	"probe/internal/core"
	"probe/internal/decompose"
	"probe/internal/disk"
	"probe/internal/geom"
	"probe/internal/planner"
	"probe/internal/query"
	"probe/internal/wire"
)

// Drills measure one module at a time from outside: each calls a
// module's public functions directly, on inputs taken from the
// workload's own boxes and keys, and reports nanoseconds per call as
// the median over batches of the batch mean, and allocations per call
// the way testing.AllocsPerRun counts them. Counts taken over a fixed
// number of inputs repeat exactly for one seed.

// sink keeps results alive so the compiler cannot drop the calls.
var sink uint64

// timeIt runs fn in batches for about budget and returns the median
// batch mean in nanoseconds per call.
func timeIt(budget time.Duration, fn func()) float64 {
	// Size a batch to about a millisecond, so the clock's cost vanishes.
	batch := 1
	for {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		if d := time.Since(t0); d >= time.Millisecond || batch >= 1<<20 {
			break
		}
		batch *= 4
	}
	var means []float64
	deadline := time.Now().Add(budget)
	for len(means) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		means = append(means, float64(time.Since(t0))/float64(batch))
	}
	return median(means)
}

// bytesPerRun is testing.AllocsPerRun for bytes allocated.
func bytesPerRun(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / float64(runs)
}

// drills holds the shared inputs of one drill pass.
type drills struct {
	grid   probe.Grid
	seed   int64
	static []probe.Point
	boxes  []geom.Box // small range boxes from caller 0's sequence
	joins  []op
	sqls   []op // SELECT id .. CONTAINS(box) without LIMIT, box kept in lo/hi
	dir    string
	each   time.Duration // time budget per timed drill
	nExact int
	out    map[string]float64
}

// runDrills measures every module drill within about total.
func runDrills(cfg config, w workloadSpec, seed int64, static []probe.Point, total time.Duration) (map[string]float64, error) {
	d := &drills{grid: benchGrid(), seed: seed, static: static, nExact: cfg.sz.DrillBoxes, out: make(map[string]float64)}
	// 33 timed drills share the time equally; the rest of it goes to
	// the counted ones and to building their inputs.
	d.each = total / 40
	dir, err := os.MkdirTemp(cfg.workDir, "drills-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	d.dir = dir

	// Inputs: the boxes caller 0 of this workload asks about.
	rw := w
	rw.Mix = [numKinds]int{opRange: 80, opJoin: 10, opQuery: 10}
	rw.CheckpointEvery = 0
	g := newOpGen(seed, 0, rw, static)
	for len(d.boxes) < d.nExact || len(d.joins) < 8 || len(d.sqls) < 32 {
		o := g.next()
		switch o.kind {
		case opRange:
			if len(d.boxes) < d.nExact {
				b, err := geom.NewBox(o.lo, o.hi)
				if err != nil {
					return nil, err
				}
				d.boxes = append(d.boxes, b)
			}
		case opJoin:
			d.joins = append(d.joins, o)
		case opQuery:
			if !o.count {
				o.text = string(append(sqlBox([]byte("SELECT id FROM points WHERE CONTAINS("), o.lo, o.hi), ')'))
				d.sqls = append(d.sqls, o)
			}
		}
	}

	db, err := probe.Open(d.grid, probe.WithBulkLoad(static), probe.WithPoolPages(4096))
	if err != nil {
		return nil, err
	}
	defer db.Close()
	for _, step := range []func(*probe.DB) error{
		d.zorder, d.decompose, d.btreeRead, d.btreeWrite, d.pool, d.wal, d.core,
		d.plannerQuery, d.probe, d.durable, d.wire,
	} {
		if err := step(db); err != nil {
			return nil, err
		}
	}
	return d.out, nil
}

func (d *drills) zorder(*probe.DB) error {
	g, i := d.grid, 0
	d.out["zorder.shuffle_ns"] = timeIt(d.each, func() {
		sink += g.Shuffle(d.static[i%len(d.static)].Coords).Bits
		i++
	})
	bigmin := func() {
		b := d.boxes[i%len(d.boxes)]
		z, _ := g.BigMin(g.ShuffleKey(d.static[i%len(d.static)].Coords), b.Lo, b.Hi)
		sink += z
		i++
	}
	d.out["zorder.bigmin_ns"] = timeIt(d.each, bigmin)
	d.out["zorder.bigmin_allocs"] = testing.AllocsPerRun(1000, bigmin)
	return nil
}

func (d *drills) decompose(*probe.DB) error {
	g, i := d.grid, 0
	d.out["decompose.box_ns"] = timeIt(d.each, func() {
		sink += uint64(len(decompose.Box(g, d.boxes[i%len(d.boxes)])))
		i++
	})
	elems := 0
	for _, b := range d.boxes {
		elems += len(decompose.Box(g, b))
	}
	d.out["decompose.elements_per_box"] = float64(elems) / float64(len(d.boxes))
	var cerr error
	walk := func() {
		for _, b := range d.boxes {
			c, err := decompose.NewCursor(g, b, decompose.Options{})
			if err != nil {
				cerr = err
				return
			}
			for c.Next() {
				sink += c.ZLo()
			}
		}
	}
	d.out["decompose.cursor_next_ns"] = timeIt(d.each, walk) / float64(elems)
	return cerr
}

func (d *drills) key(i int) btree.Key {
	p := d.static[(i*7919)%len(d.static)]
	return btree.Key{Hi: d.grid.ShuffleKey(p.Coords), Lo: p.ID}
}

// seekKeys are the seeks the range merge makes for the drill's boxes:
// the first z value of each element of each box, box after box. Seeks
// within one box land close together, as they do in a query.
func (d *drills) seekKeys() []btree.Key {
	var keys []btree.Key
	for _, b := range d.boxes {
		for _, el := range decompose.Box(d.grid, b) {
			keys = append(keys, btree.Key{Hi: el.MinZ()})
		}
	}
	return keys
}

func (d *drills) btreeRead(db *probe.DB) error {
	tree := db.Index().Tree()
	snap := tree.Snapshot()
	defer snap.Release()
	cur := snap.Cursor()
	var cerr error
	i := 0
	keys := d.seekKeys()
	seek := func() {
		ok, err := cur.SeekGE(keys[i%len(keys)])
		if err != nil {
			cerr = err
		}
		if ok {
			sink += cur.Key().Lo
		}
		i++
	}
	d.out["btree.seekge_ns"] = timeIt(d.each, seek)
	d.out["btree.seekge_allocs"] = testing.AllocsPerRun(500, seek)
	i = 0
	gets := tree.Pool().Stats().Gets
	for range keys {
		seek()
	}
	d.out["btree.seekge_pages"] = float64(tree.Pool().Stats().Gets-gets) / float64(len(keys))

	if _, err := cur.First(); err != nil {
		return err
	}
	d.out["btree.next_ns"] = timeIt(d.each, func() {
		ok, err := cur.Next()
		if err != nil {
			cerr = err
		}
		if !ok {
			_, cerr = cur.First()
		}
		sink += cur.Key().Lo
	})
	i = 0
	d.out["btree.get_ns"] = timeIt(d.each, func() {
		_, ok, err := snap.Get(d.key(i))
		if err != nil || !ok {
			cerr = fmt.Errorf("btree get of a loaded key: found=%v, %v", ok, err)
		}
		i++
	})
	return cerr
}

func (d *drills) btreeWrite(*probe.DB) error {
	pool := disk.MustPool(disk.MustMemStore(disk.DefaultPageSize), 8192, disk.LRU)
	tree, err := btree.New(pool, btree.Config{})
	if err != nil {
		return err
	}
	var cerr error
	next := uint64(1)
	fresh := func() btree.Key {
		next++
		return btree.Key{Hi: next * 0x9E3779B97F4A7C15, Lo: next}
	}
	insert := func() {
		if err := tree.Insert(fresh(), nil); err != nil {
			cerr = err
		}
	}
	d.out["btree.insert_ns"] = timeIt(d.each, insert)
	d.out["btree.insert_allocs"] = testing.AllocsPerRun(500, insert)
	muts := make([]btree.Mutation, 8)
	d.out["btree.commitbatch_ns_per_mut"] = timeIt(d.each, func() {
		for j := range muts {
			muts[j] = btree.Mutation{Key: fresh()}
		}
		if err := tree.CommitBatch(tree.MVCCStats().Seq, muts); err != nil {
			cerr = err
		}
	}) / float64(len(muts))
	if cerr != nil {
		return cerr
	}

	n := min(len(d.static), 50_000)
	entries := make([]btree.Entry, n)
	for i := range entries {
		p := d.static[i]
		entries[i] = btree.Entry{Key: btree.Key{Hi: d.grid.ShuffleKey(p.Coords), Lo: p.ID}}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key.Less(entries[j].Key) })
	d.out["btree.load_ns_per_entry"] = timeIt(d.each, func() {
		lp := disk.MustPool(disk.MustMemStore(disk.DefaultPageSize), 1024, disk.LRU)
		if _, err := btree.Load(lp, btree.Config{}, entries, 1.0); err != nil {
			cerr = err
		}
	}) / float64(n)
	return cerr
}

// pagedStore creates a recoverable store of n checkpointed pages.
func (d *drills) pagedStore(name string, n int) (*disk.RecoverableStore, []disk.PageID, error) {
	st, err := disk.CreateRecoverableStore(disk.OSFS{}, filepath.Join(d.dir, name), disk.DefaultPageSize)
	if err != nil {
		return nil, nil, err
	}
	ids := make([]disk.PageID, n)
	buf := make([]byte, disk.DefaultPageSize)
	for i := range ids {
		if ids[i], err = st.Allocate(); err != nil {
			return nil, nil, err
		}
		buf[0] = byte(i)
		if err := st.Write(ids[i], buf); err != nil {
			return nil, nil, err
		}
	}
	return st, ids, st.Checkpoint()
}

func (d *drills) pool(*probe.DB) error {
	st, ids, err := d.pagedStore("pool", 256)
	if err != nil {
		return err
	}
	defer st.Close()
	var cerr error
	get := func(p *disk.Pool, i *int) func() {
		return func() {
			id := ids[*i%len(ids)]
			f, err := p.Get(id)
			if err != nil {
				cerr = err
				return
			}
			sink += uint64(f.Data[0])
			if err := p.Unpin(id, false); err != nil {
				cerr = err
			}
			*i++
		}
	}
	i := 0
	d.out["disk.pool_get_hit_ns"] = timeIt(d.each, get(disk.MustPool(st, 512, disk.LRU), &i))
	// 8 frames over 256 pages visited in a cycle: LRU misses every time.
	d.out["disk.pool_get_miss_ns"] = timeIt(d.each, get(disk.MustPool(st, 8, disk.LRU), &i))
	return cerr
}

// rounds runs fn until the budget is spent, at least 3 times, and
// returns the median of what it reports.
func rounds(budget time.Duration, fn func() (float64, error)) (float64, error) {
	var xs []float64
	deadline := time.Now().Add(budget)
	for len(xs) < 3 || time.Now().Before(deadline) {
		x, err := fn()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

func (d *drills) wal(*probe.DB) error {
	const pages = 256
	w, err := disk.CreateWAL(disk.OSFS{}, filepath.Join(d.dir, "drill.wal"))
	if err != nil {
		return err
	}
	defer w.Close()
	rec := disk.WALRecord{Kind: disk.RecPage, Page: 1, Payload: make([]byte, disk.DefaultPageSize)}
	var syncs []float64
	d.out["disk.wal_append_ns"], err = rounds(d.each, func() (float64, error) {
		t0 := time.Now()
		for i := 0; i < pages; i++ {
			rec.LSN++
			if err := w.Append(rec); err != nil {
				return 0, err
			}
		}
		t1 := time.Now()
		if err := w.Sync(); err != nil {
			return 0, err
		}
		syncs = append(syncs, float64(time.Since(t1)))
		return float64(t1.Sub(t0)) / pages, w.Reset()
	})
	if err != nil {
		return err
	}
	d.out["disk.wal_sync_ns"] = median(syncs)

	st, ids, err := d.pagedStore("ckpt", pages)
	if err != nil {
		return err
	}
	buf := make([]byte, disk.DefaultPageSize)
	d.out["disk.checkpoint_ms_per_dirty_page"], err = rounds(d.each, func() (float64, error) {
		buf[1]++
		for _, id := range ids {
			if err := st.Write(id, buf); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		err := st.Checkpoint()
		return float64(time.Since(t0)) / 1e6 / pages, err
	})
	if err != nil {
		return err
	}

	// Recovery: a log holding one committed batch of page images that
	// never reached the page file, as after a crash between the log's
	// fsync and the page writes.
	lsn := st.CheckpointLSN()
	if err := st.Close(); err != nil {
		return err
	}
	path := filepath.Join(d.dir, "ckpt")
	d.out["disk.recover_ms_per_wal_mb"], err = rounds(d.each, func() (float64, error) {
		var log bytes.Buffer
		log.Write(disk.EncodeWALHeader())
		buf[2]++
		for _, id := range ids {
			lsn++
			log.Write(disk.EncodeWALRecord(disk.WALRecord{Kind: disk.RecPage, Page: id, LSN: lsn, Payload: buf}))
		}
		log.Write(disk.EncodeWALRecord(disk.WALRecord{Kind: disk.RecCommit,
			Payload: disk.EncodeCommitPayload(uint32(len(ids)), lsn)}))
		if err := os.WriteFile(path+".wal", log.Bytes(), 0o644); err != nil {
			return 0, err
		}
		t0 := time.Now()
		rs, info, err := disk.RecoverStore(disk.OSFS{}, path)
		el := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if info.PagesRecovered != len(ids) {
			rs.Close()
			return 0, fmt.Errorf("recovery replayed %d pages, want %d", info.PagesRecovered, len(ids))
		}
		return float64(el) / 1e6 / (float64(log.Len()) / (1 << 20)), rs.Close()
	})
	return err
}

func (d *drills) core(db *probe.DB) error {
	ix := db.Index()
	var cerr error
	i := 0
	search := func(s core.Strategy) func() {
		return func() {
			pts, _, err := ix.RangeSearch(d.boxes[i%len(d.boxes)], s)
			if err != nil {
				cerr = err
			}
			sink += uint64(len(pts))
			i++
		}
	}
	d.out["core.range_a_ns"] = timeIt(d.each, search(core.MergeDecomposed))
	d.out["core.range_b_ns"] = timeIt(d.each, search(core.MergeLazy))
	d.out["core.range_c_ns"] = timeIt(d.each, search(core.SkipBigMin))
	d.out["core.range_allocs"] = testing.AllocsPerRun(200, search(core.MergeLazy))

	pages, results := 0, 0
	for _, b := range d.boxes {
		pts, st, err := ix.RangeSearch(b, core.MergeLazy)
		if err != nil {
			return err
		}
		pages += st.DataPages
		results += len(pts)
	}
	capacity := ix.Tree().LeafCapacity()
	d.out["core.range_pages_per_query"] = float64(pages) / float64(len(d.boxes))
	// Entries on the pages read per result returned, and its inverse,
	// the paper's efficiency.
	d.out["core.range_entries_per_result"] = float64(pages*capacity) / float64(max(results, 1))
	d.out["core.range_efficiency"] = float64(results) / float64(max(pages*capacity, 1))

	npages := 0
	nearest := func() {
		p := d.static[(i*7919)%len(d.static)]
		nbs, st, err := ix.Nearest(p.Coords, 8, core.Euclidean, core.MergeLazy)
		if err != nil {
			cerr = err
		}
		npages += st.DataPages
		sink += uint64(len(nbs))
		i++
	}
	d.out["core.nearest_ns"] = timeIt(d.each, nearest)
	i, npages = 0, 0
	for n := 0; n < d.nExact; n++ {
		nearest()
	}
	d.out["core.nearest_pages"] = float64(npages) / float64(d.nExact)

	type rel struct{ a, b []core.Item }
	var rels []rel
	for _, o := range d.joins {
		a, err := decomposeItems(d.grid, o.a)
		if err != nil {
			return err
		}
		b, err := decomposeItems(d.grid, o.b)
		if err != nil {
			return err
		}
		rels = append(rels, rel{a, b})
	}
	pairs := 0
	joinAll := func() {
		pairs = 0
		for _, r := range rels {
			ps, _, err := core.SpatialJoinDistinct(r.a, r.b)
			if err != nil {
				cerr = err
			}
			pairs += len(ps)
		}
	}
	ns := timeIt(d.each, joinAll)
	d.out["core.join_ns_per_pair"] = ns / float64(max(pairs, 1))
	d.out["core.join_allocs"] = testing.AllocsPerRun(20, joinAll) / float64(len(rels))
	return cerr
}

func (d *drills) plannerQuery(db *probe.DB) error {
	tab := &planner.Table{Name: "db", Index: db.Index()}
	var cerr error
	i := 0
	plan := func() {
		p, err := planner.PlanRange(tab, d.boxes[i%len(d.boxes)], planner.Config{})
		if err != nil {
			cerr = err
		} else {
			sink += uint64(len(p.Access))
		}
		i++
	}
	d.out["planner.plan_range_ns"] = timeIt(d.each, plan)
	d.out["planner.plan_range_allocs"] = testing.AllocsPerRun(500, plan)

	d.out["query.parse_ns"] = timeIt(d.each, func() {
		st, err := query.Parse(d.sqls[i%len(d.sqls)].text)
		if err != nil {
			cerr = err
		} else {
			sink += uint64(len(st.Select.Items))
		}
		i++
	})
	stmts := make([]*query.Statement, len(d.sqls))
	for j, o := range d.sqls {
		st, err := query.Parse(o.text)
		if err != nil {
			return err
		}
		stmts[j] = st
	}
	d.out["query.compile_ns"] = timeIt(d.each, func() {
		if _, err := query.Compile(d.grid, stmts[i%len(stmts)].Select); err != nil {
			cerr = err
		}
		i++
	})
	// The same boxes once through SQL and once through the range call:
	// the difference is what parse, compile, plan and row-shaping cost.
	ctx := context.Background()
	viaSQL := timeIt(d.each, func() {
		res, err := db.Query(ctx, d.sqls[i%len(d.sqls)].text)
		if err != nil {
			cerr = err
		} else {
			sink += uint64(len(res.Rows))
		}
		i++
	})
	direct := timeIt(d.each, func() {
		// Streamed, as the query engine reads the index: materializing
		// the points would cost more than the SQL layers do.
		o := d.sqls[i%len(d.sqls)]
		_, err := db.RangeSearchFunc(probe.Box2(o.lo[0], o.hi[0], o.lo[1], o.hi[1]), func(p probe.Point) bool {
			sink += p.ID
			return true
		})
		if err != nil {
			cerr = err
		}
		i++
	})
	d.out["query.overhead_ns"] = viaSQL - direct
	return cerr
}

func (d *drills) probe(db *probe.DB) error {
	var cerr error
	i := 0
	search := func() {
		pts, _, err := db.RangeSearch(d.boxes[i%len(d.boxes)])
		if err != nil {
			cerr = err
		}
		sink += uint64(len(pts))
		i++
	}
	d.out["probe.range_ns"] = timeIt(d.each, search)
	d.out["probe.range_allocs"] = testing.AllocsPerRun(200, search)
	d.out["probe.range_bytes"] = bytesPerRun(200, search)
	return cerr
}

// durable drills the write path of a durable database on a pool of 64
// pages, as serve_write's server has: the commit cost of a 4-insert
// transaction, and the log's write amplification over a fixed run of
// insert batches with a checkpoint every 64.
func (d *drills) durable(*probe.DB) error {
	path := filepath.Join(d.dir, "durable")
	db, err := probe.Open(d.grid, probe.WithDurability(path), probe.WithBulkLoad(d.static), probe.WithPoolPages(64))
	if err != nil {
		return err
	}
	g := newOpGen(d.seed, 3, workloadSpec{Mix: [numKinds]int{opInsert: 1}}, d.static)
	ctx := context.Background()
	var cerr error
	d.out["probe.tx_commit_ns"] = timeIt(d.each, func() {
		pts := g.newPoints(4)
		if err := db.Update(ctx, func(tx *probe.Tx) error { return tx.InsertAll(pts) }); err != nil {
			cerr = err
		}
	})
	if cerr != nil {
		db.Close()
		return cerr
	}
	if _, err := db.Checkpoint(); err != nil {
		db.Close()
		return err
	}
	before := db.DurabilityStats()
	const batches, per = 256, 8
	for b := 1; b <= batches; b++ {
		if err := db.InsertAll(g.newPoints(per)); err != nil {
			db.Close()
			return err
		}
		if b%64 == 0 {
			if _, err := db.Checkpoint(); err != nil {
				db.Close()
				return err
			}
		}
	}
	appends := float64(db.DurabilityStats().WALAppends - before.WALAppends)
	d.out["disk.wal_appends_per_insert"] = appends / batches
	recBytes := float64(len(disk.EncodeWALRecord(disk.WALRecord{Kind: disk.RecPage, Payload: make([]byte, disk.DefaultPageSize)})))
	d.out["disk.wal_bytes_per_point"] = appends * recBytes / (batches * per)
	if err := db.Close(); err != nil {
		return err
	}
	d.out["probe.open_recover_ms"] = timeIt(d.each, func() {
		db, err := probe.Open(d.grid, probe.WithDurability(path), probe.WithPoolPages(64))
		if err != nil {
			cerr = err
			return
		}
		if err := db.CloseReadOnly(); err != nil {
			cerr = err
		}
	}) / 1e6
	return cerr
}

func (d *drills) wire(*probe.DB) error {
	var cerr error
	i := 0
	req := func() wire.RangeReq {
		b := d.boxes[i%len(d.boxes)]
		i++
		return wire.RangeReq{Header: wire.Header{ID: uint32(i)}, Lo: b.Lo, Hi: b.Hi}
	}
	d.out["wire.range_req_encode_ns"] = timeIt(d.each, func() { sink += uint64(len(req().Encode())) })
	payload := req().Encode()
	d.out["wire.range_req_decode_ns"] = timeIt(d.each, func() {
		r, err := wire.DecodeRangeReq(payload)
		if err != nil {
			cerr = err
		}
		sink += uint64(r.ID)
	})
	const rows = 512 // the server's batch size
	batch := wire.Batch{ID: 1, Kind: wire.KindPoints, Dims: 2, Points: make([]wire.Point, rows)}
	for j := range batch.Points {
		p := d.static[j%len(d.static)]
		batch.Points[j] = wire.Point{ID: p.ID, Coords: p.Coords}
	}
	d.out["wire.batch_encode_ns"] = timeIt(d.each, func() { sink += uint64(len(batch.Encode())) })
	enc := batch.Encode()
	decode := func() {
		b, err := wire.DecodeBatch(enc)
		if err != nil {
			cerr = err
		}
		sink += uint64(len(b.Points))
	}
	d.out["wire.batch_decode_ns"] = timeIt(d.each, decode)
	d.out["wire.batch_allocs"] = testing.AllocsPerRun(100, func() { sink += uint64(len(batch.Encode())); decode() })
	var buf bytes.Buffer
	d.out["wire.frame_rw_ns"] = timeIt(d.each, func() {
		buf.Reset()
		if err := wire.WriteFrame(&buf, wire.MsgBatch, enc); err != nil {
			cerr = err
		}
		_, p, err := wire.ReadFrame(&buf)
		if err != nil {
			cerr = err
		}
		sink += uint64(len(p))
	})
	d.out["wire.bytes_per_row"] = float64(len(enc)) / rows
	return cerr
}
