package probe_test

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"slices"
	"sync"
	"testing"

	"probe"
	"probe/internal/core"
	"probe/internal/disk"
	"probe/internal/disk/faultfs"
)

// The schedule driver behind the repo root's schedule property tests;
// docs/durability.md lists what it asserts. Every read, of the DB, a
// pinned snapshot or a transaction, is one merge over the z-ordered
// point sequence, so one serial model of its versions, keyed by seq,
// predicts every read, every commit verdict and every state a recovery
// may land in. Each test is a table of step weights; per seed the
// driver generates a schedule and runs it in memory, or on faultfs as a
// dry run that sizes the fault window, then an armed run with one
// fault, then a recovery that continues with afterRecovery. Reads of a
// transaction are checked against its view at once; every other read
// is kept and replayed against the committed state at its seq (hist).
// A failing seed appends "probe <table> seed=N kind=K" to the file the
// table's variable names; `go test -run 'TestX/seed=N$'` replays it.

func TestCrashRecoveryProperty(t *testing.T)  { crashTable.runAll(t) }
func TestMVCCIsolationProperty(t *testing.T)  { mvccTable.runAll(t) }
func TestCheckpointVsInsertRace(t *testing.T) { raceTable.runAll(t) }
func TestTxIsolationProperty(t *testing.T)    { txTable.runAll(t) }
func TestTxCrashAtomicity(t *testing.T)       { txCrashTable.runAll(t) }
func TestCrossAxisProperty(t *testing.T)      { crossTable.runAll(t) }

// The schedule language: one constant per step kind.
const (
	sInsert       = iota // auto-commit insert of a fresh point
	sDelete              // auto-commit delete of a live point
	sDeleteAbsent        // auto-commit delete of a point never inserted
	sBegin               // the transaction steps, on the step's slot
	sTxInsert
	sTxDelete // of a point in the slot's view
	sTxRead
	sCommit
	sRollback
	sPin // the snapshot steps, on the step's slot
	sPinRead
	sUnpin
	sRead // auto-commit read
	sCheckpoint
	nKinds
)

var kindNames = [nKinds]string{"insert", "delete", "delete-absent", "begin", "tx-insert",
	"tx-delete", "tx-read", "commit", "rollback", "pin", "pin-read", "unpin", "read", "checkpoint"}

// table is one schedule property test: the weights its steps are
// drawn by and the store and concurrency they run on.
type table struct {
	name, env    string // env names the failing-seed file
	seeds        int
	weights      [nKinds]int
	pre, steps   [2]int   // leading inserts, then weighted steps; each [lo, hi]
	faults       []string // the seed picks one, on faultfs with 256-byte pages and 8 frames; none: in memory, leaf capacity 4-11, 64 frames
	readers      int      // concurrent snapshot readers
	checkpointer bool     // a concurrent checkpoint loop
	long         bool     // a snapshot pinned after the leading inserts, scanned after the last step
	longEach     bool     // and after every step
}

var (
	crashTable = table{name: "crash", env: "CRASH_SEED_FILE", seeds: crashSeeds,
		weights: [nKinds]int{sInsert: 70, sDelete: 15, sCheckpoint: 15}, steps: [2]int{40, 119},
		faults: []string{"crash", "torn", "fail", "flip"}}
	mvccTable = table{name: "mvcc", env: "MVCC_SEED_FILE", seeds: mvccSeeds,
		weights: [nKinds]int{sInsert: 65, sDelete: 25, sDeleteAbsent: 10},
		pre:     [2]int{10, 29}, steps: [2]int{80, 199}, readers: 3, long: true}
	raceTable = table{name: "race", env: "MVCC_SEED_FILE", seeds: 25,
		weights: [nKinds]int{sInsert: 1}, steps: [2]int{100, 100},
		faults: []string{"crash"}, checkpointer: true}
	txTable = table{name: "tx", env: "TX_SEED_FILE", seeds: txSeeds,
		weights: [nKinds]int{sBegin: 12, sTxInsert: 20, sTxDelete: 12, sTxRead: 12, sCommit: 10,
			sRollback: 6, sInsert: 16, sDelete: 8, sRead: 4},
		pre: [2]int{15, 29}, steps: [2]int{60, 139}}
	txCrashTable = table{name: "tx-crash", env: "CRASH_SEED_FILE", seeds: txCrashSeeds,
		weights: [nKinds]int{sBegin: 10, sTxInsert: 30, sTxDelete: 6, sCommit: 10, sRollback: 3,
			sInsert: 14, sDelete: 7, sCheckpoint: 12},
		steps: [2]int{60, 159}, faults: []string{"crash", "torn"}}
	// crossTable crosses the axes: faults among transactions and pins, under a held snapshot.
	crossTable = table{name: "cross", env: "CRASH_SEED_FILE", seeds: crossSeeds,
		weights: [nKinds]int{sInsert: 14, sDelete: 10, sDeleteAbsent: 3, sBegin: 8, sTxInsert: 12,
			sTxDelete: 8, sTxRead: 4, sCommit: 8, sRollback: 3, sPin: 3, sPinRead: 4, sUnpin: 3,
			sRead: 3, sCheckpoint: 10},
		pre: [2]int{10, 29}, steps: [2]int{60, 139}, faults: []string{"crash", "torn", "fail", "flip"}, long: true, longEach: true}
)

// step is one generated step; id, x and y make its point, n picks the
// target of a delete.
type step struct {
	kind, slot int
	id         uint64
	x, y       uint32
	n          int
}

// gen draws a schedule: the leading inserts, then steps by weight,
// the last a checkpoint when the table checkpoints at all. Every
// insert has its own id.
func (tb *table) gen(rng *rand.Rand) (steps []step, pre int) {
	pre = tb.pre[0] + rng.IntN(tb.pre[1]-tb.pre[0]+1)
	steps = make([]step, pre+tb.steps[0]+rng.IntN(tb.steps[1]-tb.steps[0]+1))
	total := 0
	for _, w := range tb.weights {
		total += w
	}
	for i := range steps {
		st := step{slot: rng.IntN(3), id: uint64(i + 1), n: rng.IntN(1 << 30),
			x: uint32(rng.IntN(256)), y: uint32(rng.IntN(256))}
		if i >= pre {
			for r := rng.IntN(total); r >= tb.weights[st.kind]; st.kind++ {
				r -= tb.weights[st.kind]
			}
		}
		if st.kind == sDeleteAbsent {
			st.id |= 1 << 62
		}
		steps[i] = st
	}
	if tb.weights[sCheckpoint] > 0 {
		steps[len(steps)-1] = step{kind: sCheckpoint}
	}
	return steps, pre
}

func (tb *table) runAll(t *testing.T) {
	seeds := tb.seeds
	if testing.Short() {
		seeds = max(seeds/10, 5)
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		kind := "none"
		if len(tb.faults) > 0 {
			kind = tb.faults[seed%int64(len(tb.faults))]
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Cleanup(func() { tb.recordSeed(t, seed, kind) })
			tb.run(t, seed, kind)
		})
	}
}

// recordSeed appends a failed seed to the table's seed file, which CI
// archives.
func (tb *table) recordSeed(t *testing.T, seed int64, kind string) {
	if !t.Failed() {
		return
	}
	if f, err := os.OpenFile(os.Getenv(tb.env), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644); err == nil {
		fmt.Fprintf(f, "probe %s seed=%d kind=%s\n", tb.name, seed, kind)
		f.Close()
	}
}

func (tb *table) run(t *testing.T, seed int64, kind string) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0))
	steps, pre := tb.gen(rng)
	leaf := 4 + rng.IntN(8)
	if len(tb.faults) == 0 {
		r := tb.open(t, seed, nil, leaf)
		r.exec(steps, pre)
		r.end()
		return
	}
	dry := faultfs.New()
	r := tb.open(t, seed, dry, leaf)
	dry.Arm(faultfs.Plan{}) // count the schedule's write operations only
	r.exec(steps, pre)
	w := dry.Ops()
	r.end()
	if w == 0 {
		t.Fatal("schedule performed no write operations")
	}
	at := 1 + rng.IntN(w)
	plan := faultfs.Plan{Seed: seed}
	switch kind {
	case "crash":
		plan.CrashAt = at
	case "torn":
		plan.TornAt = at
	case "fail":
		plan.FailAt = at
	case "flip":
		// Every other flip seed flips any write and crashes within 30
		// operations. The rest flip one of a checkpoint's log appends (its
		// batch's records or its commit record) and crash just past the
		// log's sync, as the checkpoint applies the batch the flip
		// corrupted.
		plan.FlipAt, plan.CrashAt = at, at+1+rng.IntN(30)
		if n := len(r.spans); n > 0 && seed/4%2 == 1 {
			sp := r.spans[rng.IntN(n)]
			plan.FlipAt = sp[0] + 1 + rng.IntN(sp[1]-sp[0]-1)
			plan.CrashAt = sp[1] + 1 + rng.IntN(3)
		}
	}
	fsys := faultfs.New()
	r = tb.open(t, seed, fsys, leaf)
	r.fault = kind
	fsys.Arm(plan)
	r.exec(steps, pre)
	img := fsys.CrashImage() // whatever was not fsynced may be gone
	r.replay()
	r.recover(img, seed)
}

// model is a point set: id to coordinates.
type model map[uint64][2]uint32

// pick returns the point n selects, the one minimising a hash of its
// id and n; false if m is empty.
func (m model) pick(n int) (probe.Point, bool) {
	var pick, best uint64
	for id := range m {
		if h := (id ^ uint64(n)) * 0x9e3779b97f4a7c15; pick == 0 || h < best {
			pick, best = id, h
		}
	}
	return probe.Pt2(pick, m[pick][0], m[pick][1]), pick != 0
}

// same reports whether pts are exactly m's points inside box, each once.
func (m model) same(box probe.Box, pts []probe.Point) bool {
	seen := make(map[uint64]bool, len(pts))
	for _, p := range pts {
		xy, ok := m[p.ID]
		if !ok || seen[p.ID] || xy != [2]uint32{p.Coords[0], p.Coords[1]} || !box.ContainsPoint(p.Coords) {
			return false
		}
		seen[p.ID] = true
	}
	n := 0
	for _, xy := range m {
		if box.ContainsPoint(xy[:]) {
			n++
		}
	}
	return n == len(pts)
}

func sameID(a, b probe.Point) bool { return a.ID == b.ID }

// obs is one read: the version it saw, what it asked and what it got.
type obs struct {
	seq  uint64
	n    int // Len
	box  probe.Box
	hits [][]probe.Point // the box, once per merge strategy
	q    []uint32
	m    int // NEAREST at q: m is 1 or 8, under either metric
	mtr  probe.Metric
	nbs  []probe.Neighbor
}

var strategies = []core.Strategy{core.MergeDecomposed, core.MergeLazy, core.SkipBigMin}
var metrics = [2]probe.Metric{probe.Chebyshev, probe.Euclidean}
var everything = probe.Box2(0, 255, 0, 255)

// draw picks a read's random box and NEAREST query.
func draw(rng *rand.Rand) (o obs) {
	x1, x2, y1, y2 := uint32(rng.IntN(256)), uint32(rng.IntN(256)), uint32(rng.IntN(256)), uint32(rng.IntN(256))
	o.box = probe.Box2(min(x1, x2), max(x1, x2), min(y1, y2), max(y1, y2))
	o.q = []uint32{uint32(rng.IntN(256)), uint32(rng.IntN(256))}
	o.m, o.mtr = 1+7*rng.IntN(2), metrics[rng.IntN(2)]
	return o
}

// observeSnap reads a snapshot at a random box under every merge
// strategy, and its NEAREST.
func observeSnap(snap *core.IndexSnapshot, rng *rand.Rand) (obs, error) {
	o := draw(rng)
	o.seq, o.n = snap.Seq(), snap.Len()
	for _, s := range strategies {
		pts, _, err := snap.RangeSearch(o.box, s)
		if err != nil {
			return o, err
		}
		o.hits = append(o.hits, pts)
	}
	var err error
	o.nbs, _, err = snap.NearestCtx(nil, o.q, o.m, o.mtr, nil)
	return o, err
}

// observeDB reads the database at a random box, and its NEAREST, at the
// seq r has published.
func (r *run) observeDB() (obs, error) {
	o := draw(r.rng)
	o.seq, o.n = r.seq, r.db.Len()
	r.keep()
	pts, _, err := r.db.RangeSearch(o.box)
	if err != nil {
		return o, err
	}
	o.hits = [][]probe.Point{pts}
	o.nbs, _, err = r.db.Nearest(o.q, o.m, o.mtr)
	return o, err
}

// check compares a read with the state it must have seen.
func (o *obs) check(want model) error {
	if o.n != len(want) {
		return fmt.Errorf("Len %d, oracle %d", o.n, len(want))
	}
	for i, pts := range o.hits { // the strategies agree point for point, in z order
		if i == 0 && !want.same(o.box, pts) || i > 0 && !slices.EqualFunc(pts, o.hits[0], sameID) {
			return fmt.Errorf("box %v (read %d): %d points, not the oracle's", o.box, i, len(pts))
		}
	}
	all, slab := make([]probe.Point, 0, len(want)), make([]uint32, 0, 2*len(want))
	for id, xy := range want {
		slab = append(slab, xy[0], xy[1])
		all = append(all, probe.Point{ID: id, Coords: slab[len(slab)-2:]})
	}
	w := bruteNeighbors(all, o.q, o.m, o.mtr)
	if !slices.EqualFunc(o.nbs, w, func(a, b probe.Neighbor) bool { return sameID(a.Point, b.Point) && a.Dist == b.Dist }) {
		return fmt.Errorf("NEAREST m=%d %v at %v: %v, oracle %v", o.m, o.mtr, o.q, o.nbs, w)
	}
	return nil
}

// slot is the oracle's view of one open transaction.
type slot struct {
	tx     *probe.Tx
	base   uint64   // the seq it pinned at Begin
	view   model    // base plus its own writes
	writes []uint64 // the points its write-set touches
}

// ckpt is one Checkpoint call: the seqs at its start and return, and
// whether it acknowledged.
type ckpt struct {
	lo, hi uint64
	ok     bool
}

// run is one execution of a schedule against one database, and the
// oracle that predicts it.
type run struct {
	t     *testing.T
	tb    *table
	db    *probe.DB
	fs    *faultfs.FS // nil in memory
	fault string      // the armed fault: a step may fail, never answer wrongly
	rng   *rand.Rand  // boxes and query points of the reads
	st    step        // the step running, the i-th
	i     int

	committed model
	seq       uint64
	hist      map[uint64]model  // the committed state at each seq
	touched   map[uint64]uint64 // point id to the seq of the last publication writing it
	txs       [3]*slot
	pins      [3]*core.IndexSnapshot
	long      *core.IndexSnapshot

	mu     sync.Mutex // guards obs and ckpts against the goroutines
	obs    []obs      // snapshot and DB reads, replayed against hist
	ckpts  []ckpt
	spans  [][2]int        // write operations done before each checkpoint step, and its log sync
	ctx    context.Context // cancelled when the schedule stops the goroutines
	cancel func()
	wg     sync.WaitGroup
}

func (tb *table) open(t *testing.T, seed int64, fsys *faultfs.FS, leaf int) *run {
	opts := []probe.Option{probe.WithLeafCapacity(leaf), probe.WithPoolPages(64)}
	if fsys != nil {
		opts = []probe.Option{probe.WithDurability("probe.db"), probe.WithFS(fsys),
			probe.WithPageSize(256), probe.WithPoolPages(8)}
	}
	db, err := probe.Open(probe.MustGrid(2, 8), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return tb.newRun(t, seed, db, fsys, model{})
}

// newRun starts the oracle of a run on db, whose committed state is
// state, checkpointed.
func (tb *table) newRun(t *testing.T, seed int64, db *probe.DB, fsys *faultfs.FS, state model) *run {
	seq := db.MVCCStats().Seq
	r := &run{t: t, tb: tb, db: db, fs: fsys, rng: rand.New(rand.NewPCG(uint64(seed), 1)),
		committed: maps.Clone(state), seq: seq, hist: map[uint64]model{seq: state}, touched: map[uint64]uint64{},
		ckpts: []ckpt{{seq, seq, true}}}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	t.Cleanup(r.stop)
	return r
}

func (r *run) fatalf(format string, args ...any) {
	r.t.Fatalf("fault=%s step %d (%s): "+format, append([]any{r.fault, r.i, kindNames[r.st.kind]}, args...)...)
}

// ok reports whether a step succeeded. An error fails the schedule
// unless a fault is armed.
func (r *run) ok(err error, what string) bool {
	if err != nil && r.fault == "" {
		r.fatalf("%s: %v", what, err)
	}
	return err == nil
}

func (r *run) exec(steps []step, pre int) {
	for i := 0; i < len(steps) && (r.fs == nil || !r.fs.Crashed()); i++ {
		if i == pre {
			r.goConcurrent()
		}
		r.i, r.st = i, steps[i]
		r.step(r.st)
		if got := r.db.MVCCStats().Seq; got != r.seq {
			r.fatalf("database at seq %d, oracle at %d", got, r.seq)
		}
		if r.long != nil && (r.tb.longEach || i == len(steps)-1) { // then every strategy in end
			pts, _, err := r.long.RangeSearch(everything, core.MergeLazy)
			if r.ok(err, "long read") && !r.hist[r.long.Seq()].same(everything, pts) {
				r.fatalf("the snapshot pinned at seq %d reads %d points, not its state", r.long.Seq(), len(pts))
			}
		}
	}
	r.stop()
}

// goConcurrent pins the long snapshot and starts the table's reader and
// checkpoint goroutines.
func (r *run) goConcurrent() {
	if r.tb.long {
		r.long = r.db.Index().Snapshot()
		r.keep()
	}
	for g := 0; g < r.tb.readers; g++ {
		rng := rand.New(rand.NewPCG(r.rng.Uint64(), 2))
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for first := true; first || !r.stopped(); first = false {
				snap := r.db.Index().Snapshot()
				o, err := observeSnap(snap, rng)
				snap.Release()
				if err != nil {
					if r.fault == "" {
						r.t.Errorf("reader at seq %d: %v", o.seq, err)
					}
					return
				}
				r.mu.Lock()
				r.obs = append(r.obs, o)
				r.mu.Unlock()
			}
		}()
	}
	if r.tb.checkpointer {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for i := 0; i < 100 && !r.stopped(); i++ {
				lo := r.db.MVCCStats().Seq
				_, err := r.db.Checkpoint()
				r.checkpointed(lo, r.db.MVCCStats().Seq, err == nil)
				if err != nil {
					if r.fault == "" {
						r.t.Errorf("checkpoint: %v", err)
					}
					return
				}
			}
		}()
	}
}

func (r *run) stopped() bool { return r.ctx.Err() != nil }

func (r *run) stop() {
	r.cancel()
	r.wg.Wait()
}

func (r *run) checkpointed(lo, hi uint64, ok bool) {
	r.mu.Lock()
	r.ckpts = append(r.ckpts, ckpt{lo, hi, ok})
	r.mu.Unlock()
}

// publish applies one publication to the oracle: each id takes its
// state in view (absent: deleted) at the next seq.
func (r *run) publish(view model, ids ...uint64) {
	r.seq++
	for _, id := range ids {
		if xy, ok := view[id]; ok {
			r.committed[id] = xy
		} else {
			delete(r.committed, id)
		}
		r.touched[id] = r.seq
	}
	if r.tb.readers > 0 || r.tb.checkpointer {
		r.keep()
	}
}

// keep records the committed state at the current seq, which a read or
// a checkpoint names. A concurrent goroutine may name any seq, so
// tables with one keep every state.
func (r *run) keep() {
	if _, ok := r.hist[r.seq]; !ok {
		r.hist[r.seq] = maps.Clone(r.committed)
	}
}

// read keeps a snapshot or database read for the replay.
func (r *run) read(o obs, err error) {
	if r.ok(err, "read") {
		r.mu.Lock()
		r.obs = append(r.obs, o)
		r.mu.Unlock()
	}
}

func (r *run) step(st step) {
	p := probe.Pt2(st.id, st.x, st.y)
	s, snap := r.txs[st.slot], r.pins[st.slot]
	if (s == nil) != (st.kind == sBegin) && st.kind >= sBegin && st.kind <= sRollback {
		return // no transaction to step, or one to begin is open
	}
	var ok bool
	switch st.kind {
	case sInsert:
		if r.ok(r.db.Insert(p), "insert") {
			r.publish(model{st.id: {st.x, st.y}}, st.id)
		}
	case sDelete, sDeleteAbsent:
		if st.kind == sDelete {
			if p, ok = r.committed.pick(st.n); !ok {
				return
			}
		}
		found, err := r.db.Delete(p)
		if r.ok(err, "delete") && found != (st.kind == sDelete) {
			r.fatalf("delete of point %d reported found=%v", p.ID, found)
		}
		if found && err == nil {
			r.publish(nil, p.ID)
		}
	case sBegin:
		tx, err := r.db.Begin(context.Background())
		if !r.ok(err, "begin") {
			return
		}
		if tx.Seq() != r.seq {
			r.fatalf("transaction pinned seq %d, committed is %d", tx.Seq(), r.seq)
		}
		r.txs[st.slot] = &slot{tx: tx, base: r.seq, view: maps.Clone(r.committed)}
	case sTxInsert, sTxDelete:
		var err error
		if st.kind == sTxInsert {
			ok, err = true, s.tx.Insert(p)
		} else if p, ok = s.view.pick(st.n); ok {
			ok, err = s.tx.Delete(p)
		} else {
			return
		}
		if !r.ok(err, "transaction write") { // its view is unknown now
			s.tx.Rollback()
			r.txs[st.slot] = nil
			return
		}
		if !ok {
			r.fatalf("transaction delete of point %d in its view reported absent", p.ID)
		}
		if st.kind == sTxInsert {
			s.view[p.ID] = [2]uint32{st.x, st.y}
		} else {
			delete(s.view, p.ID)
		}
		s.writes = append(s.writes, p.ID)
	case sTxRead:
		o := draw(r.rng) // a random box, then the whole grid; its NEAREST is TestTxViewMatchesCommitted's
		o.n, o.m = s.tx.Len(), 0
		for _, box := range []probe.Box{o.box, everything} {
			pts, _, err := s.tx.RangeSearch(box)
			if !r.ok(err, "transaction read") {
				return
			}
			o.box, o.hits = box, [][]probe.Point{pts}
			if err := o.check(s.view); err != nil {
				r.fatalf("transaction at seq %d: %v", s.base, err)
			}
		}
	case sCommit:
		r.txs[st.slot] = nil
		conflict := false
		for _, id := range s.writes {
			conflict = conflict || r.touched[id] > s.base
		}
		err := s.tx.Commit()
		switch isConflict := errors.Is(err, probe.ErrTxConflict); {
		case err == nil && !conflict:
			if len(s.writes) > 0 {
				r.publish(s.view, s.writes...)
			}
		case isConflict && conflict:
		case err != nil && !isConflict && r.fault != "":
		default:
			r.fatalf("commit: %v, oracle predicts conflict=%v (%d writes since seq %d)",
				err, conflict, len(s.writes), s.base)
		}
	case sRollback:
		r.txs[st.slot] = nil
		if err := s.tx.Rollback(); err != nil {
			r.fatalf("rollback: %v", err)
		}
	case sPin:
		if snap == nil {
			r.pins[st.slot] = r.db.Index().Snapshot()
			r.keep()
		}
	case sPinRead, sUnpin:
		if snap != nil && st.kind == sPinRead {
			r.read(observeSnap(snap, r.rng))
		} else if snap != nil {
			snap.Release()
			r.pins[st.slot] = nil
		}
	case sRead:
		r.read(r.observeDB())
	case sCheckpoint:
		ops := 0
		if r.fs != nil {
			ops = r.fs.Ops()
		}
		st, err := r.db.Checkpoint()
		// The checkpoint's first write operations are its log appends;
		// the log's sync follows them.
		if r.fs != nil && st.WALAppends > 0 {
			r.spans = append(r.spans, [2]int{ops, ops + int(st.WALAppends) + 1})
		}
		r.keep()
		r.checkpointed(r.seq, r.seq, r.ok(err, "checkpoint"))
	}
}

// replay checks every kept read against hist at its seq.
func (r *run) replay() {
	for _, o := range r.obs {
		want, ok := r.hist[o.seq]
		if !ok {
			r.t.Fatalf("a read pinned seq %d, which the schedule never published", o.seq)
		}
		if err := o.check(want); err != nil {
			r.t.Fatalf("read at seq %d: %v", o.seq, err)
		}
	}
}

// end closes a run that did not crash: the open transactions resolve
// (even slots commit, odd ones roll back), the pins go, the reads
// replay, and the database must hold the serial replay's state, drain
// its version chain and keep its invariants.
func (r *run) end() {
	for i, s := range r.txs {
		if s != nil {
			r.i, r.st = -1, step{kind: sCommit + i%2, slot: i} // sRollback follows sCommit
			r.step(r.st)
		}
	}
	if r.long != nil {
		r.read(observeSnap(r.long, r.rng))
	}
	for _, snap := range append(r.pins[:], r.long) {
		if snap != nil {
			snap.Release()
		}
	}
	r.replay()
	if got := collect(r.t, r.db); !maps.Equal(got, r.committed) {
		r.t.Fatalf("final state: %d points, serial replay %d", len(got), len(r.committed))
	}
	r.db.Index().Tree().CollectGarbage()
	if mv := r.db.MVCCStats(); mv.PinnedSnapshots != 0 || mv.RetainedVersions != 0 ||
		mv.RetainedPages != 0 || mv.FreeFailures != 0 {
		r.t.Fatalf("version chain not drained: %+v", mv)
	}
	if err := r.db.Index().Tree().CheckInvariants(); err != nil {
		r.t.Fatalf("tree invariants: %v", err)
	}
	if err := r.db.CloseReadOnly(); err != nil {
		r.t.Fatalf("close: %v", err)
	}
}

// afterRecovery continues a recovered database: it reads its state, takes
// a transaction and an insert, and checkpoints them.
var afterRecovery = []step{{kind: sPin}, {kind: sPinRead}, {kind: sRead}, {kind: sBegin},
	{kind: sTxInsert, id: 1 << 60, x: 11, y: 13}, {kind: sCommit}, {kind: sInsert, id: 1<<60 + 1, x: 13, y: 11}, {kind: sCheckpoint}}

// recover opens the crash image and checks the recovered database,
// then runs afterRecovery on it and ends that run like any other.
func (r *run) recover(img *faultfs.FS, seed int64) {
	again := img.Clone()
	db, err := openImage(img)
	if err != nil {
		var ce *disk.ChecksumError
		if r.fault == "flip" && errors.As(err, &ce) {
			return // detected corruption: refused, not wrong
		}
		r.t.Fatalf("fault=%s: recovery failed: %v", r.fault, err)
	}
	defer db.Close()
	if was, _ := db.Recovered(); !was {
		r.t.Fatalf("fault=%s: open did not report recovery", r.fault)
	}
	state := r.landed(db)
	if err := db.Index().Tree().CheckInvariants(); err != nil {
		r.t.Fatalf("fault=%s: recovered tree invariants: %v", r.fault, err)
	}
	if seed%5 == 0 { // idempotence: the same image recovers to the same state
		db2, err := openImage(again)
		if err != nil {
			r.t.Fatalf("fault=%s: re-recovery: %v", r.fault, err)
		}
		defer db2.Close()
		if got := collect(r.t, db2); !maps.Equal(got, state) {
			r.t.Fatalf("fault=%s: re-recovery diverged: %d points, first recovery %d", r.fault, len(got), len(state))
		}
	}
	after := r.tb.newRun(r.t, seed, db, nil, state)
	after.exec(afterRecovery, len(afterRecovery))
	after.end()
}

func openImage(img *faultfs.FS) (*probe.DB, error) {
	return probe.Open(probe.MustGrid(2, 8), probe.WithDurability("probe.db"), probe.WithFS(img))
}

// landed returns the recovered database's state, which must be hist at
// a seq of the last acknowledged checkpoint or of the one in flight
// when the fault hit.
func (r *run) landed(db *probe.DB) model {
	got := collect(r.t, db)
	last := 0
	for i, c := range r.ckpts {
		if c.ok {
			last = i
		}
	}
	cands := r.ckpts[last:min(last+2, len(r.ckpts))]
	for _, c := range cands {
		for s := c.lo; s <= c.hi; s++ {
			if want, ok := r.hist[s]; ok && maps.Equal(got, want) {
				return want
			}
		}
	}
	r.t.Fatalf("fault=%s: recovered %d points, the state of no checkpoint in %+v", r.fault, len(got), cands)
	return nil
}
