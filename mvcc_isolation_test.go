package probe_test

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"probe"
)

// This file is the MVCC isolation property harness (docs/mvcc.md):
// for hundreds of seeded schedules it runs one writer applying a
// random insert/delete workload concurrently with reader goroutines
// that pin snapshots and run range searches against them, and asserts
// that every snapshot read equals a serial-oracle replay of the
// schedule prefix that produced the pinned version:
//
//   - the writer records, after each committed write, the exact point
//     set of the version it published (keyed by the version sequence
//     number — the serial oracle);
//   - each reader records (pinned seq, query box, result ids) for
//     every search it runs, under all three merge strategies;
//   - after the goroutines join, each observation is replayed against
//     the oracle state of its pinned seq: any divergence — a point
//     from a later version, a point missing from the pinned one, a
//     torn mix of two versions — fails the schedule;
//   - a long reader pins one snapshot before the writer starts and
//     queries it after the writer has finished: the answer must be
//     the initial state, untouched by every intervening commit;
//   - when everything is released, explicit garbage collection must
//     drain the version chain completely (no retained versions or
//     pages, no pinned snapshots) and the surviving tree must pass
//     its structural invariants.
//
// Failing seeds are appended to $MVCC_SEED_FILE (CI archives it).

// mvccStep is one writer operation of a generated schedule.
type mvccStep struct {
	op   int // 0 insert, 1 delete (some live point), 2 delete missing
	id   uint64
	x, y uint32
	n    int
}

func genMVCCSteps(rng *rand.Rand) []mvccStep {
	n := 80 + rng.Intn(120)
	steps := make([]mvccStep, n)
	nextID := uint64(1)
	for i := range steps {
		r := rng.Intn(100)
		switch {
		case r < 65:
			steps[i] = mvccStep{op: 0, id: nextID,
				x: uint32(rng.Intn(256)), y: uint32(rng.Intn(256))}
			nextID++
		case r < 90:
			steps[i] = mvccStep{op: 1, n: rng.Intn(1 << 30)}
		default:
			steps[i] = mvccStep{op: 2, id: 1 << 50,
				x: uint32(rng.Intn(256)), y: uint32(rng.Intn(256))}
		}
	}
	return steps
}

// mvccObs is one snapshot read a reader goroutine performed: the
// version it pinned, what it asked, and what it saw.
type mvccObs struct {
	seq    uint64
	lo, hi [2]uint32
	ids    []uint64
	count  int // snapshot Len() at the same pin
}

// recordMVCCFailureSeed appends a failing seed to $MVCC_SEED_FILE so
// CI can archive it for reproduction.
func recordMVCCFailureSeed(seed int64) {
	path := os.Getenv("MVCC_SEED_FILE")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	fmt.Fprintf(f, "probe mvcc seed=%d\n", seed)
	f.Close()
}

func TestMVCCIsolationProperty(t *testing.T) {
	schedules := mvccHarnessSchedules
	if testing.Short() {
		schedules /= 10
	}
	for seed := int64(0); seed < int64(schedules); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runOneMVCCSchedule(t, seed)
			if t.Failed() {
				recordMVCCFailureSeed(seed)
			}
		})
	}
}

func runOneMVCCSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	steps := genMVCCSteps(rng)

	db, err := probe.Open(probe.MustGrid(2, 8),
		probe.WithLeafCapacity(4+rng.Intn(8)), probe.WithPoolPages(64))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Seed the database with an initial point set so the long reader
	// has something to defend against the writer.
	model := dbModel{}
	for i := 0; i < 10+rng.Intn(20); i++ {
		id := uint64(1<<40) + uint64(i)
		x, y := uint32(rng.Intn(256)), uint32(rng.Intn(256))
		if err := db.Insert(probe.Pt2(id, x, y)); err != nil {
			t.Fatal(err)
		}
		model[id] = [2]uint32{x, y}
	}

	// The serial oracle: hist[seq] is the exact point set of the
	// version with that sequence number. Single writer, so each
	// successful write advances the seq by exactly one and the state
	// read back right after the write is unambiguous.
	hist := map[uint64]dbModel{db.MVCCStats().Seq: model.clone()}
	var histMu sync.Mutex

	longSnap := db.Index().Snapshot()
	longSeq := longSnap.Seq()
	defer longSnap.Release()

	var wg sync.WaitGroup
	writerDone := make(chan struct{})

	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		defer close(writerDone)
		for _, st := range steps {
			switch st.op {
			case 0:
				if err := db.Insert(probe.Pt2(st.id, st.x, st.y)); err == nil {
					model[st.id] = [2]uint32{st.x, st.y}
				} else {
					continue
				}
			case 1:
				ids := model.liveIDs()
				if len(ids) == 0 {
					continue
				}
				id := ids[st.n%len(ids)]
				xy := model[id]
				ok, err := db.Delete(probe.Pt2(id, xy[0], xy[1]))
				if err != nil || !ok {
					continue
				}
				delete(model, id)
			case 2:
				// Deleting an absent key must not publish a version.
				if ok, _ := db.Delete(probe.Pt2(st.id, st.x, st.y)); ok {
					t.Errorf("delete of absent id %d reported success", st.id)
				}
				continue
			}
			histMu.Lock()
			hist[db.MVCCStats().Seq] = model.clone()
			histMu.Unlock()
		}
	}()

	const readers = 3
	obsCh := make(chan []mvccObs, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(seed*31 + int64(g)))
			var obs []mvccObs
			for i := 0; ; i++ {
				if i > 0 { // always record at least one observation
					select {
					case <-writerDone:
						obsCh <- obs
						return
					default:
					}
				}
				snap := db.Index().Snapshot()
				o := mvccObs{seq: snap.Seq(), count: snap.Len()}
				x1, x2 := uint32(rrng.Intn(256)), uint32(rrng.Intn(256))
				y1, y2 := uint32(rrng.Intn(256)), uint32(rrng.Intn(256))
				if x1 > x2 {
					x1, x2 = x2, x1
				}
				if y1 > y2 {
					y1, y2 = y2, y1
				}
				o.lo, o.hi = [2]uint32{x1, y1}, [2]uint32{x2, y2}
				pts, _, err := snap.RangeSearchCtx(nil, probe.Box2(x1, x2, y1, y2), nil)
				snap.Release()
				if err != nil {
					t.Errorf("reader %d: range search at seq %d: %v", g, o.seq, err)
					obsCh <- obs
					return
				}
				for _, p := range pts {
					o.ids = append(o.ids, p.ID)
				}
				obs = append(obs, o)
			}
		}(g)
	}
	wg.Wait()
	close(obsCh)

	// Replay every observation against the serial oracle at its
	// pinned version.
	checked := 0
	for obs := range obsCh {
		for _, o := range obs {
			want, ok := hist[o.seq]
			if !ok {
				t.Fatalf("reader pinned seq %d, which the writer never recorded", o.seq)
			}
			if o.count != len(want) {
				t.Fatalf("snapshot at seq %d has Len %d, oracle says %d", o.seq, o.count, len(want))
			}
			oracle := map[uint64]bool{}
			for id, xy := range want {
				if xy[0] >= o.lo[0] && xy[0] <= o.hi[0] && xy[1] >= o.lo[1] && xy[1] <= o.hi[1] {
					oracle[id] = true
				}
			}
			if len(o.ids) != len(oracle) {
				t.Fatalf("seq %d box [%d,%d]x[%d,%d]: read %d points, serial oracle says %d",
					o.seq, o.lo[0], o.hi[0], o.lo[1], o.hi[1], len(o.ids), len(oracle))
			}
			for _, id := range o.ids {
				if !oracle[id] {
					t.Fatalf("seq %d: snapshot read returned point %d outside its version", o.seq, id)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("readers recorded no observations; harness broken")
	}

	// The long reader: its snapshot must still answer with the initial
	// state, however many versions committed meanwhile.
	initial := hist[longSeq]
	got := dbModel{}
	if _, err := longSnap.RangeSearchFuncCtx(nil, probe.Box2(0, 255, 0, 255), nil,
		func(p probe.Point) bool {
			got[p.ID] = [2]uint32{p.Coords[0], p.Coords[1]}
			return true
		}); err != nil {
		t.Fatalf("long reader scan: %v", err)
	}
	if err := matchDBState(got, initial); err != nil {
		t.Fatalf("long reader diverged from its pinned version %d: %v", longSeq, err)
	}
	longSnap.Release()

	// With every snapshot released, explicit GC must drain the chain.
	db.Index().Tree().CollectGarbage()
	mv := db.MVCCStats()
	if mv.PinnedSnapshots != 0 || mv.RetainedVersions != 0 || mv.RetainedPages != 0 {
		t.Fatalf("version chain not drained after release: %+v", mv)
	}
	if mv.FreeFailures != 0 {
		t.Fatalf("GC failed to free %d pages: %+v", mv.FreeFailures, mv)
	}
	if err := db.Index().Tree().CheckInvariants(); err != nil {
		t.Fatalf("surviving tree invariants: %v", err)
	}

	// And the surviving live state must equal the final oracle state.
	final := dbModel{}
	if err := db.Scan(func(p probe.Point) bool {
		final[p.ID] = [2]uint32{p.Coords[0], p.Coords[1]}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := matchDBState(final, model); err != nil {
		t.Fatalf("final state diverged from serial replay: %v", err)
	}
}
