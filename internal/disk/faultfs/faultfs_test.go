package faultfs_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"

	"probe/internal/disk"
	"probe/internal/disk/faultfs"
)

func TestFaultFSBasics(t *testing.T) {
	fsys := faultfs.New()
	f, err := fsys.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 0); err != nil || string(buf) != "hello" {
		t.Fatalf("read back: %q, %v", buf, err)
	}
	size, exists, err := fsys.Stat("a")
	if err != nil || !exists || size != 5 {
		t.Fatalf("stat: %d %v %v", size, exists, err)
	}
	if _, _, err := fsys.Stat("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Open("b"); err == nil {
		t.Fatal("open of missing file succeeded")
	}
}

func TestFaultFSUnsyncedLostOnCrash(t *testing.T) {
	fsys := faultfs.New()
	f, _ := fsys.Create("a")
	f.WriteAt([]byte("durable"), 0)
	f.Sync()
	// Arm with a far-away crash so the RNG is seeded, then write
	// without syncing.
	fsys.Arm(faultfs.Plan{Seed: 42})
	f.WriteAt([]byte("vanishes"), 0)
	img := fsys.CrashImage()
	g, err := img.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if _, err := g.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	// The unsynced write either survived wholly or vanished wholly.
	if string(buf) != "durable" && string(buf) != "vanishe" {
		t.Fatalf("crash image holds %q", buf)
	}
}

func TestFaultFSCrashAt(t *testing.T) {
	fsys := faultfs.New()
	f, _ := fsys.Create("a")
	fsys.Arm(faultfs.Plan{Seed: 1, CrashAt: 2})
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatalf("op 1 should succeed: %v", err)
	}
	if _, err := f.WriteAt([]byte("y"), 1); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("op 2 should crash: %v", err)
	}
	if !fsys.Crashed() {
		t.Fatal("not crashed")
	}
	if err := f.Sync(); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("op after crash: %v", err)
	}
}

func TestFaultFSTornWriteSectorAligned(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		fsys := faultfs.New()
		f, _ := fsys.Create("a")
		f.Sync()
		fsys.Arm(faultfs.Plan{Seed: seed, TornAt: 1})
		data := bytes.Repeat([]byte{0xAA}, 4*faultfs.SectorSize)
		if _, err := f.WriteAt(data, 0); !errors.Is(err, faultfs.ErrCrashed) {
			t.Fatalf("torn write should crash: %v", err)
		}
		img := fsys.CrashImage()
		g, err := img.Open("a")
		if err != nil {
			t.Fatal(err)
		}
		size, _ := g.Size()
		if size%faultfs.SectorSize != 0 {
			t.Fatalf("seed %d: torn prefix of %d bytes is not sector-aligned", seed, size)
		}
		if size >= int64(len(data)) {
			t.Fatalf("seed %d: torn write survived whole (%d bytes)", seed, size)
		}
	}
}

func TestFaultFSDeterministicImages(t *testing.T) {
	build := func() *faultfs.FS {
		fsys := faultfs.New()
		f, _ := fsys.Create("a")
		f.WriteAt([]byte("base"), 0)
		f.Sync()
		fsys.Arm(faultfs.Plan{Seed: 7, CrashAt: 5})
		for i := 0; i < 10; i++ {
			if _, err := f.WriteAt([]byte{byte(i)}, int64(i)); err != nil {
				break
			}
		}
		return fsys.CrashImage()
	}
	a, b := build(), build()
	fa, _ := a.Open("a")
	fb, _ := b.Open("a")
	sa, _ := fa.Size()
	sb, _ := fb.Size()
	if sa != sb {
		t.Fatalf("sizes differ: %d vs %d", sa, sb)
	}
	ba := make([]byte, sa)
	bb := make([]byte, sb)
	fa.ReadAt(ba, 0)
	fb.ReadAt(bb, 0)
	if !bytes.Equal(ba, bb) {
		t.Fatal("same seed produced different crash images")
	}
}

// The store-level crash-recovery property: run a seeded schedule of
// allocate/write/free/recycle/checkpoint against a RecoverableStore
// with one injected fault, crash, recover from the image, and require
// the recovered store to equal an acknowledged (or
// committed-in-flight) checkpoint — or, for bit flips only, to refuse
// with ChecksumError.
const storeHarnessSeeds = 200

type storeStep struct {
	op int // 0 alloc, 1 write, 2 free, 3 checkpoint, 4 recycle (free, allocate, write)
	n  int
}

func genStoreSteps(rng *rand.Rand) []storeStep {
	n := 40 + rng.Intn(40)
	steps := make([]storeStep, n)
	for i := range steps {
		r := rng.Intn(100)
		var op int
		switch {
		case r < 30:
			op = 0
		case r < 65:
			op = 1
		case r < 72:
			op = 2
		case r < 82:
			op = 4
		default:
			op = 3
		}
		steps[i] = storeStep{op: op, n: rng.Intn(1 << 30)}
	}
	steps[n-1] = storeStep{op: 3} // end on a checkpoint attempt
	return steps
}

type storeModel map[disk.PageID][]byte

func (m storeModel) clone() storeModel {
	c := make(storeModel, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func (m storeModel) liveIDs() []disk.PageID {
	ids := make([]disk.PageID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func fillPage(size int, fill byte) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = fill
	}
	return b
}

// runStoreSteps executes the schedule, tracking the last acknowledged
// checkpoint state and the (at most one) checkpoint that failed after
// possibly committing. It also counts the allocations that reused a
// page the last acknowledged checkpoint references.
func runStoreSteps(fsys *faultfs.FS, rs *disk.RecoverableStore, steps []storeStep) (acked, maybe storeModel, ckptReused uint64) {
	const pageSize = 128
	live := storeModel{}
	acked = storeModel{}
	for _, st := range steps {
		if fsys.Crashed() {
			break
		}
		switch st.op {
		case 0:
			if id, err := rs.Allocate(); err == nil {
				live[id] = fillPage(pageSize, 0)
				if _, ok := acked[id]; ok {
					ckptReused++
				}
			}
		case 1:
			ids := live.liveIDs()
			if len(ids) == 0 {
				continue
			}
			id := ids[st.n%len(ids)]
			fill := byte(st.n)
			if err := rs.Write(id, fillPage(pageSize, fill)); err == nil {
				live[id] = fillPage(pageSize, fill)
			}
		case 2:
			ids := live.liveIDs()
			if len(ids) == 0 {
				continue
			}
			id := ids[st.n%len(ids)]
			if err := rs.Free(id); err == nil {
				delete(live, id)
			}
		case 4:
			// Free then allocate inside one epoch: the freed page comes
			// straight back, whether this epoch allocated it or a
			// checkpoint references it.
			ids := live.liveIDs()
			if len(ids) == 0 {
				continue
			}
			if err := rs.Free(ids[st.n%len(ids)]); err != nil {
				continue
			}
			delete(live, ids[st.n%len(ids)])
			id, err := rs.Allocate()
			if err != nil {
				continue
			}
			live[id] = fillPage(pageSize, 0)
			if _, ok := acked[id]; ok {
				ckptReused++
			}
			if err := rs.Write(id, fillPage(pageSize, byte(st.n))); err == nil {
				live[id] = fillPage(pageSize, byte(st.n))
			}
		case 3:
			cand := live.clone()
			if err := rs.Checkpoint(); err == nil {
				acked = cand
				maybe = nil
			} else if maybe == nil {
				maybe = cand
			}
		}
	}
	return acked, maybe, ckptReused
}

func matchStoreState(rs *disk.RecoverableStore, m storeModel) error {
	if rs.NumPages() != len(m) {
		return fmt.Errorf("NumPages %d, want %d", rs.NumPages(), len(m))
	}
	buf := make([]byte, rs.PageSize())
	for id, want := range m {
		if err := rs.Read(id, buf); err != nil {
			return fmt.Errorf("read %d: %w", id, err)
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("page %d content mismatch", id)
		}
	}
	return nil
}

func planForSeed(rng *rand.Rand, seed int64, w int) (faultfs.Plan, string) {
	at := 1 + rng.Intn(w)
	switch seed % 4 {
	case 0:
		return faultfs.Plan{Seed: seed, CrashAt: at}, "crash"
	case 1:
		return faultfs.Plan{Seed: seed, TornAt: at}, "torn"
	case 2:
		return faultfs.Plan{Seed: seed, FailAt: at}, "fail"
	default:
		return faultfs.Plan{Seed: seed, FlipAt: at, CrashAt: at + 1 + rng.Intn(20)}, "flip"
	}
}

// recordFailureSeed appends a failing seed to $CRASH_SEED_FILE so CI
// can archive it for reproduction.
func recordFailureSeed(harness string, seed int64, kind string) {
	path := os.Getenv("CRASH_SEED_FILE")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	fmt.Fprintf(f, "%s seed=%d kind=%s\n", harness, seed, kind)
	f.Close()
}

func TestStoreCrashRecoveryProperty(t *testing.T) {
	var reused, ckptReused uint64
	for seed := int64(0); seed < storeHarnessSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			kind, n, c := runOneStoreSchedule(t, seed)
			reused += n
			ckptReused += c
			if t.Failed() {
				recordFailureSeed("store", seed, kind)
			}
		})
	}
	if local := reused - ckptReused; local < storeHarnessSeeds {
		t.Errorf("the schedules reused %d epoch-local pages: too few to test reuse", local)
	}
	if ckptReused < storeHarnessSeeds {
		t.Errorf("the schedules reused %d checkpointed pages: too few to test reuse", ckptReused)
	}
}

// runOneStoreSchedule returns the fault kind, how many pages the
// fault-free dry run of the schedule reused inside an epoch, and how
// many of those the last checkpoint referenced.
func runOneStoreSchedule(t *testing.T, seed int64) (string, uint64, uint64) {
	rng := rand.New(rand.NewSource(seed))
	steps := genStoreSteps(rng)

	// Dry run: count the schedule's write operations.
	dry := faultfs.New()
	rs, err := disk.CreateRecoverableStore(dry, "db", 128)
	if err != nil {
		t.Fatal(err)
	}
	dry.Arm(faultfs.Plan{}) // reset the op counter; no faults
	_, _, ckptReused := runStoreSteps(dry, rs, steps)
	w := dry.Ops()
	if w == 0 {
		t.Fatal("schedule performed no write operations")
	}
	reused := rs.DurabilityStats().PagesReused

	// Armed run: same schedule, one fault.
	plan, kind := planForSeed(rng, seed, w)
	fsys := faultfs.New()
	rs2, err := disk.CreateRecoverableStore(fsys, "db", 128)
	if err != nil {
		t.Fatal(err)
	}
	fsys.Arm(plan)
	acked, maybe, _ := runStoreSteps(fsys, rs2, steps)

	// Crash (or stop) and recover.
	img := fsys.CrashImage()
	rec, _, err := disk.RecoverStore(img, "db")
	if err != nil {
		var ce *disk.ChecksumError
		if kind == "flip" && errors.As(err, &ce) {
			return kind, reused, ckptReused // a detected double fault: corruption refused
		}
		t.Fatalf("kind=%s: recovery failed: %v", kind, err)
	}
	defer rec.Close()

	errAcked := matchStoreState(rec, acked)
	var errMaybe error
	if maybe != nil {
		errMaybe = matchStoreState(rec, maybe)
	} else {
		errMaybe = fmt.Errorf("no in-flight checkpoint")
	}
	if errAcked != nil && errMaybe != nil {
		t.Fatalf("kind=%s: recovered state matches no acknowledged checkpoint:\n  vs acked: %v\n  vs in-flight: %v", kind, errAcked, errMaybe)
	}

	// The recovered store must accept new work and checkpoint it.
	id, err := rec.Allocate()
	if err != nil {
		t.Fatalf("allocate after recovery: %v", err)
	}
	if err := rec.Write(id, fillPage(128, 0x5A)); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	if err := rec.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after recovery: %v", err)
	}

	// Idempotence: recovering the recovered image changes nothing.
	if seed%5 == 0 {
		img2 := img.Clone()
		rec2, _, err := disk.RecoverStore(img2, "db")
		if err != nil {
			t.Fatalf("re-recovery: %v", err)
		}
		rec2.Close()
	}
	return kind, reused, ckptReused
}
