package disk_test

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"probe/internal/disk"
	"probe/internal/disk/faultfs"
	"probe/internal/obs"
)

// page builds a page-sized payload with a recognizable fill.
func page(size int, fill byte) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestRecoverableCheckpointAndReopen(t *testing.T) {
	fsys := faultfs.New()
	rs, err := disk.CreateRecoverableStore(fsys, "db", 128)
	if err != nil {
		t.Fatal(err)
	}
	var ids []disk.PageID
	for i := 0; i < 3; i++ {
		id, err := rs.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if err := rs.Write(id, page(128, byte('A'+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ds := rs.DurabilityStats()
	if ds.WALAppends == 0 || ds.WALSyncs == 0 || ds.Checkpoints != 1 {
		t.Fatalf("durability stats after checkpoint: %+v", ds)
	}
	// Overwrite one page and free another WITHOUT checkpointing: a
	// crash must roll both back.
	if err := rs.Write(ids[0], page(128, 'Z')); err != nil {
		t.Fatal(err)
	}
	if err := rs.Free(ids[2]); err != nil {
		t.Fatal(err)
	}
	// The dirty read must see the new data before the crash...
	buf := make([]byte, 128)
	if err := rs.Read(ids[0], buf); err != nil || buf[0] != 'Z' {
		t.Fatalf("dirty read: %v, buf[0]=%c", err, buf[0])
	}

	img := fsys.CrashImage()
	rs2, info, err := disk.RecoverStore(img, "db")
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rs2.Close()
	if info.Committed {
		t.Fatalf("no committed batch expected: %+v", info)
	}
	// ...and the recovered store must see the checkpointed data.
	for i, id := range ids {
		if err := rs2.Read(id, buf); err != nil {
			t.Fatalf("read %d after recovery: %v", id, err)
		}
		if !bytes.Equal(buf, page(128, byte('A'+i))) {
			t.Fatalf("page %d rolled forward past the checkpoint", id)
		}
	}
	if rs2.NumPages() != 3 {
		t.Fatalf("NumPages after recovery: %d", rs2.NumPages())
	}
}

func TestRecoverableCommittedBatchReplay(t *testing.T) {
	// Crash between the WAL commit fsync and the data-file apply: the
	// batch must be rolled forward on recovery. The schedule is found
	// by scanning fault indices for one that dies inside Checkpoint.
	for fault := 1; fault < 60; fault++ {
		fsys := faultfs.New()
		rs, err := disk.CreateRecoverableStore(fsys, "db", 128)
		if err != nil {
			t.Fatal(err)
		}
		id, err := rs.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.Write(id, page(128, 'Q')); err != nil {
			t.Fatal(err)
		}
		if err := rs.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := rs.Write(id, page(128, 'R')); err != nil {
			t.Fatal(err)
		}
		fsys.Arm(faultfs.Plan{Seed: int64(fault), CrashAt: fault})
		ckErr := rs.Checkpoint()
		if !fsys.Crashed() {
			if ckErr != nil {
				t.Fatalf("fault %d: checkpoint failed without crash: %v", fault, ckErr)
			}
			break // schedule exhausted the checkpoint's own writes
		}
		img := fsys.CrashImage()
		rs2, _, err := disk.RecoverStore(img, "db")
		if err != nil {
			t.Fatalf("fault %d: recover: %v", fault, err)
		}
		buf := make([]byte, 128)
		if err := rs2.Read(id, buf); err != nil {
			t.Fatalf("fault %d: read: %v", fault, err)
		}
		// Either the old or the new checkpoint, depending on whether
		// the commit fsync landed — never a mix, never garbage.
		if buf[0] != 'Q' && buf[0] != 'R' {
			t.Fatalf("fault %d: impossible page contents %q", fault, buf[0])
		}
		if !bytes.Equal(buf, page(128, buf[0])) {
			t.Fatalf("fault %d: torn page survived recovery", fault)
		}
		rs2.Close()
	}
}

// TestRecoverableStickyFailure: a write-path fault freezes the store.
// Write, Allocate and Free touch no file, so a fault strikes the next
// checkpoint's log append, the first write operation after the last
// checkpoint, even when an Allocate that grows the file came before it.
func TestRecoverableStickyFailure(t *testing.T) {
	for _, c := range []struct {
		name string
		fail func(t *testing.T, rs *disk.RecoverableStore, fsys *faultfs.FS) error
	}{
		{"checkpoint log append", func(t *testing.T, rs *disk.RecoverableStore, fsys *faultfs.FS) error {
			return rs.Checkpoint() // its first operation appends to the log
		}},
		{"allocation growing the file", func(t *testing.T, rs *disk.RecoverableStore, fsys *faultfs.FS) error {
			// No free slot: the id lies past the file's end, reserved in
			// memory only.
			if _, err := rs.Allocate(); err != nil {
				t.Fatalf("allocation growing the file: %v", err)
			}
			if n := fsys.Ops(); n != 0 {
				t.Fatalf("allocation growing the file used %d file operations, want 0", n)
			}
			return rs.Checkpoint()
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			fsys := faultfs.New()
			rs, err := disk.CreateRecoverableStore(fsys, "db", 128)
			if err != nil {
				t.Fatal(err)
			}
			id, err := rs.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if err := rs.Write(id, page(128, 'X')); err != nil {
				t.Fatal(err)
			}
			fsys.Arm(faultfs.Plan{FailAt: 1})
			if err := c.fail(t, rs, fsys); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("want injected failure, got %v", err)
			}
			fsys.Disarm()
			// The store is frozen: every write-path operation reports the
			// sticky error, telling the operator to recover from the log.
			if err := rs.Write(id, page(128, 'X')); err == nil || !strings.Contains(err.Error(), "needs recovery") {
				t.Fatalf("write after failure: %v", err)
			}
			if err := rs.Checkpoint(); err == nil || !strings.Contains(err.Error(), "needs recovery") {
				t.Fatalf("checkpoint after failure: %v", err)
			}
			if _, err := rs.Allocate(); err == nil {
				t.Fatal("allocate after failure succeeded")
			}
			if err := rs.Free(id); err == nil {
				t.Fatal("free after failure succeeded")
			}
			if rs.Failed() == nil {
				t.Fatal("Failed() nil after failure")
			}
			// Reads stay available.
			buf := make([]byte, 128)
			if err := rs.Read(id, buf); err != nil || buf[0] != 'X' {
				t.Fatalf("read after failure: %q, %v", buf[0], err)
			}
		})
	}
}

func TestRecoverableChecksumErrorOnCorruption(t *testing.T) {
	fsys := faultfs.New()
	rs, err := disk.CreateRecoverableStore(fsys, "db", 128)
	if err != nil {
		t.Fatal(err)
	}
	id, err := rs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Write(id, page(128, 'C')); err != nil {
		t.Fatal(err)
	}
	if err := rs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Flip one bit of the page's slot on "disk", behind the store's
	// back (media corruption).
	f, err := fsys.Open("db")
	if err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 1)
	off := int64(64 + 16 + 5) // superblock + slot header + 5 into the payload
	if _, err := f.ReadAt(one, off); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0x40
	if _, err := f.WriteAt(one, off); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	var ce *disk.ChecksumError
	if err := rs.Read(id, buf); !errors.As(err, &ce) {
		t.Fatalf("read of corrupted page: want ChecksumError, got %v", err)
	}
	if ce.Page != id {
		t.Fatalf("ChecksumError names page %d, want %d", ce.Page, id)
	}
	// A view through a pool counts the failure on the reader's counts.
	var n obs.Counts
	if _, err := disk.MustPool(rs, 4, disk.LRU).View(id, &n); !errors.As(err, &ce) {
		t.Fatalf("pool get of corrupted page: want ChecksumError, got %v", err)
	}
	if n[obs.ChecksumFailures] != 1 || n[obs.PoolMisses] != 1 || n[obs.PhysReads] != 0 {
		t.Fatalf("counts after a failed get: checksum failures %d, misses %d, physical reads %d",
			n[obs.ChecksumFailures], n[obs.PoolMisses], n[obs.PhysReads])
	}
	// Recovery with no committed log cannot vouch for the page either:
	// the double fault surfaces as ChecksumError, never as wrong data.
	img := fsys.Clone()
	if _, _, err := disk.RecoverStore(img, "db"); !errors.As(err, &ce) {
		t.Fatalf("recover over corruption: want ChecksumError, got %v", err)
	}
}

func TestRecoverableFreeDeferredToCheckpoint(t *testing.T) {
	fsys := faultfs.New()
	rs, err := disk.CreateRecoverableStore(fsys, "db", 128)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := rs.Allocate()
	b, _ := rs.Allocate()
	if err := rs.Write(a, page(128, 'a')); err != nil {
		t.Fatal(err)
	}
	if err := rs.Write(b, page(128, 'b')); err != nil {
		t.Fatal(err)
	}
	if err := rs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := rs.Free(b); err != nil {
		t.Fatal(err)
	}
	if rs.NumPages() != 1 {
		t.Fatalf("NumPages with pending free: %d", rs.NumPages())
	}
	if err := rs.Read(b, make([]byte, 128)); err == nil {
		t.Fatal("read of freed page succeeded")
	}
	// Crash before the free's checkpoint: the page must come back.
	img := fsys.CrashImage()
	rs2, _, err := disk.RecoverStore(img, "db")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if err := rs2.Read(b, buf); err != nil || buf[0] != 'b' {
		t.Fatalf("freed-but-uncommitted page lost: %v", err)
	}
	rs2.Close()
	// Checkpoint the free for real: it must survive recovery.
	if err := rs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	img = fsys.CrashImage()
	rs3, _, err := disk.RecoverStore(img, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer rs3.Close()
	if rs3.NumPages() != 1 {
		t.Fatalf("NumPages after committed free: %d", rs3.NumPages())
	}
	if err := rs3.Read(b, buf); err == nil {
		t.Fatal("committed-freed page still readable")
	}
}

func TestRecoverableIdempotentRecover(t *testing.T) {
	fsys := faultfs.New()
	rs, err := disk.CreateRecoverableStore(fsys, "db", 128)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := rs.Allocate()
	if err := rs.Write(id, page(128, 'I')); err != nil {
		t.Fatal(err)
	}
	if err := rs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	img := fsys.CrashImage()
	for round := 0; round < 3; round++ {
		rs2, _, err := disk.RecoverStore(img, "db")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		buf := make([]byte, 128)
		if err := rs2.Read(id, buf); err != nil || buf[0] != 'I' {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := rs2.Close(); err != nil {
			t.Fatalf("round %d close: %v", round, err)
		}
	}
}

// TestRecoverableReusesFreedPages pins the reuse rule: a page freed
// inside a checkpoint epoch comes straight back from Allocate without
// growing the page file, whether the epoch allocated it or the last
// checkpoint references it. The reuse leaves the slot alone until the
// commit, so a crash before it recovers the checkpointed image.
func TestRecoverableReusesFreedPages(t *testing.T) {
	fsys := faultfs.New()
	rs, err := disk.CreateRecoverableStore(fsys, "db", 128)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	old, _ := rs.Allocate()
	if err := rs.Write(old, page(128, 'o')); err != nil {
		t.Fatal(err)
	}
	if err := rs.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	a, err := rs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Write(a, page(128, 'a')); err != nil {
		t.Fatal(err)
	}
	size, _, _ := fsys.Stat("db")
	if err := rs.Free(a); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if err := rs.Read(a, buf); err == nil {
		t.Fatal("read of a freed, not yet reused page succeeded")
	}
	if err := rs.Write(a, buf); err == nil {
		t.Fatal("write of a freed, not yet reused page succeeded")
	}
	again, err := rs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if again != a {
		t.Fatalf("Allocate after an epoch-local free returned page %d, want %d back", again, a)
	}
	if now, _, _ := fsys.Stat("db"); now != size {
		t.Fatalf("reuse grew the page file from %d to %d bytes", size, now)
	}
	if err := rs.Read(a, buf); err != nil || !bytes.Equal(buf, page(128, 0)) {
		t.Fatalf("reused page does not read back zeroed: %v %q", err, buf[:4])
	}
	if err := rs.Write(a, page(128, 'b')); err != nil {
		t.Fatal(err)
	}
	if err := rs.Read(a, buf); err != nil || buf[0] != 'b' {
		t.Fatalf("reused page lost its new image: %v %q", err, buf[:4])
	}
	if ds := rs.DurabilityStats(); ds.PagesReused != 1 || ds.FilePages != 2 || ds.LivePages != 2 {
		t.Fatalf("stats after one reuse: %+v", ds)
	}

	// The checkpointed page: freed in this epoch, it comes back too, and
	// the file still does not grow.
	if err := rs.Free(old); err != nil {
		t.Fatal(err)
	}
	if again, err := rs.Allocate(); err != nil || again != old {
		t.Fatalf("Allocate after freeing checkpointed page %d returned %d (%v)", old, again, err)
	}
	if now, _, _ := fsys.Stat("db"); now != size {
		t.Fatalf("reuse of a checkpointed page grew the page file from %d to %d bytes", size, now)
	}
	if err := rs.Read(old, buf); err != nil || !bytes.Equal(buf, page(128, 0)) {
		t.Fatalf("reused checkpointed page does not read back zeroed: %v %q", err, buf[:4])
	}
	if err := rs.Write(old, page(128, 'n')); err != nil {
		t.Fatal(err)
	}
	if ds := rs.DurabilityStats(); ds.PagesReused != 2 || ds.FilePages != 2 || ds.LivePages != 2 {
		t.Fatalf("stats after two reuses: %+v", ds)
	}

	// A crash before the commit fsync recovers the checkpoint: the slot
	// still holds the old image, and only that page.
	rec, _, err := disk.RecoverStore(fsys.CrashImage(), "db")
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Read(old, buf); err != nil || buf[0] != 'o' || rec.NumPages() != 1 {
		t.Fatalf("after a crash: page %d reads %q (%v), %d pages", old, buf[:4], err, rec.NumPages())
	}
	rec.Close()

	// After the commit each reused page holds its last image.
	if err := rs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rec, _, err = disk.RecoverStore(fsys.CrashImage(), "db")
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.NumPages() != 2 {
		t.Fatalf("after the checkpoint: %d pages, want 2", rec.NumPages())
	}
	if err := rec.Read(old, buf); err != nil || buf[0] != 'n' {
		t.Fatalf("after the checkpoint: page %d reads %q (%v)", old, buf[:4], err)
	}
	if err := rec.Read(a, buf); err != nil || buf[0] != 'b' {
		t.Fatalf("after the checkpoint: page %d reads %q (%v)", a, buf[:4], err)
	}
}

// TestRecoverableUnwrittenPageReadsZero pins Allocate's marker: a page
// allocated and never written reads as zeros before a checkpoint, after
// it, and after RecoverStore, whether recovery finds the page file
// checkpointed or replays the checkpoint's logged batch. One of the pages reuses
// a checkpointed slot that still holds its old image until the
// checkpoint.
func TestRecoverableUnwrittenPageReadsZero(t *testing.T) {
	const size = 128
	setup := func() (*faultfs.FS, *disk.RecoverableStore, []disk.PageID) {
		fsys := faultfs.New()
		rs, err := disk.CreateRecoverableStore(fsys, "db", size)
		if err != nil {
			t.Fatal(err)
		}
		old, err := rs.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.Write(old, page(size, 'O')); err != nil {
			t.Fatal(err)
		}
		if err := rs.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := rs.Free(old); err != nil {
			t.Fatal(err)
		}
		var ids []disk.PageID
		for i := 0; i < 2; i++ {
			id, err := rs.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		if ids[0] != old {
			t.Fatalf("freed page %d not reused: got %d", old, ids[0])
		}
		return fsys, rs, ids
	}
	check := func(when string, rs *disk.RecoverableStore, ids []disk.PageID) {
		t.Helper()
		for _, id := range ids {
			buf := page(size, 0xFF)
			if err := rs.Read(id, buf); err != nil {
				t.Fatalf("%s: read page %d: %v", when, id, err)
			}
			if !bytes.Equal(buf, make([]byte, size)) {
				t.Fatalf("%s: page %d reads %q, want zeros", when, id, buf[:4])
			}
		}
	}

	fsys, rs, ids := setup()
	check("before the checkpoint", rs, ids)
	if err := rs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check("after the checkpoint", rs, ids)
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	rec, _, err := disk.RecoverStore(fsys, "db")
	if err != nil {
		t.Fatal(err)
	}
	check("after recovery", rec, ids)
	rec.Close()

	// A crash just past the log's sync: the page file as it was before
	// the checkpoint, beside the batch the checkpoint logged (its
	// segment's bytes). Recovery replays the zero images.
	fsys, rs, ids = setup()
	var seg disk.Segment
	rs.SetCheckpointHook(func(s disk.Segment, _ []byte) { seg = s })
	crashed := fsys.CrashImage()
	if err := rs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rs.Close()
	writeImage(t, crashed, "db.wal", append(disk.EncodeWALHeader(), disk.EncodeSegment(seg)...))
	rec, info, err := disk.RecoverStore(crashed, "db")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Committed || info.PagesRecovered != len(ids) {
		t.Fatalf("recovery %+v: want the committed batch's %d images replayed", info, len(ids))
	}
	check("after log replay", rec, ids)
	rec.Close()
}

// logOps records the write operations on the files it opens: the
// log's as "write" and "sync", the page file's as "page write" and
// "page sync". If logged is set, it also keeps the bytes of each log
// write.
type logOps struct {
	disk.FS
	ops    *[]string
	logged *[][]byte
}

func (l logOps) Create(path string) (disk.File, error) {
	f, err := l.FS.Create(path)
	return l.wrap(path, f, err)
}

func (l logOps) Open(path string) (disk.File, error) {
	f, err := l.FS.Open(path)
	return l.wrap(path, f, err)
}

func (l logOps) wrap(path string, f disk.File, err error) (disk.File, error) {
	if err != nil {
		return f, err
	}
	if !strings.HasSuffix(path, ".wal") {
		return logFile{File: f, ops: l.ops, prefix: "page "}, nil
	}
	return logFile{File: f, ops: l.ops, logged: l.logged}, nil
}

type logFile struct {
	disk.File
	ops    *[]string
	prefix string
	logged *[][]byte
}

func (f logFile) WriteAt(b []byte, off int64) (int, error) {
	*f.ops = append(*f.ops, f.prefix+"write")
	if f.logged != nil {
		*f.logged = append(*f.logged, append([]byte(nil), b...))
	}
	return f.File.WriteAt(b, off)
}

func (f logFile) Sync() error {
	*f.ops = append(*f.ops, f.prefix+"sync")
	return f.File.Sync()
}

// TestCheckpointWritesLogOnce pins the log's side of a checkpoint: one
// write of the whole batch, then its one fsync. The counters still
// count the batch's records and the fsync.
func TestCheckpointWritesLogOnce(t *testing.T) {
	var ops []string
	rs, err := disk.CreateRecoverableStore(logOps{FS: faultfs.New(), ops: &ops}, "db", 128)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	for i := 0; i < 64; i++ {
		id, err := rs.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.Write(id, page(128, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	ops = ops[:0]
	if err := rs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := slices.Index(ops, "sync"); n != 1 {
		t.Fatalf("a checkpoint of 64 pages issued %d log writes before its log sync, want 1", n)
	}
	if st := rs.DurabilityStats(); st.WALAppends != 65 || st.WALSyncs != 1 {
		t.Fatalf("durability stats %+v: want 65 records (64 images and the commit) and 1 log sync", st)
	}
}

// TestCheckpointHookGetsLogBytes: the checkpoint hook is handed the
// bytes the log took for the batch, the ones a replica is shipped.
func TestCheckpointHookGetsLogBytes(t *testing.T) {
	var ops []string
	var logged [][]byte
	rs, err := disk.CreateRecoverableStore(logOps{FS: faultfs.New(), ops: &ops, logged: &logged}, "db", 128)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	var seg disk.Segment
	var enc []byte
	rs.SetCheckpointHook(func(s disk.Segment, b []byte) { seg, enc = s, b })
	for i := 0; i < 8; i++ {
		id, err := rs.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.Write(id, page(128, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	logged = logged[:0]
	if err := rs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint's first log write is its batch; the log is reset
	// by a later one.
	if len(logged) < 2 {
		t.Fatalf("a checkpoint issued %d log writes, want the batch and the reset", len(logged))
	}
	if !bytes.Equal(enc, logged[0]) {
		t.Fatalf("hook got %d bytes, not the %d-byte batch the log took first", len(enc), len(logged[0]))
	}
	if !bytes.Equal(enc, disk.EncodeSegment(seg)) {
		t.Fatal("hook bytes are not the encoding of the hook's segment")
	}
}

// TestNoPageFileIOBetweenCheckpoints: Write, Free, reuse and an
// Allocate past the page file's end only fill the delta, so between
// checkpoints neither the log nor the page file is written, and a crash
// there finds the page file exactly as the last checkpoint left it.
func TestNoPageFileIOBetweenCheckpoints(t *testing.T) {
	var ops []string
	fsys := faultfs.New()
	rs, err := disk.CreateRecoverableStore(logOps{FS: fsys, ops: &ops}, "db", 128)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	allocate := func(fill byte) disk.PageID {
		t.Helper()
		id, err := rs.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.Write(id, page(128, fill)); err != nil {
			t.Fatal(err)
		}
		return id
	}
	var ids []disk.PageID
	for i := 0; i < 4; i++ {
		ids = append(ids, allocate(byte('a'+i)))
	}
	if err := rs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckpt := rawFile(t, fsys, "db")

	ops = ops[:0]
	for i := 0; i < 4; i++ { // the file has no free slot: each id lies past its end
		ids = append(ids, allocate(byte('e'+i)))
	}
	if err := rs.Write(ids[0], page(128, 'Z')); err != nil {
		t.Fatal(err)
	}
	for _, id := range []disk.PageID{ids[1], ids[5]} { // a checkpointed page, then an epoch's
		if err := rs.Free(id); err != nil {
			t.Fatal(err)
		}
		if again := allocate('r'); again != id {
			t.Fatalf("freed page %d not reused: got %d", id, again)
		}
	}
	if len(ops) != 0 {
		t.Fatalf("allocations, writes, frees and reuse between checkpoints issued %v, want no file operation", ops)
	}
	img := fsys.CrashImage()
	if got := rawFile(t, img, "db"); !bytes.Equal(got, ckpt) {
		t.Fatalf("crash image's page file is %d bytes and differs from the %d the last checkpoint left", len(got), len(ckpt))
	}
	rec, _, err := disk.RecoverStore(img, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if n := rec.NumPages(); n != 4 {
		t.Fatalf("recovered %d pages, want the checkpoint's 4", n)
	}
}

// TestPoolPutKeepsItsImage: a Pool over a RecoverableStore hands the
// store the image it caches, so a page Put between checkpoints is held
// once: a Put allocates one buffer fewer than through a store that can
// only copy. Write still copies, so its caller may reuse the buffer,
// and it replaces a kept image rather than writing into it.
func TestPoolPutKeepsItsImage(t *testing.T) {
	rs, err := disk.CreateRecoverableStore(faultfs.New(), "db", 128)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	id, err := rs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	img := page(128, 'a')
	puts := func(s disk.Store) float64 {
		pool := disk.MustPool(s, 4, disk.LRU)
		return testing.AllocsPerRun(50, func() {
			if err := pool.Put(id, img); err != nil {
				t.Fatal(err)
			}
		})
	}
	if keeping, copying := puts(rs), puts(struct{ disk.Store }{rs}); copying-keeping != 1 {
		t.Errorf("a Put allocates %v times, %v through a store that copies: want one fewer", keeping, copying)
	}

	if err := rs.WriteImage(id, img); err != nil {
		t.Fatal(err)
	}
	buf := page(128, 'b')
	if err := rs.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, page(128, 'c'))
	got := make([]byte, 128)
	if err := rs.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page(128, 'b')) || !bytes.Equal(img, page(128, 'a')) {
		t.Errorf("after a Write over a kept image, the page reads %q and the image is %q", got[:1], img[:1])
	}
}
