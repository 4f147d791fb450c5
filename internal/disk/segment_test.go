package disk_test

import (
	"bytes"
	"strings"
	"testing"

	"probe/internal/disk"
	"probe/internal/disk/faultfs"
)

// writeImage materializes a raw page-file image at path on fsys — the
// replica bootstrap step.
func writeImage(t *testing.T, fsys disk.FS, path string, img []byte) {
	t.Helper()
	f, err := fsys.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(img, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// rawFile reads a file's full contents from fsys.
func rawFile(t *testing.T, fsys disk.FS, path string) []byte {
	t.Helper()
	f, err := fsys.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// TestSegmentShippingConverges drives a primary through several
// checkpointed batches with the hook installed, applies every shipped
// segment to a replica page file bootstrapped from the primary's
// initial image, and checks the replica file is byte-identical to the
// primary's checkpointed state after each batch.
func TestSegmentShippingConverges(t *testing.T) {
	fsys := faultfs.New()
	rs, err := disk.CreateRecoverableStore(fsys, "primary", 128)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	var segs []disk.Segment
	rs.SetCheckpointHook(func(seg disk.Segment, _ []byte) { segs = append(segs, seg) })

	// Bootstrap the replica from the empty primary's image.
	img, lsn, err := rs.PageFileImage()
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 0 {
		t.Fatalf("fresh store checkpoint LSN = %d", lsn)
	}
	writeImage(t, fsys, "replica", img)

	// Batch 1: three pages.
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
	// Batch 2: overwrite one, free one, allocate a new one, which takes
	// the checkpointed page just freed and ships as its image only.
	if err := rs.Write(ids[0], page(128, 'Z')); err != nil {
		t.Fatal(err)
	}
	if err := rs.Free(ids[2]); err != nil {
		t.Fatal(err)
	}
	id4, err := rs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id4 != ids[2] {
		t.Fatalf("checkpointed page %d not reused: got %d", ids[2], id4)
	}
	if err := rs.Write(id4, page(128, 'Q')); err != nil {
		t.Fatal(err)
	}
	if err := rs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Batch 3: a page allocated, freed and reused inside the epoch
	// ships as its last image only; a checkpointed page is freed after
	// the last allocation, so it is not reused and ships as a free.
	id5, err := rs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Write(id5, page(128, 'P')); err != nil {
		t.Fatal(err)
	}
	if err := rs.Free(id5); err != nil {
		t.Fatal(err)
	}
	if again, err := rs.Allocate(); err != nil || again != id5 {
		t.Fatalf("epoch-local page %d not reused: got %d, %v", id5, again, err)
	}
	if err := rs.Write(id5, page(128, 'R')); err != nil {
		t.Fatal(err)
	}
	if err := rs.Free(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := rs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// An idle checkpoint ships nothing.
	if err := rs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("hook fired %d times, want 3", len(segs))
	}
	for i := 1; i < len(segs); i++ {
		if segs[i-1].MaxLSN >= segs[i].MaxLSN {
			t.Fatalf("segment LSNs not increasing: %d then %d", segs[i-1].MaxLSN, segs[i].MaxLSN)
		}
	}

	for i, seg := range segs {
		// Ship through the wire encoding to cover it too.
		dec, err := disk.DecodeSegment(disk.EncodeSegment(seg))
		if err != nil {
			t.Fatalf("segment %d round trip: %v", i, err)
		}
		if err := disk.ApplyWALSegment(fsys, "replica", dec); err != nil {
			t.Fatalf("apply segment %d: %v", i, err)
		}
	}

	want, wantLSN, err := rs.PageFileImage()
	if err != nil {
		t.Fatal(err)
	}
	if wantLSN != segs[2].MaxLSN {
		t.Fatalf("primary checkpoint LSN %d, last segment %d", wantLSN, segs[2].MaxLSN)
	}
	got := rawFile(t, fsys, "replica")
	if !bytes.Equal(got, want) {
		t.Fatalf("replica page file diverges: %d vs %d bytes", len(got), len(want))
	}

	// The replica file opens as a store seeing exactly the primary's data.
	fs2, err := disk.OpenFileStoreFS(fsys, "replica")
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	buf := make([]byte, 128)
	if err := fs2.Read(ids[0], buf); err != nil || buf[0] != 'Z' {
		t.Fatalf("replica read of overwritten page: %v, buf[0]=%c", err, buf[0])
	}
	if err := fs2.Read(ids[1], buf); err == nil {
		t.Fatal("replica still serves the freed page")
	}
	if err := fs2.Read(id4, buf); err != nil || buf[0] != 'Q' {
		t.Fatalf("replica read of the reused checkpointed page: %v, buf[0]=%c", err, buf[0])
	}
	if err := fs2.Read(id5, buf); err != nil || buf[0] != 'R' {
		t.Fatalf("replica read of the reused page: %v, buf[0]=%c", err, buf[0])
	}
}

// TestSegmentLateBootstrap checks the catch-up path: a replica
// bootstrapped from a mid-stream image only needs the segments after
// its image's LSN.
func TestSegmentLateBootstrap(t *testing.T) {
	fsys := faultfs.New()
	rs, err := disk.CreateRecoverableStore(fsys, "primary", 128)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	var segs []disk.Segment
	rs.SetCheckpointHook(func(seg disk.Segment, _ []byte) { segs = append(segs, seg) })

	id, err := rs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Write(id, page(128, 'a')); err != nil {
		t.Fatal(err)
	}
	if err := rs.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Bootstrap AFTER the first checkpoint: its segment is already in
	// the image.
	img, lsn, err := rs.PageFileImage()
	if err != nil {
		t.Fatal(err)
	}
	writeImage(t, fsys, "replica", img)

	if err := rs.Write(id, page(128, 'b')); err != nil {
		t.Fatal(err)
	}
	if err := rs.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	for _, seg := range segs {
		if seg.MaxLSN <= lsn {
			continue // already in the bootstrap image
		}
		if err := disk.ApplyWALSegment(fsys, "replica", seg); err != nil {
			t.Fatal(err)
		}
	}
	want, _, err := rs.PageFileImage()
	if err != nil {
		t.Fatal(err)
	}
	if got := rawFile(t, fsys, "replica"); !bytes.Equal(got, want) {
		t.Fatal("late-bootstrapped replica diverges from primary")
	}
}

// TestApplyWALSegmentRejectsStale pins the monotonicity check: a
// segment older than the file's checkpoint is refused.
func TestApplyWALSegmentRejectsStale(t *testing.T) {
	fsys := faultfs.New()
	rs, err := disk.CreateRecoverableStore(fsys, "primary", 128)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	var segs []disk.Segment
	rs.SetCheckpointHook(func(seg disk.Segment, _ []byte) { segs = append(segs, seg) })
	for i := 0; i < 2; i++ {
		id, err := rs.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.Write(id, page(128, byte('a'+i))); err != nil {
			t.Fatal(err)
		}
		if err := rs.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	img, _, err := rs.PageFileImage()
	if err != nil {
		t.Fatal(err)
	}
	writeImage(t, fsys, "replica", img)
	if err := disk.ApplyWALSegment(fsys, "replica", segs[0]); err == nil {
		t.Fatal("stale segment accepted")
	} else if !strings.Contains(err.Error(), "behind") {
		t.Fatalf("stale segment error: %v", err)
	}
}

// TestDecodeSegmentRejectsCorruption flips bytes across an encoded
// segment and checks every corruption is caught — the shipped stream
// is checksummed end to end.
func TestDecodeSegmentRejectsCorruption(t *testing.T) {
	seg := disk.Segment{
		MaxLSN: 42,
		Records: []disk.WALRecord{
			{Kind: disk.RecFree, Page: 7, LSN: 40},
			{Kind: disk.RecPage, Page: 3, LSN: 41, Payload: page(128, 'x')},
		},
	}
	enc := disk.EncodeSegment(seg)
	if _, err := disk.DecodeSegment(enc); err != nil {
		t.Fatalf("clean segment rejected: %v", err)
	}
	for off := 0; off < len(enc); off += 7 {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0x40
		if _, err := disk.DecodeSegment(bad); err == nil {
			t.Fatalf("corruption at offset %d undetected", off)
		}
	}
	if _, err := disk.DecodeSegment(enc[:10]); err == nil {
		t.Fatal("truncated segment accepted")
	}
	if _, err := disk.DecodeSegment(nil); err == nil {
		t.Fatal("empty segment accepted")
	}
}
