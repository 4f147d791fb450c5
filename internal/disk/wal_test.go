package disk_test

import (
	"errors"
	"testing"

	"probe/internal/disk"
	"probe/internal/disk/faultfs"
)

// walBytes assembles a log image from encoded parts.
func walBytes(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func TestWALReplayRoundTrip(t *testing.T) {
	recs := []disk.WALRecord{
		{Kind: disk.RecFree, Page: 3, LSN: 3},
		{Kind: disk.RecPage, Page: 2, LSN: 2, Payload: []byte("hello page two!!")},
	}
	parts := [][]byte{disk.EncodeWALHeader()}
	for _, r := range recs {
		parts = append(parts, disk.EncodeWALRecord(r))
	}
	res, err := disk.ReplayWAL("t", walBytes(parts...))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Committed {
		t.Fatal("uncommitted batch reported committed")
	}
	if len(res.Records) != len(recs) {
		t.Fatalf("got %d records, want %d", len(res.Records), len(recs))
	}
	for i, r := range res.Records {
		if r.Kind != recs[i].Kind || r.Page != recs[i].Page || r.LSN != recs[i].LSN || string(r.Payload) != string(recs[i].Payload) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, r, recs[i])
		}
	}
}

func TestWALReplayEmptyAndShort(t *testing.T) {
	res, err := disk.ReplayWAL("t", nil)
	if err != nil || res.Truncated || res.Committed || len(res.Records) != 0 {
		t.Fatalf("empty log: %+v, %v", res, err)
	}
	res, err = disk.ReplayWAL("t", []byte{0x01, 0x02})
	if err != nil || !res.Truncated {
		t.Fatalf("short log should be a truncated empty log: %+v, %v", res, err)
	}
}

func TestWALReplayBadHeader(t *testing.T) {
	h := disk.EncodeWALHeader()
	h[0] ^= 0xFF // magic
	var ce *disk.ChecksumError
	if _, err := disk.ReplayWAL("t", h); !errors.As(err, &ce) {
		t.Fatalf("bad magic: want ChecksumError, got %v", err)
	}
	h = disk.EncodeWALHeader()
	h[9] ^= 0x01 // version byte, breaks the header crc
	if _, err := disk.ReplayWAL("t", h); !errors.As(err, &ce) {
		t.Fatalf("bad header crc: want ChecksumError, got %v", err)
	}
}

func TestWALReplayTornTail(t *testing.T) {
	rec := disk.EncodeWALRecord(disk.WALRecord{Kind: disk.RecPage, Page: 7, LSN: 9, Payload: []byte("payload bytes")})
	full := walBytes(disk.EncodeWALHeader(), rec, rec)
	// Cut the second record anywhere: the first must survive.
	for cut := len(full) - len(rec); cut < len(full); cut++ {
		res, err := disk.ReplayWAL("t", full[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if cut == len(full)-len(rec) {
			if res.Truncated {
				t.Fatalf("cut %d: clean end misreported as torn", cut)
			}
		} else if !res.Truncated {
			t.Fatalf("cut %d: torn tail not reported", cut)
		}
		if len(res.Records) != 1 {
			t.Fatalf("cut %d: got %d records, want 1", cut, len(res.Records))
		}
	}
	// A bit flip inside a record's payload also ends the prefix there.
	flipped := walBytes(disk.EncodeWALHeader(), rec)
	flipped[len(flipped)-3] ^= 0x10
	res, err := disk.ReplayWAL("t", flipped)
	if err != nil || !res.Truncated || len(res.Records) != 0 {
		t.Fatalf("flipped record: %+v, %v", res, err)
	}
}

// TestWALReplayRetiredKind: kind 2 once logged an allocation; no
// writer emits it, so replay reads it as an invalid record, a torn
// tail.
func TestWALReplayRetiredKind(t *testing.T) {
	rec := disk.EncodeWALRecord(disk.WALRecord{Kind: disk.RecordKind(2), Page: 2, LSN: 1})
	commit := disk.EncodeWALRecord(disk.WALRecord{Kind: disk.RecCommit, Payload: disk.EncodeCommitPayload(1, 1)})
	res, err := disk.ReplayWAL("t", walBytes(disk.EncodeWALHeader(), rec, commit))
	if err != nil || res.Committed || !res.Truncated || len(res.Records) != 0 {
		t.Fatalf("kind 2 record: %+v, %v", res, err)
	}
}

func TestWALReplayCommit(t *testing.T) {
	rec := disk.EncodeWALRecord(disk.WALRecord{Kind: disk.RecFree, Page: 2, LSN: 1})
	commit := disk.EncodeWALRecord(disk.WALRecord{Kind: disk.RecCommit, Payload: disk.EncodeCommitPayload(1, 1)})
	res, err := disk.ReplayWAL("t", walBytes(disk.EncodeWALHeader(), rec, commit))
	if err != nil || !res.Committed {
		t.Fatalf("committed batch: %+v, %v", res, err)
	}
	// A commit whose record count disagrees is not a commit.
	badCommit := disk.EncodeWALRecord(disk.WALRecord{Kind: disk.RecCommit, Payload: disk.EncodeCommitPayload(5, 1)})
	res, err = disk.ReplayWAL("t", walBytes(disk.EncodeWALHeader(), rec, badCommit))
	if err != nil || res.Committed || !res.Truncated {
		t.Fatalf("count-mismatched commit: %+v, %v", res, err)
	}
	// Bytes after a valid commit are corruption, not a torn tail.
	var ce *disk.ChecksumError
	if _, err := disk.ReplayWAL("t", walBytes(disk.EncodeWALHeader(), rec, commit, []byte{0xAB})); !errors.As(err, &ce) {
		t.Fatalf("bytes after commit: want ChecksumError, got %v", err)
	}
}

func TestWALAppendSyncThroughFS(t *testing.T) {
	fsys := faultfs.New()
	w, err := disk.CreateWAL(fsys, "log")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(disk.WALRecord{Kind: disk.RecPage, Page: 4, LSN: 1, Payload: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(disk.WALRecord{Kind: disk.RecCommit, Payload: disk.EncodeCommitPayload(1, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// The synced bytes survive a crash and replay as a committed batch.
	res, err := disk.ReplayWAL("log", rawFile(t, fsys.CrashImage(), "log"))
	if err != nil || !res.Committed || len(res.Records) != 2 {
		t.Fatalf("replay after crash: %+v, %v", res, err)
	}
	// Reset truncates back to an empty log.
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if res, err := disk.ReplayWAL("log", rawFile(t, fsys, "log")); err != nil || len(res.Records) != 0 {
		t.Fatalf("replay after reset: %+v, %v", res, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
