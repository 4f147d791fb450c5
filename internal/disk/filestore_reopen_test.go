package disk

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestFileStoreCreateOpenSplit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.db")
	s, err := CreateFileStoreFS(OSFS{}, path, 128)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	payload := func(i int) []byte {
		b := make([]byte, 128)
		for j := range b {
			b[j] = byte(i * 7)
		}
		return b
	}
	for i := 0; i < 5; i++ {
		id, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if err := s.WriteLSN(id, payload(i), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	// Free one page in the middle so the reopen scan must rebuild a
	// free list, not just a high-water mark.
	if err := s.FreeLSN(ids[2], 6); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenFileStoreFS(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.PageSize() != 128 {
		t.Fatalf("reopened page size %d, want 128", r.PageSize())
	}
	if r.NumPages() != 4 {
		t.Fatalf("reopened NumPages %d, want 4", r.NumPages())
	}
	buf := make([]byte, 128)
	for i, id := range ids {
		if i == 2 {
			if err := r.Read(id, buf); err == nil {
				t.Fatal("freed page readable after reopen")
			}
			continue
		}
		if err := r.Read(id, buf); err != nil {
			t.Fatalf("read page %d after reopen: %v", id, err)
		}
		if !bytes.Equal(buf, payload(i)) {
			t.Fatalf("page %d contents changed across reopen", id)
		}
	}
	// The freed slot must be reused before the file grows.
	id, err := r.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id != ids[2] {
		t.Fatalf("allocate after reopen returned %d, want freed slot %d", id, ids[2])
	}
	// Allocation resumes past the old high-water mark after that.
	id2, err := r.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id2 != PageID(len(ids)+1) {
		t.Fatalf("next fresh page %d, want %d", id2, len(ids)+1)
	}
}

func TestFileStoreOpenMissing(t *testing.T) {
	if _, err := OpenFileStoreFS(OSFS{}, filepath.Join(t.TempDir(), "absent.db")); err == nil {
		t.Fatal("open of missing store succeeded")
	}
}

func TestFileStoreOpenDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.db")
	s, err := CreateFileStoreFS(OSFS{}, path, 128)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 128)
	copy(data, "important")
	if err := s.WriteLSN(id, data, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte on disk.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[superblockLen+pageHeaderLen+3] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFileStoreFS(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.CorruptPages(); len(got) != 1 || got[0] != id {
		t.Fatalf("corrupt pages %v, want [%d]", got, id)
	}
	var ce *ChecksumError
	if err := r.Read(id, make([]byte, 128)); !errors.As(err, &ce) {
		t.Fatalf("read of corrupt page: want ChecksumError, got %v", err)
	}
	// A fresh write heals the slot.
	if err := r.WriteLSN(id, data, 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Read(id, make([]byte, 128)); err != nil {
		t.Fatalf("read after healing write: %v", err)
	}
	if len(r.CorruptPages()) != 0 {
		t.Fatalf("slot still marked corrupt after rewrite")
	}
}

func TestFileStoreOpenRejectsBadSuperblock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.db")
	if err := os.WriteFile(path, make([]byte, superblockLen), 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *ChecksumError
	if _, err := OpenFileStoreFS(OSFS{}, path); !errors.As(err, &ce) {
		t.Fatalf("zero superblock: want ChecksumError, got %v", err)
	}
	if err := os.WriteFile(path, []byte("tiny"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStoreFS(OSFS{}, path); !errors.As(err, &ce) {
		t.Fatalf("truncated superblock: want ChecksumError, got %v", err)
	}
}

func TestFileStoreOpenTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.db")
	s, err := CreateFileStoreFS(OSFS{}, path, 128)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteLSN(id, make([]byte, 128), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Append half a slot: a file extension torn by a crash.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 70)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	r, err := OpenFileStoreFS(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumPages() != 1 {
		t.Fatalf("NumPages %d, want 1", r.NumPages())
	}
	next, err := r.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if next != id+1 {
		t.Fatalf("allocate after torn tail returned %d, want %d", next, id+1)
	}
}

func TestFileStoreCloseIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.db")
	s, err := CreateFileStoreFS(OSFS{}, path, 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestFileStoreCloseWrapsPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.db")
	s, err := CreateFileStoreFS(OSFS{}, path, 128)
	if err != nil {
		t.Fatal(err)
	}
	// Close the file underneath the store so its sync fails.
	s.f.Close()
	err = s.Close()
	if err == nil {
		t.Fatal("close over a dead file succeeded")
	}
	if !bytes.Contains([]byte(err.Error()), []byte(path)) {
		t.Fatalf("close error does not name the file: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close after failed close: %v", err)
	}
}

// TestRecoverFreesEagerAllocationStamp: a page file an older build left
// after a crash may hold a slot its Allocate stamped eagerly, with a
// valid header, its own id and LSN 0, that no checkpoint wrote.
// Recovery opens it cleanly as a free slot, and the next allocation
// takes it back.
func TestRecoverFreesEagerAllocationStamp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	rs, err := CreateRecoverableStore(OSFS{}, path, 128)
	if err != nil {
		t.Fatal(err)
	}
	a, err := rs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Write(a, bytes.Repeat([]byte{'a'}, 128)); err != nil {
		t.Fatal(err)
	}
	if err := rs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	stamp := make([]byte, pageHeaderLen+128)
	encodePageHeader(stamp, a+1, 0)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(stamp); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rec, _, err := RecoverStore(OSFS{}, path)
	if err != nil {
		t.Fatalf("recovery over an allocation stamp: %v", err)
	}
	if ds := rec.DurabilityStats(); ds.FilePages != 2 || ds.LivePages != 1 {
		t.Fatalf("after recovery: %d slots, %d live, want 2 and 1", ds.FilePages, ds.LivePages)
	}
	if err := rec.Read(a+1, make([]byte, 128)); err == nil {
		t.Fatal("the stamped slot reads as a live page")
	}
	id, err := rec.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id != a+1 {
		t.Fatalf("Allocate returned page %d, want the stamped slot %d", id, a+1)
	}
	if err := rec.Write(id, bytes.Repeat([]byte{'b'}, 128)); err != nil {
		t.Fatal(err)
	}
	if err := rec.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ds := rec.DurabilityStats(); ds.FilePages != 2 || ds.LivePages != 2 {
		t.Fatalf("after the checkpoint: %d slots, %d live, want 2 and 2", ds.FilePages, ds.LivePages)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	again, _, err := RecoverStore(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	buf := make([]byte, 128)
	if err := again.Read(id, buf); err != nil || buf[0] != 'b' {
		t.Fatalf("reused slot after reopen: %q, %v", buf[:1], err)
	}
}
