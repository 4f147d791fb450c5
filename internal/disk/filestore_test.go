package disk

import (
	"bytes"
	"path/filepath"
	"testing"
)

func newTestFileStore(t *testing.T) *FileStore {
	t.Helper()
	s, err := CreateFileStore(filepath.Join(t.TempDir(), "store.db"), 128)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestFileStoreRoundTrip(t *testing.T) {
	s := newTestFileStore(t)
	if s.PageSize() != 128 {
		t.Fatalf("PageSize = %d", s.PageSize())
	}
	a, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("duplicate page ids")
	}
	bufA := make([]byte, 128)
	bufB := make([]byte, 128)
	for i := range bufA {
		bufA[i] = byte(i)
		bufB[i] = byte(255 - i)
	}
	if err := s.Write(a, bufA); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(b, bufB); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 128)
	if err := s.Read(a, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bufA) {
		t.Errorf("page A corrupted")
	}
	if err := s.Read(b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bufB) {
		t.Errorf("page B corrupted")
	}
	if s.NumPages() != 2 {
		t.Errorf("NumPages = %d", s.NumPages())
	}
	st := s.Stats()
	if st.Allocs != 2 || st.Reads != 2 || st.Writes != 2 {
		t.Errorf("stats = %+v", st)
	}
	s.ResetStats()
	if s.Stats() != (IOStats{}) {
		t.Errorf("ResetStats failed")
	}
}

func TestFileStoreErrors(t *testing.T) {
	if _, err := CreateFileStore(filepath.Join(t.TempDir(), "x"), 8); err == nil {
		t.Errorf("tiny page size accepted")
	}
	if _, err := CreateFileStore("/nonexistent-dir-zzz/x.db", 128); err == nil {
		t.Errorf("unwritable path accepted")
	}
	s := newTestFileStore(t)
	buf := make([]byte, 128)
	if err := s.Read(5, buf); err == nil {
		t.Errorf("read of unallocated page succeeded")
	}
	if err := s.Write(5, buf); err == nil {
		t.Errorf("write of unallocated page succeeded")
	}
	if err := s.Free(5); err == nil {
		t.Errorf("free of unallocated page succeeded")
	}
	id, _ := s.Allocate()
	if err := s.Read(id, make([]byte, 3)); err == nil {
		t.Errorf("short buffer accepted")
	}
}

func TestFileStoreFreeReuseZeroed(t *testing.T) {
	s := newTestFileStore(t)
	a, _ := s.Allocate()
	buf := make([]byte, 128)
	buf[0] = 0xAB
	s.Write(a, buf)
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	b, _ := s.Allocate()
	if b != a {
		t.Errorf("freed page not reused")
	}
	got := make([]byte, 128)
	s.Read(b, got)
	if got[0] != 0 {
		t.Errorf("reallocated page not zeroed")
	}
}

// TestFileStoreUnderBTreeWorkload runs the buffer pool + a randomized
// page workload against the file store, mirroring the MemStore tests.
func TestFileStoreUnderPoolWorkload(t *testing.T) {
	s := newTestFileStore(t)
	p := MustPool(s, 4, LRU)
	var ids []PageID
	for i := 0; i < 32; i++ {
		id, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		img := make([]byte, s.PageSize())
		img[0] = byte(i)
		if err := p.Put(id, img); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		data, err := p.View(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != byte(i) {
			t.Fatalf("page %d content lost through file store", id)
		}
	}
}
