package disk_test

import (
	"bytes"
	"errors"
	"testing"

	"probe/internal/disk"
	"probe/internal/disk/faultfs"
)

// TestPoolEvictionWriteErrorKeepsPageDirty pins down the pool's error
// contract: when evicting a dirty page fails at the store, the frame
// must stay resident and dirty so the data is not lost — the eviction
// (and the Get that needed the slot) fail instead.
func TestPoolEvictionWriteErrorKeepsPageDirty(t *testing.T) {
	inner, err := disk.NewMemStore(64)
	if err != nil {
		t.Fatal(err)
	}
	store := faultfs.NewFlakyStore(inner, 1) // the first write-back fails
	pool, err := disk.NewPool(store, 2, disk.LRU)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := pool.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	copy(fa.Data, "precious")
	if err := pool.Unpin(fa.ID, true); err != nil {
		t.Fatal(err)
	}
	fb, err := pool.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Unpin(fb.ID, true); err != nil {
		t.Fatal(err)
	}
	// The pool is full of dirty pages; admitting a third must try to
	// write one back, which fails, and must not leave a page allocated
	// in the store that no frame and no caller knows of.
	if _, err := pool.NewPage(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("want injected write failure, got %v", err)
	}
	if got := inner.NumPages(); got != 2 {
		t.Fatalf("failed NewPage leaked a page: store holds %d, want 2", got)
	}
	if got := pool.Resident(); got != 2 {
		t.Fatalf("resident after failed eviction: %d, want 2", got)
	}
	// The dirty data must still be in the pool, not half-lost: a Get
	// must hit the frame without a store read.
	before := pool.Stats()
	f, err := pool.Get(fa.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(f.Data, []byte("precious")) {
		t.Fatalf("dirty page contents lost after failed eviction: %q", f.Data[:8])
	}
	after := pool.Stats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("page not resident: hits %d -> %d", before.Hits, after.Hits)
	}
	if err := pool.Unpin(fa.ID, false); err != nil {
		t.Fatal(err)
	}
	// With the fault spent, the next eviction succeeds and the page
	// reaches the store intact.
	fc, err := pool.NewPage()
	if err != nil {
		t.Fatalf("eviction after fault cleared: %v", err)
	}
	if err := pool.Unpin(fc.ID, false); err != nil {
		t.Fatal(err)
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := inner.Read(fa.ID, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf, []byte("precious")) {
		t.Fatalf("page reached the store corrupted: %q", buf[:8])
	}
}
