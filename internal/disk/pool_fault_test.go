package disk_test

import (
	"bytes"
	"errors"
	"testing"

	"probe/internal/disk"
	"probe/internal/disk/faultfs"
)

// TestPoolPutWriteErrorInstallsNothing pins down the pool's error
// contract: a Put whose store write fails caches nothing, so the pool
// never holds an image the store lacks, and the id keeps what the
// store holds. No frame is ever dirty, so a miss that evicts a frame
// never writes and a failing store cannot fail a read.
func TestPoolPutWriteErrorInstallsNothing(t *testing.T) {
	inner, err := disk.NewMemStore(64)
	if err != nil {
		t.Fatal(err)
	}
	store := faultfs.NewFlakyStore(inner, 2) // the second write fails
	pool, err := disk.NewPool(store, 1, disk.LRU)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := inner.Allocate()
	b, _ := inner.Allocate()
	if err := pool.Put(a, append([]byte("precious"), make([]byte, 56)...)); err != nil {
		t.Fatal(err)
	}
	if err := pool.Put(a, make([]byte, 64)); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("want injected write failure, got %v", err)
	}
	data, err := pool.View(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("precious")) {
		t.Fatalf("a failed Put replaced the cached image: %q", data[:8])
	}
	// A miss evicts page a and writes nothing back.
	writes := store.Writes()
	if _, err := pool.View(b, nil); err != nil {
		t.Fatal(err)
	}
	if store.Writes() != writes {
		t.Fatalf("a read's eviction wrote %d pages", store.Writes()-writes)
	}
	if data, err = pool.View(a, nil); err != nil || !bytes.HasPrefix(data, []byte("precious")) {
		t.Fatalf("page a reread from the store: %q, %v", data[:8], err)
	}
}
