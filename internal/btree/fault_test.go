package btree

import (
	"errors"
	"fmt"
	"testing"

	"probe/internal/disk"
)

// faultStore wraps a Store and fails every operation once a
// countdown of physical operations elapses.
type faultStore struct {
	inner     disk.Store
	remaining int
	tripped   bool
}

var errInjected = errors.New("injected fault")

func (f *faultStore) step() error {
	if f.tripped {
		return errInjected
	}
	f.remaining--
	if f.remaining < 0 {
		f.tripped = true
		return errInjected
	}
	return nil
}

func (f *faultStore) PageSize() int { return f.inner.PageSize() }

func (f *faultStore) Allocate() (disk.PageID, error) {
	if err := f.step(); err != nil {
		return disk.InvalidPage, err
	}
	return f.inner.Allocate()
}

func (f *faultStore) Read(id disk.PageID, buf []byte) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.Read(id, buf)
}

func (f *faultStore) Write(id disk.PageID, buf []byte) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.Write(id, buf)
}

func (f *faultStore) Free(id disk.PageID) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.Free(id)
}

func (f *faultStore) NumPages() int { return f.inner.NumPages() }

// TestFaultInjectionNoPanics drives tree operations against stores
// that fail at every possible physical-operation offset, asserting
// that errors surface as errors (never panics) and that operations
// before the trip point behave normally.
func TestFaultInjectionNoPanics(t *testing.T) {
	// First measure how many physical ops a full scenario needs.
	scenario := func(tree *Tree) error {
		for i := uint64(0); i < 120; i++ {
			if err := tree.Insert(Key{Hi: i}, nil); err != nil {
				return fmt.Errorf("insert %d: %w", i, err)
			}
		}
		for i := uint64(0); i < 60; i++ {
			if _, err := tree.Delete(Key{Hi: i * 2}); err != nil {
				return fmt.Errorf("delete %d: %w", i, err)
			}
		}
		snap := tree.Snapshot()
		c := snap.Cursor()
		ok, err := c.First()
		for ok {
			ok, err = c.Next()
		}
		snap.Release()
		if err != nil {
			return fmt.Errorf("scan: %w", err)
		}
		if _, _, err := tree.Get(Key{Hi: 1}); err != nil {
			return fmt.Errorf("get: %w", err)
		}
		return nil
	}

	// Tiny pool so evictions force frequent physical I/O.
	run := func(budget int) (tripped bool) {
		fs := &faultStore{inner: disk.MustMemStore(256), remaining: budget}
		pool := disk.MustPool(fs, 3, disk.LRU)
		tree, err := New(pool, Config{LeafCapacity: 4})
		if err != nil {
			if !errors.Is(err, errInjected) {
				t.Fatalf("budget %d: unexpected construction error: %v", budget, err)
			}
			return true
		}
		if err := scenario(tree); err != nil {
			if !errors.Is(err, errInjected) {
				t.Fatalf("budget %d: unexpected error: %v", budget, err)
			}
			return true
		}
		return fs.tripped
	}

	// Find the op budget for a clean run.
	clean := 1 << 20
	if run(clean) {
		t.Fatalf("scenario tripped even with a huge budget")
	}
	// Now fail at a spread of offsets. (Testing every offset is
	// quadratic; a stride keeps it fast while covering all phases.)
	for budget := 0; budget < 3000; budget += 7 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("budget %d: panic: %v", budget, r)
				}
			}()
			run(budget)
		}()
	}
}

// TestFaultDuringBulkLoad: Load must propagate injected failures.
func TestFaultDuringBulkLoad(t *testing.T) {
	entries := sortedEntries(500)
	for budget := 0; budget < 400; budget += 11 {
		fs := &faultStore{inner: disk.MustMemStore(256), remaining: budget}
		pool := disk.MustPool(fs, 3, disk.LRU)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("budget %d: panic: %v", budget, r)
				}
			}()
			tree, err := Load(pool, Config{LeafCapacity: 4}, entries, 0)
			if err == nil && fs.tripped {
				t.Fatalf("budget %d: fault swallowed", budget)
			}
			if err == nil {
				if tree.Len() != 500 {
					t.Fatalf("budget %d: clean load lost entries", budget)
				}
			} else if !errors.Is(err, errInjected) {
				t.Fatalf("budget %d: unexpected error: %v", budget, err)
			}
		}()
	}
}
