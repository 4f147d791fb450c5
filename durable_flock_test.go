//go:build darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd

package probe_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"probe"
)

// TestDurablePathLockedElsewhere: a page file whose advisory lock is
// held through an open file of its own, as a second process serving
// the same path holds it, refuses Open with ErrInUse naming the path
// and leaves the store as it was; once the lock is released the path
// opens and holds every committed point.
func TestDurablePathLockedElsewhere(t *testing.T) {
	g := probe.MustGrid(2, 8)
	path := filepath.Join(t.TempDir(), "probe.db")
	db, err := probe.Open(g, probe.WithDurability(path), probe.WithPageSize(256))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 300; i++ {
		if err := db.Insert(probe.Pt2(i, uint32(i%256), uint32((i*13)%256))); err != nil {
			t.Fatal(err)
		}
	}
	want := collect(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		t.Fatalf("lock after Close: %v (Close left the page file locked)", err)
	}
	if other, err := probe.Open(g, probe.WithDurability(path)); !errors.Is(err, probe.ErrInUse) || !strings.Contains(err.Error(), path) {
		if other != nil {
			other.Close()
		}
		t.Fatalf("open of a locked path: %v, want ErrInUse naming %s", err, path)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := probe.Open(g, probe.WithDurability(path))
	if err != nil {
		t.Fatalf("open after the lock was released: %v", err)
	}
	defer db2.Close()
	if got := collect(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened database holds %d points, want the %d committed", len(got), len(want))
	}
}
