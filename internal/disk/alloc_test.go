//go:build !race

package disk_test

import (
	"path/filepath"
	"testing"

	"probe/internal/disk"
)

// TestAllocGateFileStoreRead: a physical page read on a real file
// allocates nothing; the header+page slot it verifies is the store's
// own scratch. An exact count, so the file is left out of -race builds
// and CI runs it with the other alloc gates.
func TestAllocGateFileStoreRead(t *testing.T) {
	fs, err := disk.CreateFileStoreFS(disk.OSFS{}, filepath.Join(t.TempDir(), "pages"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	id, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteLSN(id, page(4096, 'r'), 1); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		if err := fs.Read(id, buf); err != nil || buf[0] != 'r' {
			t.Fatal(err, buf[0])
		}
	})
	if allocs != 0 {
		t.Errorf("FileStore.Read costs %v allocs, want 0", allocs)
	}
}
