package disk

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// File is the slice of *os.File the storage layer needs. It exists so
// tests can substitute a fault-injecting implementation (see
// internal/disk/faultfs) and exercise crash, torn-write and bit-flip
// schedules deterministically.
type File interface {
	io.ReaderAt
	io.WriterAt
	// Truncate changes the file's size.
	Truncate(size int64) error
	// Sync flushes the file's contents to stable storage. Data not
	// yet synced may be lost — wholly or partially — on a crash.
	Sync() error
	// Size returns the file's current size in bytes.
	Size() (int64, error)
	// Close releases the file. Close does not imply Sync.
	Close() error
}

// FS opens the files a store lives on. The production implementation
// is OSFS; faultfs provides a deterministic in-memory one.
type FS interface {
	// Create creates the file, truncating it if it exists.
	Create(path string) (File, error)
	// Open opens an existing file for reading and writing.
	Open(path string) (File, error)
	// Stat reports whether the file exists and its size.
	Stat(path string) (size int64, exists bool, err error)
}

// OSFS is the FS backed by the operating system.
type OSFS struct{}

type osFile struct{ f *os.File }

func (o osFile) ReadAt(p []byte, off int64) (int, error)  { return o.f.ReadAt(p, off) }
func (o osFile) WriteAt(p []byte, off int64) (int, error) { return o.f.WriteAt(p, off) }
func (o osFile) Truncate(size int64) error                { return o.f.Truncate(size) }
func (o osFile) Sync() error                              { return o.f.Sync() }
func (o osFile) Close() error                             { return o.f.Close() }

func (o osFile) Size() (int64, error) {
	fi, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// Create implements FS.
func (OSFS) Create(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f: f}, nil
}

// Open implements FS.
func (OSFS) Open(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f: f}, nil
}

// Stat implements FS.
func (OSFS) Stat(path string) (int64, bool, error) {
	fi, err := os.Stat(path)
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	return fi.Size(), true, nil
}

// ErrLocked is returned when a page file's advisory lock is held by
// another open store, in this process or another one.
var ErrLocked = errors.New("disk: page file is locked by another store")

// lockFile takes f's exclusive advisory lock, which f's Close releases.
// Only OSFS files on systems with flock have one (fs_flock.go); any
// other File, faultfs's among them, needs none.
func lockFile(f File, path string) error {
	l, ok := f.(interface{ lock() error })
	if !ok {
		return nil
	}
	if err := l.lock(); err != nil {
		return fmt.Errorf("disk: lock %s: %w", path, err)
	}
	return nil
}

// readFull reads exactly len(buf) bytes at off, normalizing the
// short-read error.
func readFull(f File, buf []byte, off int64) error {
	n, err := f.ReadAt(buf, off)
	if n == len(buf) {
		return nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("read %d bytes at %d: %w", n, off, err)
}
