package faultfs

import (
	"sync"

	"probe/internal/disk"
)

// FlakyStore wraps a disk.Store and fails chosen page writes with
// ErrInjected, for exercising error paths above the store (e.g. the
// buffer pool caching nothing after a failed Put).
type FlakyStore struct {
	disk.Store

	mu     sync.Mutex
	writes int
	failAt map[int]bool
}

// NewFlakyStore wraps inner, failing the writes whose 1-based
// sequence numbers appear in failAt.
func NewFlakyStore(inner disk.Store, failAt ...int) *FlakyStore {
	fs := &FlakyStore{Store: inner, failAt: make(map[int]bool, len(failAt))}
	for _, n := range failAt {
		fs.failAt[n] = true
	}
	return fs
}

// Write implements disk.Store.
func (s *FlakyStore) Write(id disk.PageID, buf []byte) error {
	s.mu.Lock()
	s.writes++
	fail := s.failAt[s.writes]
	s.mu.Unlock()
	if fail {
		return ErrInjected
	}
	return s.Store.Write(id, buf)
}

// Writes returns the number of Write calls seen (including failed
// ones).
func (s *FlakyStore) Writes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes
}
