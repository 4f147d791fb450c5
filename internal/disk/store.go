// Package disk is the storage layer under the zkd B+-tree: a store of
// fixed-size pages and a buffer pool over it with LRU eviction, Section
// 4's choice ("the LRU buffering strategy will work well because of our
// reliance on merging").
//
// The paper's experiments report page-access counts, not wall-clock
// times. Each is counted once: a physical read is a pool miss, counted
// on the read that caused it and in Pool.Stats; a physical write is a
// page-file slot a RecoverableStore checkpoint writes, counted in
// DurabilityStats.PageWrites.
package disk

import (
	"fmt"
	"sync"
)

// PageID identifies a page in a store. Zero is never a valid page.
type PageID uint32

// InvalidPage is the zero PageID, used as a null reference.
const InvalidPage PageID = 0

// DefaultPageSize is the page size used when none is specified.
const DefaultPageSize = 4096

// Store is a collection of fixed-size pages addressed by PageID.
type Store interface {
	// PageSize returns the fixed size of every page in bytes.
	PageSize() int
	// Allocate reserves a new zeroed page and returns its id.
	Allocate() (PageID, error)
	// Read copies the page's contents into buf (len PageSize).
	Read(id PageID, buf []byte) error
	// Write replaces the page's contents with buf (len PageSize).
	Write(id PageID, buf []byte) error
	// Free releases the page for reuse.
	Free(id PageID) error
	// NumPages returns the number of allocated pages.
	NumPages() int
}

// MemStore is an in-memory Store. It is safe for concurrent use.
type MemStore struct {
	mu       sync.Mutex
	pageSize int
	pages    map[PageID][]byte
	freeList []PageID
	next     PageID
}

// NewMemStore creates an in-memory store with the given page size.
func NewMemStore(pageSize int) (*MemStore, error) {
	if pageSize < 64 {
		return nil, fmt.Errorf("disk: page size %d too small (minimum 64)", pageSize)
	}
	return &MemStore{
		pageSize: pageSize,
		pages:    make(map[PageID][]byte),
		next:     1,
	}, nil
}

// MustMemStore is NewMemStore panicking on error.
func MustMemStore(pageSize int) *MemStore {
	s, err := NewMemStore(pageSize)
	if err != nil {
		panic(err)
	}
	return s
}

// PageSize implements Store.
func (s *MemStore) PageSize() int { return s.pageSize }

// Allocate implements Store.
func (s *MemStore) Allocate() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var id PageID
	if n := len(s.freeList); n > 0 {
		id = s.freeList[n-1]
		s.freeList = s.freeList[:n-1]
	} else {
		id = s.next
		if id == 0 {
			return InvalidPage, fmt.Errorf("disk: page ids exhausted")
		}
		s.next++
	}
	s.pages[id] = make([]byte, s.pageSize)
	return id, nil
}

// Read implements Store.
func (s *MemStore) Read(id PageID, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pages[id]
	if !ok {
		return fmt.Errorf("disk: read of unallocated page %d", id)
	}
	if len(buf) != s.pageSize {
		return fmt.Errorf("disk: read buffer has %d bytes, want %d", len(buf), s.pageSize)
	}
	copy(buf, p)
	return nil
}

// Write implements Store.
func (s *MemStore) Write(id PageID, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pages[id]
	if !ok {
		return fmt.Errorf("disk: write of unallocated page %d", id)
	}
	if len(buf) != s.pageSize {
		return fmt.Errorf("disk: write buffer has %d bytes, want %d", len(buf), s.pageSize)
	}
	copy(p, buf)
	return nil
}

// Free implements Store.
func (s *MemStore) Free(id PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pages[id]; !ok {
		return fmt.Errorf("disk: free of unallocated page %d", id)
	}
	delete(s.pages, id)
	s.freeList = append(s.freeList, id)
	return nil
}

// NumPages implements Store.
func (s *MemStore) NumPages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pages)
}
