package disk

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"probe/internal/obs"
)

// Policy selects the buffer pool's eviction strategy. LRU, the
// paper's choice (Section 4), is the only one; the type stays so that
// callers name it.
type Policy int

// LRU evicts the least recently used unpinned page.
const LRU Policy = 0

// PoolStats counts logical accesses through a buffer pool.
type PoolStats struct {
	Gets       uint64 // logical page requests
	Hits       uint64 // requests served from the pool
	Misses     uint64 // requests requiring a physical read
	Evictions  uint64
	WriteBacks uint64 // dirty pages written on eviction or flush
}

// HitRate returns Hits/Gets, or 0 for an unused pool.
func (s PoolStats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// Frame is a page resident in a buffer pool, pinned by a writer. Data
// is the page's contents; mutate it in place, then Unpin it dirty so
// eviction and Flush write it back.
type Frame struct {
	ID    PageID
	Data  []byte
	pins  int
	dirty bool
	elem  *list.Element
}

// Pool is a fixed-capacity LRU page cache over a Store.
//
// A reader calls View, which hands out a page's image and takes no
// pin; a writer pins with Get or NewPage, writes the frame's Data and
// Unpins. The design rests on one condition: an image a reader may hold
// never changes. A miss installs a fresh buffer and no code may recycle
// a published frame's bytes, so an image stays right after eviction or
// Drop; a writer writes only pages no published version reaches (the
// B+-tree's copy-on-write).
//
// Thread safety: all operations serialize on an internal latch.
// Writers must additionally be serialized against each other; see
// docs/parallelism.md for the layer-by-layer contract.
type Pool struct {
	store    Store
	capacity int

	mu     sync.Mutex
	frames map[PageID]*Frame
	order  *list.List // LRU order: front = next eviction victim

	// total counts the pool's accesses over its lifetime, atomically,
	// so Stats can be read without taking the pool latch.
	total [obs.NumCounters]atomic.Int64
}

// NewPool creates a buffer pool holding up to capacity pages. LRU is
// the only policy; any other is an error.
func NewPool(store Store, capacity int, policy Policy) (*Pool, error) {
	if policy != LRU {
		return nil, fmt.Errorf("disk: eviction policy %d: only LRU is supported", policy)
	}
	if capacity < 1 {
		return nil, fmt.Errorf("disk: pool capacity %d < 1", capacity)
	}
	return &Pool{
		store:    store,
		capacity: capacity,
		frames:   make(map[PageID]*Frame, capacity),
		order:    list.New(),
	}, nil
}

// MustPool is NewPool panicking on error.
func MustPool(store Store, capacity int, policy Policy) *Pool {
	p, err := NewPool(store, capacity, policy)
	if err != nil {
		panic(err)
	}
	return p
}

// Store returns the underlying store.
func (p *Pool) Store() Store { return p.store }

// Capacity returns the pool's frame capacity.
func (p *Pool) Capacity() int { return p.capacity }

// Stats returns the pool's access counters. It may be called
// concurrently with any pool operation.
func (p *Pool) Stats() PoolStats {
	t := func(k obs.Counter) uint64 { return uint64(p.total[k].Load()) }
	return PoolStats{t(obs.PoolGets), t(obs.PoolHits), t(obs.PoolMisses), t(obs.PoolEvictions), t(obs.PoolWriteBacks)}
}

// ResetStats zeroes the pool's access counters.
func (p *Pool) ResetStats() {
	for i := range p.total {
		p.total[i].Store(0)
	}
}

// count counts one event on the pool's lifetime totals and on n, the
// counts of the read that caused it (nil: a writer's).
func (p *Pool) count(n *obs.Counts, k obs.Counter) {
	p.total[k].Add(1)
	n.Inc(k)
}

// View returns page id's image for reading, loading it from the store
// on a miss. It takes no pin: the image never changes (see Pool), so
// the caller keeps it as long as it likes. View counts on n as well as
// on the pool's lifetime counters: the get, its hit or miss, the
// physical read a miss costs (or its checksum failure) and the
// evictions and write-backs it forces. n belongs to the caller's read,
// so concurrent reads never count on each other's; a nil n counts
// nowhere but the pool.
func (p *Pool) View(id PageID, n *obs.Counts) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, err := p.frame(id, n)
	if err != nil {
		return nil, err
	}
	return f.Data, nil
}

// Get pins the page in the pool for writing, reading it from the store
// on a miss, and returns its frame; it counts as View does, on the
// pool alone. Callers must Unpin the frame when done.
func (p *Pool) Get(id PageID) (*Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, err := p.frame(id, nil)
	if err == nil {
		f.pins++
	}
	return f, err
}

// frame returns page id's resident frame, reading it on a miss, and
// counts the get on n. The caller holds p.mu.
func (p *Pool) frame(id PageID, n *obs.Counts) (*Frame, error) {
	p.count(n, obs.PoolGets)
	if f, ok := p.frames[id]; ok {
		p.count(n, obs.PoolHits)
		p.order.MoveToBack(f.elem)
		return f, nil
	}
	p.count(n, obs.PoolMisses)
	if err := p.makeRoom(n); err != nil {
		return nil, err
	}
	f := p.install(id)
	if err := p.store.Read(id, f.Data); err != nil {
		if _, ok := err.(*ChecksumError); ok {
			p.count(n, obs.ChecksumFailures)
		}
		p.discard(f)
		return nil, err
	}
	p.count(n, obs.PhysReads)
	return f, nil
}

// NewPage allocates a fresh page in the store and pins an empty frame
// for it. Callers must Unpin the frame when done; the frame starts
// dirty so its (initially zero) contents reach the store. Room is made
// before the store allocates, so a failed eviction leaks no page.
func (p *Pool) NewPage() (*Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.makeRoom(nil); err != nil {
		return nil, err
	}
	id, err := p.store.Allocate()
	if err != nil {
		return nil, err
	}
	f := p.install(id)
	f.pins, f.dirty = 1, true
	return f, nil
}

// makeRoom evicts until a frame is free, counting on n. The caller
// holds p.mu.
func (p *Pool) makeRoom(n *obs.Counts) error {
	for len(p.frames) >= p.capacity {
		if err := p.evictOne(n); err != nil {
			return err
		}
	}
	return nil
}

// install makes an unpinned frame for id on a buffer of its own: a
// reader may still hold the image of any frame evicted before, so no
// buffer is ever reused. The caller made room under p.mu.
func (p *Pool) install(id PageID) *Frame {
	f := &Frame{ID: id, Data: make([]byte, p.store.PageSize())}
	f.elem = p.order.PushBack(f)
	p.frames[id] = f
	return f
}

func (p *Pool) discard(f *Frame) {
	p.order.Remove(f.elem)
	delete(p.frames, f.ID)
}

// evictOne removes the least recently used unpinned frame, counting on
// n. The caller holds p.mu.
func (p *Pool) evictOne(n *obs.Counts) error {
	var victim *Frame
	for e := p.order.Front(); e != nil; e = e.Next() {
		if f := e.Value.(*Frame); f.pins == 0 {
			victim = f
			break
		}
	}
	if victim == nil {
		return fmt.Errorf("disk: all %d frames pinned; cannot evict", len(p.frames))
	}
	if victim.dirty {
		if err := p.store.Write(victim.ID, victim.Data); err != nil {
			return err
		}
		p.count(n, obs.PoolWriteBacks)
	}
	p.discard(victim)
	p.count(n, obs.PoolEvictions)
	return nil
}

// Unpin releases one pin on the page. dirty marks the contents
// modified.
func (p *Pool) Unpin(id PageID, dirty bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return fmt.Errorf("disk: unpin of non-resident page %d", id)
	}
	if f.pins <= 0 {
		return fmt.Errorf("disk: unpin of unpinned page %d", id)
	}
	f.pins--
	if dirty {
		f.dirty = true
	}
	return nil
}

// Flush writes all dirty frames back to the store without evicting
// them.
func (p *Pool) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushLocked()
}

func (p *Pool) flushLocked() error {
	for e := p.order.Front(); e != nil; e = e.Next() {
		f := e.Value.(*Frame)
		if f.dirty {
			if err := p.store.Write(f.ID, f.Data); err != nil {
				return err
			}
			f.dirty = false
			p.count(nil, obs.PoolWriteBacks)
		}
	}
	return nil
}

// Checkpointer is implemented by stores whose writes become durable
// only at an explicit commit point (RecoverableStore). Stores without
// a checkpoint protocol simply don't implement it.
type Checkpointer interface {
	Checkpoint() error
}

// Checkpoint flushes every dirty frame to the store and then, if the
// store is a Checkpointer, commits its checkpoint protocol.
//
// Flush ordering contract: the pool only ever moves dirty pages to
// the store via Store.Write — on eviction, Flush, Drop and here — and
// a RecoverableStore.Write is by construction a WAL append plus an
// in-memory delta, never a data-file write. No dirty page can
// therefore reach the page file before its WAL record is synced: the
// file is written only inside Checkpoint/Recover, after the batch's
// commit record is durable. The pool needs no write-ordering logic of
// its own; it must only guarantee — as this method does — that every
// dirty frame has been handed to the store before Checkpoint is
// invoked, so the commit covers them.
func (p *Pool) Checkpoint() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.flushLocked(); err != nil {
		return err
	}
	if ck, ok := p.store.(Checkpointer); ok {
		return ck.Checkpoint()
	}
	return nil
}

// Drop removes the page from the pool, discarding its contents, and
// frees it in the store. The page must be unpinned. A reader still
// holding the page's image keeps it: a later allocation of the same id
// gets a fresh buffer (install).
func (p *Pool) Drop(id PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.frames[id]; ok {
		if f.pins > 0 {
			return fmt.Errorf("disk: drop of pinned page %d", id)
		}
		p.discard(f)
	}
	return p.store.Free(id)
}

// Resident returns the number of frames currently in the pool.
func (p *Pool) Resident() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.frames)
}

// Pinned returns the number of resident frames with at least one pin:
// pages a writer is writing, which eviction cannot touch. Readers take
// no pins (View).
func (p *Pool) Pinned() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, f := range p.frames {
		if f.pins > 0 {
			n++
		}
	}
	return n
}

// Invalidate empties the pool after flushing dirty pages, so the next
// accesses are cold. The experiment harness uses this between queries
// to make page-access counts reproducible.
func (p *Pool) Invalidate() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.flushLocked(); err != nil {
		return err
	}
	for _, f := range p.frames {
		if f.pins > 0 {
			return fmt.Errorf("disk: invalidate with pinned page %d", f.ID)
		}
	}
	p.frames = make(map[PageID]*Frame, p.capacity)
	p.order.Init()
	return nil
}
