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

// LRU evicts the least recently used page.
const LRU Policy = 0

// PoolStats counts logical accesses through a buffer pool.
type PoolStats struct {
	Gets      uint64 // logical page requests
	Hits      uint64 // requests served from the pool
	Misses    uint64 // requests requiring a physical read
	Evictions uint64
}

// Frame is a page resident in a buffer pool: its id and its image.
type Frame struct {
	ID   PageID
	Data []byte
	elem *list.Element
}

// Pool is a fixed-capacity LRU cache of page images over a Store.
//
// A reader calls View, which hands out a page's image; a writer hands
// a finished image to Put, which writes it to the store and caches it.
// The design rests on one condition: an image the pool has handed out
// never changes. Every frame is a buffer of its own, installed by a
// miss or a Put and never written into afterwards, so a reader may keep
// an image after it is evicted, dropped or replaced. A writer Puts only
// pages no published version reaches (the B+-tree's copy-on-write), and
// never changes an image once it has Put it. No frame is ever dirty, so
// a read never writes.
//
// Thread safety: all operations serialize on an internal latch.
// Writers must additionally be serialized against each other; see
// docs/parallelism.md for the layer-by-layer contract.
type Pool struct {
	store    Store
	images   imageWriter // store, when it can keep an image Put hands it
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
	images, _ := store.(imageWriter)
	return &Pool{
		store:    store,
		images:   images,
		capacity: capacity,
		frames:   make(map[PageID]*Frame, capacity),
		order:    list.New(),
	}, nil
}

// imageWriter is a Store that can keep an image it is handed, which its
// caller never changes again, instead of copying it
// (RecoverableStore.WriteImage). Put hands it the image the pool
// caches, so a page written between checkpoints is held once.
type imageWriter interface {
	WriteImage(id PageID, img []byte) error
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
	return PoolStats{t(obs.PoolGets), t(obs.PoolHits), t(obs.PoolMisses), t(obs.PoolEvictions)}
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
// on a miss. The image never changes (see Pool), so the caller keeps it
// as long as it likes. View counts on n as well as on the pool's
// lifetime counters: the get, its hit or miss, the physical read a miss
// costs (or its checksum failure) and the eviction it forces. n belongs
// to the caller's read, so concurrent reads never count on each
// other's; a nil n counts nowhere but the pool.
func (p *Pool) View(id PageID, n *obs.Counts) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, err := p.frame(id, n)
	if err != nil {
		return nil, err
	}
	return f.Data, nil
}

// Get returns page id's frame as View does, counting on the pool
// alone. It pins nothing; the benchmark drills are its only callers.
func (p *Pool) Get(id PageID) (*Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.frame(id, nil)
}

// Unpin is what is left of the writers' pins, for the benchmark drills:
// nothing is pinned, so releasing a clean page does nothing, and a
// dirty one is an error, because only Put changes a page.
func (p *Pool) Unpin(id PageID, dirty bool) error {
	if dirty {
		return fmt.Errorf("disk: page %d unpinned dirty: write pages with Put", id)
	}
	return nil
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
	data := make([]byte, p.store.PageSize())
	if err := p.store.Read(id, data); err != nil {
		if _, ok := err.(*ChecksumError); ok {
			p.count(n, obs.ChecksumFailures)
		}
		return nil, err
	}
	p.count(n, obs.PhysReads)
	return p.install(id, data, n), nil
}

// Put writes img to the store as page id's image and caches it as id's
// frame. The pool keeps img itself: the caller must not change it
// afterwards. A frame id already had is replaced, not written into, so
// a reader holding the old image keeps it. A failed write caches
// nothing.
func (p *Pool) Put(id PageID, img []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var err error
	if p.images != nil {
		err = p.images.WriteImage(id, img)
	} else {
		err = p.store.Write(id, img)
	}
	if err != nil {
		return err
	}
	if f, ok := p.frames[id]; ok {
		p.discard(f)
	}
	p.install(id, img, nil)
	return nil
}

// install caches data as id's frame, first evicting the least recently
// used frames, counted on n, until there is room. The caller holds p.mu
// and id is not resident.
func (p *Pool) install(id PageID, data []byte, n *obs.Counts) *Frame {
	for len(p.frames) >= p.capacity {
		p.discard(p.order.Front().Value.(*Frame))
		p.count(n, obs.PoolEvictions)
	}
	f := &Frame{ID: id, Data: data}
	f.elem = p.order.PushBack(f)
	p.frames[id] = f
	return f
}

func (p *Pool) discard(f *Frame) {
	p.order.Remove(f.elem)
	delete(p.frames, f.ID)
}

// Drop removes the page from the pool and frees it in the store. A
// reader still holding the page's image keeps it.
func (p *Pool) Drop(id PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.frames[id]; ok {
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

// Invalidate empties the pool, so the next accesses are cold. The
// experiment harness uses this between queries to make page-access
// counts reproducible. No frame is dirty, so nothing is written.
func (p *Pool) Invalidate() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.frames = make(map[PageID]*Frame, p.capacity)
	p.order.Init()
}
