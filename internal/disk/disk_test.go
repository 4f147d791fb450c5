package disk

import (
	"bytes"
	"testing"
	"time"

	"probe/internal/obs"
)

func TestMemStoreBasics(t *testing.T) {
	s := MustMemStore(128)
	if s.PageSize() != 128 {
		t.Fatalf("PageSize = %d", s.PageSize())
	}
	id, err := s.Allocate()
	if err != nil || id == InvalidPage {
		t.Fatalf("Allocate: %v, id=%d", err, id)
	}
	buf := make([]byte, 128)
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := s.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 128)
	if err := s.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Errorf("read-back mismatch")
	}
	if s.NumPages() != 1 {
		t.Errorf("NumPages = %d", s.NumPages())
	}
	st := s.Stats()
	if st.Allocs != 1 || st.Reads != 1 || st.Writes != 1 {
		t.Errorf("stats = %+v", st)
	}
	s.ResetStats()
	if s.Stats() != (IOStats{}) {
		t.Errorf("ResetStats failed")
	}
}

func TestMemStoreErrors(t *testing.T) {
	if _, err := NewMemStore(32); err == nil {
		t.Errorf("tiny page size accepted")
	}
	s := MustMemStore(64)
	buf := make([]byte, 64)
	if err := s.Read(7, buf); err == nil {
		t.Errorf("read of unallocated page succeeded")
	}
	if err := s.Write(7, buf); err == nil {
		t.Errorf("write of unallocated page succeeded")
	}
	if err := s.Free(7); err == nil {
		t.Errorf("free of unallocated page succeeded")
	}
	id, _ := s.Allocate()
	if err := s.Read(id, make([]byte, 63)); err == nil {
		t.Errorf("short read buffer accepted")
	}
	if err := s.Write(id, make([]byte, 65)); err == nil {
		t.Errorf("long write buffer accepted")
	}
}

func TestMemStoreFreeReuse(t *testing.T) {
	s := MustMemStore(64)
	a, _ := s.Allocate()
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	b, _ := s.Allocate()
	if b != a {
		t.Errorf("freed page not reused: %d then %d", a, b)
	}
	// A freed-then-reallocated page is zeroed.
	buf := make([]byte, 64)
	buf[0] = 0xff
	s.Write(b, buf)
	s.Free(b)
	c, _ := s.Allocate()
	got := make([]byte, 64)
	s.Read(c, got)
	if got[0] != 0 {
		t.Errorf("reallocated page not zeroed")
	}
}

func TestPoolHitMiss(t *testing.T) {
	s := MustMemStore(64)
	p := MustPool(s, 2, LRU)
	id, _ := s.Allocate()

	data, err := p.View(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Errorf("first get: %+v", st)
	}
	data2, _ := p.View(id, nil)
	if &data2[0] != &data[0] {
		t.Errorf("second get returned a different image")
	}
	if st := p.Stats(); st.Hits != 1 || st.Gets != 2 {
		t.Errorf("after second get: %+v", st)
	}
}

// putNew allocates a page in p's store and Puts an image whose first
// byte is b.
func putNew(t *testing.T, p *Pool, b byte) PageID {
	t.Helper()
	id, err := p.Store().Allocate()
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, p.Store().PageSize())
	img[0] = b
	if err := p.Put(id, img); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestPoolWriteBack: Put writes its image through to the store at
// once, and evicting the frame writes nothing back.
func TestPoolWriteBack(t *testing.T) {
	s := MustMemStore(64)
	p := MustPool(s, 1, LRU)
	id := putNew(t, p, 42)
	buf := make([]byte, 64)
	if err := s.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 42 {
		t.Errorf("Put did not write the page through")
	}

	// Force eviction by pulling in another page.
	id2, _ := s.Allocate()
	s.ResetStats()
	if _, err := p.View(id2, nil); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Writes != 0 || st.Reads != 1 {
		t.Errorf("a miss evicting a Put page cost %+v, want one read", st)
	}
	if p.Stats().Evictions != 1 {
		t.Errorf("stats = %+v", p.Stats())
	}
}

// TestPoolViewCounts: View counts on the reader's counts its get, the
// hit or miss, the physical read a miss costs and the eviction the
// miss forces; a get without counts counts on none.
func TestPoolViewCounts(t *testing.T) {
	s := MustMemStore(64)
	p := MustPool(s, 1, LRU)
	put := putNew(t, p, 1)
	id, _ := s.Allocate()
	var n obs.Counts
	for i := 0; i < 2; i++ { // a miss evicting the Put page, then a hit
		if _, err := p.View(id, &n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.View(put, nil); err != nil { // a miss on no counts
		t.Fatal(err)
	}
	for c, want := range map[obs.Counter]int64{
		obs.PoolGets: 2, obs.PoolHits: 1, obs.PoolMisses: 1, obs.PhysReads: 1,
		obs.PoolEvictions: 1, obs.PoolWriteBacks: 0, obs.PhysWrites: 0,
	} {
		if got := n[c]; got != want {
			t.Errorf("counts %s = %d, want %d", c, got, want)
		}
	}
	if st := p.Stats(); st.Gets != 3 || st.Misses != 2 || st.Evictions != 2 {
		t.Errorf("pool stats = %+v", st)
	}
}

// TestPoolPutReplacesFrame: a Put over a resident id installs its image
// as a new frame; the image a reader holds stays as it was.
func TestPoolPutReplacesFrame(t *testing.T) {
	s := MustMemStore(64)
	p := MustPool(s, 2, LRU)
	id := putNew(t, p, 1)
	held, err := p.View(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, 64)
	img[0] = 2
	if err := p.Put(id, img); err != nil {
		t.Fatal(err)
	}
	now, err := p.View(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if held[0] != 1 || now[0] != 2 || &now[0] != &img[0] {
		t.Errorf("held %d, now %d (the Put image: %v)", held[0], now[0], &now[0] == &img[0])
	}
	if p.Resident() != 1 || p.Stats().Evictions != 0 {
		t.Errorf("a Put over a resident id left %d frames, %d evictions", p.Resident(), p.Stats().Evictions)
	}
}

func TestPoolLRUOrder(t *testing.T) {
	s := MustMemStore(64)
	ids := make([]PageID, 3)
	for i := range ids {
		ids[i], _ = s.Allocate()
	}
	p := MustPool(s, 2, LRU)
	get := func(id PageID) {
		if _, err := p.View(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	get(ids[0])
	get(ids[1])
	get(ids[0]) // touch 0 so 1 is LRU
	get(ids[2]) // evicts 1
	s.ResetStats()
	get(ids[0])
	if s.Stats().Reads != 0 {
		t.Errorf("page 0 should still be resident under LRU")
	}
	get(ids[1])
	if s.Stats().Reads != 1 {
		t.Errorf("page 1 should have been evicted under LRU")
	}
}

func TestPoolInvalidate(t *testing.T) {
	s := MustMemStore(64)
	p := MustPool(s, 4, LRU)
	id := putNew(t, p, 7)
	if err := p.Invalidate(); err != nil {
		t.Fatal(err)
	}
	if p.Resident() != 0 {
		t.Errorf("Invalidate left %d resident frames", p.Resident())
	}
	s.ResetStats()
	data, err := p.View(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().Reads != 1 || data[0] != 7 {
		t.Errorf("post-invalidate access should be a cold read of the Put image")
	}
}

func TestPoolDrop(t *testing.T) {
	s := MustMemStore(64)
	p := MustPool(s, 2, LRU)
	id := putNew(t, p, 1)
	if err := p.Drop(id); err != nil {
		t.Fatal(err)
	}
	if s.NumPages() != 0 {
		t.Errorf("Drop did not free the page")
	}
	if _, err := p.View(id, nil); err == nil {
		t.Errorf("View of dropped page should fail")
	}
}

// TestPoolUnpinErrors pins the benchmark drills' vestiges: Get is a
// View in a Frame and pins nothing, Unpin of a clean page does nothing,
// and Unpin of a dirty one is an error.
func TestPoolUnpinErrors(t *testing.T) {
	s := MustMemStore(64)
	p := MustPool(s, 1, LRU)
	id := putNew(t, p, 5)
	f, err := p.Get(id)
	if err != nil || f.ID != id || f.Data[0] != 5 {
		t.Fatalf("Get = %+v, %v", f, err)
	}
	if err := p.Unpin(99, false); err != nil {
		t.Errorf("clean unpin: %v", err)
	}
	if err := p.Unpin(id, true); err == nil {
		t.Errorf("dirty unpin should fail")
	}
	putNew(t, p, 6) // the frame Get returned is not pinned: it is evicted
	if p.Stats().Evictions != 1 {
		t.Errorf("a Get pinned its frame: %+v", p.Stats())
	}
}

func TestPoolValidation(t *testing.T) {
	s := MustMemStore(64)
	if _, err := NewPool(s, 0, LRU); err == nil {
		t.Errorf("zero-capacity pool accepted")
	}
	if _, err := NewPool(s, 4, Policy(1)); err == nil {
		t.Errorf("a policy other than LRU accepted")
	}
}

// TestPoolScanWorkload reproduces the Section 4 argument: a merge
// touches each page once, so even a tiny LRU pool serves a scan with
// exactly one read per page and no re-reads.
func TestPoolScanWorkload(t *testing.T) {
	s := MustMemStore(64)
	var ids []PageID
	for i := 0; i < 100; i++ {
		id, _ := s.Allocate()
		ids = append(ids, id)
	}
	p := MustPool(s, 3, LRU)
	s.ResetStats()
	for _, id := range ids {
		// Each page accessed twice in a row (as a merge re-examines
		// the current page) and then never again.
		for j := 0; j < 2; j++ {
			if _, err := p.View(id, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := s.Stats().Reads; got != 100 {
		t.Errorf("scan read %d pages physically, want 100", got)
	}
	if p.Stats().Hits != 100 {
		t.Errorf("hits = %d, want 100", p.Stats().Hits)
	}
}

func TestSimulatedTime(t *testing.T) {
	s := IOStats{Reads: 10, Writes: 5, Allocs: 100}
	if got := s.SimulatedTime(EraDiskAccess); got != 450*time.Millisecond {
		t.Errorf("SimulatedTime = %v, want 450ms", got)
	}
	if (IOStats{}).SimulatedTime(EraDiskAccess) != 0 {
		t.Errorf("empty stats should cost nothing")
	}
}
