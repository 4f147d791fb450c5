package disk

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestPoolConcurrentReaders hammers one LRU pool from many goroutines:
// View readers of a page set larger than capacity (so eviction churns)
// beside one writer that pins, rewrites and drops pages of its own, with
// concurrent Stats reads and periodic Flushes. Each reader keeps the
// images it was handed and checks them again at the end: an image never
// changes, whatever the pool evicted, dropped or reallocated since. Run
// under -race this proves the pool latch covers every path and that no
// writer touches a buffer a reader holds.
func TestPoolConcurrentReaders(t *testing.T) {
	const size = 128
	store := MustMemStore(size)
	pool := MustPool(store, 16, LRU)
	image := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, size) }
	var ids []PageID
	for i := 0; i < 64; i++ {
		f, err := pool.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		copy(f.Data, image(i))
		ids = append(ids, f.ID)
		if err := pool.Unpin(f.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}

	const readers, steps = 12, 300
	errc := make(chan error, readers+1)
	var wg sync.WaitGroup
	wg.Add(readers + 1)
	go func() { // the writer: pages no reader reaches
		defer wg.Done()
		for i := 0; i < steps; i++ {
			f, err := pool.NewPage()
			if err != nil {
				errc <- fmt.Errorf("writer: %v", err)
				return
			}
			id := f.ID
			copy(f.Data, image(i))
			if err := pool.Unpin(id, true); err != nil {
				errc <- fmt.Errorf("writer: %v", err)
				return
			}
			if f, err = pool.Get(id); err != nil { // rewrite in place
				errc <- fmt.Errorf("writer: %v", err)
				return
			}
			f.Data[0]++
			if err := pool.Unpin(id, true); err != nil {
				errc <- fmt.Errorf("writer: %v", err)
				return
			}
			if err := pool.Drop(id); err != nil { // the id is handed out again
				errc <- fmt.Errorf("writer: %v", err)
				return
			}
			if i%37 == 0 {
				if err := pool.Flush(); err != nil {
					errc <- fmt.Errorf("writer: %v", err)
					return
				}
			}
		}
	}()
	for w := 0; w < readers; w++ {
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			held := map[int][]byte{}
			for i := 0; i < steps; i++ {
				idx := rng.Intn(len(ids))
				data, err := pool.View(ids[idx], nil)
				if err != nil {
					errc <- fmt.Errorf("reader %d: %v", w, err)
					return
				}
				if !bytes.Equal(data, image(idx)) {
					errc <- fmt.Errorf("reader %d: page %d does not hold image %d", w, ids[idx], idx)
					return
				}
				held[idx] = data
				if i%31 == 0 {
					pool.Stats()
					pool.Resident()
				}
			}
			for idx, data := range held {
				if !bytes.Equal(data, image(idx)) {
					errc <- fmt.Errorf("reader %d: a held view of page %d changed", w, ids[idx])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := pool.Stats()
	if st.Evictions == 0 {
		t.Error("no evictions; the stress test did not exceed capacity")
	}
	if got := st.Gets; got != readers*steps+steps {
		t.Errorf("stats lost updates: %d gets, want %d", got, readers*steps+steps)
	}
	if st.Hits+st.Misses != st.Gets {
		t.Errorf("hits %d + misses %d != gets %d", st.Hits, st.Misses, st.Gets)
	}
	if n := pool.Pinned(); n != 0 {
		t.Errorf("%d pages pinned after the run", n)
	}
}
