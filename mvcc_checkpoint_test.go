package probe_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"probe"
)

// TestCloseWhileSnapshotReading exercises the Close half of the MVCC
// contract: a Close issued while an untraced snapshot read is in
// flight must wait the read out — the read completes against its
// pinned version with no error — and only then release the store;
// reads arriving after Close fail with ErrClosed.
func TestCloseWhileSnapshotReading(t *testing.T) {
	db, err := probe.Open(probe.MustGrid(2, 8), probe.WithLeafCapacity(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := db.Insert(probe.Pt2(uint64(i+1), uint32(i%256), uint32((i*3)%256))); err != nil {
			t.Fatal(err)
		}
	}

	started := make(chan struct{})
	unblock := make(chan struct{})
	readDone := make(chan error, 1)
	var once sync.Once
	go func() {
		n := 0
		_, err := db.RangeSearchFunc(probe.Box2(0, 255, 0, 255), func(probe.Point) bool {
			once.Do(func() { close(started) })
			<-unblock
			n++
			return true
		})
		if err == nil && n != 200 {
			err = fmt.Errorf("streamed %d of 200 points", n)
		}
		readDone <- err
	}()

	<-started
	closeDone := make(chan error, 1)
	go func() { closeDone <- db.Close() }()

	// Close must block behind the in-flight read.
	select {
	case err := <-closeDone:
		t.Fatalf("Close returned (%v) while a snapshot read was still streaming", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(unblock)
	if err := <-readDone; err != nil {
		t.Fatalf("in-flight read failed across Close: %v", err)
	}
	if err := <-closeDone; err != nil {
		t.Fatalf("Close: %v", err)
	}

	// After Close: reads fail fast with ErrClosed, accessors zero.
	if _, _, err := db.RangeSearch(probe.Box2(0, 10, 0, 10)); !errors.Is(err, probe.ErrClosed) {
		t.Fatalf("RangeSearch after Close: %v, want ErrClosed", err)
	}
	if err := db.Scan(func(probe.Point) bool { return true }); !errors.Is(err, probe.ErrClosed) {
		t.Fatalf("Scan after Close: %v, want ErrClosed", err)
	}
	if db.Len() != 0 || db.LeafPages() != 0 {
		t.Fatalf("Len/LeafPages after Close: %d/%d, want 0/0", db.Len(), db.LeafPages())
	}
	if mv := db.MVCCStats(); mv != (probe.MVCCStats{}) {
		t.Fatalf("MVCCStats after Close: %+v, want zero", mv)
	}
}

// TestReadersDoNotStallBehindWriter is the liveness half of the MVCC
// tentpole at the API layer: while a writer holds the write path busy,
// reads, range searches, NEAREST and EXPLAIN, traced or not, keep
// completing — they pin a committed version and never queue behind the
// database mutex. (The experiment harness's
// mixed benchmark quantifies the same property; this test just proves
// it cheaply under -race.)
func TestReadersDoNotStallBehindWriter(t *testing.T) {
	db, err := probe.Open(probe.MustGrid(2, 8), probe.WithLeafCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 500; i++ {
		if err := db.Insert(probe.Pt2(uint64(i+1), uint32(i%256), uint32((i*11)%256))); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	started := make(chan struct{})
	var writerOps int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a writer hammering the write path
		defer wg.Done()
		var once sync.Once
		defer once.Do(func() { close(started) })
		id := uint64(1 << 32)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Insert(probe.Pt2(id, uint32(id%256), uint32(id%251))); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			id++
			writerOps++
			once.Do(func() { close(started) })
		}
	}()
	// On a single-CPU box the read batch below can finish before the
	// writer goroutine is ever scheduled; wait for its first commit so
	// the reads really overlap the write stream.
	<-started

	// Readers must make progress while the writer runs: a fixed batch
	// of reads has to finish long before any plausible serialization
	// schedule would allow.
	reads := 0
	deadline := time.Now().Add(10 * time.Second)
	for reads < 200 && time.Now().Before(deadline) {
		if _, _, err := db.RangeSearch(probe.Box2(0, 127, 0, 127)); err != nil {
			t.Fatalf("read %d: %v", reads, err)
		}
		if _, err := db.Explain(probe.Box2(0, 127, 0, 127)); err != nil {
			t.Fatalf("explain %d: %v", reads, err)
		}
		if _, _, err := db.RangeSearch(probe.Box2(0, 127, 0, 127), probe.WithTrace(probe.NewTrace("r"))); err != nil {
			t.Fatalf("traced read %d: %v", reads, err)
		}
		if _, _, err := db.Nearest([]uint32{64, 64}, 5, probe.Euclidean, probe.WithTrace(probe.NewTrace("n"))); err != nil {
			t.Fatalf("traced nearest %d: %v", reads, err)
		}
		reads++
	}
	close(stop)
	wg.Wait()
	if reads < 200 {
		t.Fatalf("only %d of 200 reads completed while writer ran", reads)
	}
	if writerOps == 0 {
		t.Fatal("writer made no progress")
	}
}
