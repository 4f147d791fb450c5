package disk

import (
	"fmt"
	"sort"
	"sync"
)

// RecoverableStore is a crash-safe Store: a page file of checksummed
// slots (FileStore) guarded by a write-ahead log.
//
// Protocol (redo-only, no-force): Write, Allocate and Free touch
// neither the log nor the page file. They keep the latest image per
// page (an allocated page not yet written: a marker) and the pages
// freed since the last checkpoint in an in-memory delta; Allocate
// reserves its id in memory. Checkpoint is the commit point:
//
//  1. write the delta to the WAL in one write as one batch — the final
//     frees, then the latest images, each in page order, then a commit
//     record (EncodeSegment) — and group-fsync the WAL;
//  2. apply the same batch to the page file, by the apply path
//     recovery replays the log with;
//  3. fsync the page file;
//  4. durably stamp the superblock's checkpoint LSN;
//  5. reset the WAL and clear the delta.
//
// Every id taken in an epoch is in its batch, as an image, a zero
// image or a free, so step 2 writes every slot the epoch allocated.
// A page freed since the last checkpoint is reused before the file
// grows, whether or not the last checkpoint references it: reuse only
// fills the delta, so until the next commit the slot still holds what
// the last checkpoint left there.
//
// A crash before step 1's fsync loses at most the un-checkpointed
// delta: the page file still holds the previous checkpoint exactly,
// and the ids the epoch reserved past its end do not exist. A crash
// after it is repaired by RecoverStore replaying the committed batch
// (idempotently) onto the page file. Because the page file is written
// only under a committed log, the classic WAL invariant — no page
// reaches the store before its log record is durable — holds by
// construction.
//
// Error handling is strict: once an allocation runs out of page ids,
// or a WAL write, a WAL sync or a checkpoint apply fails, the store
// refuses further writes and checkpoints with the sticky first error
// (the lesson of the fsync-error studies: an I/O error during the
// commit protocol leaves on-disk state unknown, so the only safe
// continuation is recovery from the log). Reads stay available.
// Reopen with RecoverStore to resume.
type RecoverableStore struct {
	mu          sync.Mutex
	fs          *FileStore
	wal         *WAL
	delta       map[PageID]deltaPage
	pendingFree map[PageID]uint64 // freed page -> LSN of its free
	reusable    []PageID          // pendingFree's members, in free order
	lsn         uint64
	failed      error
	ckptHook    func(Segment, []byte) // log shipping: observes each completed batch and its log bytes

	walAppends  uint64
	walSyncs    uint64
	checkpoints uint64
	pageWrites  uint64
	pagesReused uint64
}

// deltaPage is a page's latest image and the LSN of its last change;
// a nil img marks a page allocated and not yet written, which reads
// as zeros.
type deltaPage struct {
	lsn uint64
	img []byte
}

// DurabilityStats counts the durability work a RecoverableStore has
// performed.
type DurabilityStats struct {
	// WALAppends is the number of records appended to the log (a
	// checkpoint writes its batch's records and commit in one write).
	WALAppends uint64
	// WALSyncs is the number of group fsyncs issued on the log.
	WALSyncs uint64
	// Checkpoints is the number of completed checkpoints.
	Checkpoints uint64
	// PageWrites is the page-file slots checkpoints have written: one
	// per page image and one per free stamp.
	PageWrites uint64
	// FilePages is the page file's slots, allocated or free; LivePages
	// is how many hold a live page. The ratio is space amplification.
	FilePages, LivePages int
	// PagesReused counts allocations served by a page freed earlier in
	// the same checkpoint epoch.
	PagesReused uint64
}

// RecoveryInfo describes what RecoverStore found and did.
type RecoveryInfo struct {
	// Committed reports that the log held a complete committed batch
	// that was replayed onto the page file.
	Committed bool
	// RecordsReplayed is the number of valid log records scanned.
	RecordsReplayed int
	// PagesRecovered is the number of page images applied.
	PagesRecovered int
	// TornTail reports that the log ended in an incomplete record (a
	// crash mid-append), which was discarded.
	TornTail bool
}

// walPath returns the log path paired with a store path.
func walPath(path string) string { return path + ".wal" }

// CreateRecoverableStore creates a new store (page file plus WAL) at
// path. The WAL lives beside it at path+".wal".
func CreateRecoverableStore(fsys FS, path string, pageSize int) (*RecoverableStore, error) {
	fs, err := CreateFileStoreFS(fsys, path, pageSize)
	if err != nil {
		return nil, err
	}
	wal, err := CreateWAL(fsys, walPath(path))
	if err != nil {
		fs.Close()
		return nil, err
	}
	return newRecoverable(fs, wal), nil
}

func newRecoverable(fs *FileStore, wal *WAL) *RecoverableStore {
	return &RecoverableStore{
		fs:          fs,
		wal:         wal,
		delta:       make(map[PageID]deltaPage),
		pendingFree: make(map[PageID]uint64),
		lsn:         fs.MaxLSN(),
	}
}

// RecoverStore reopens the store at path after a crash or a clean
// close; the two are indistinguishable and handled identically, so
// recovery is idempotent — running it again on the result is a no-op.
//
// If the log ends in a committed batch, the batch is replayed onto
// the page file (repairing any torn checkpoint writes), the file is
// synced and stamped, and the log is reset. Otherwise the
// un-committed log tail is discarded — but only after verifying the
// page file really is the previous checkpoint: every page checksum
// must hold and no page may carry an LSN above the superblock's
// checkpoint LSN. A page file that fails that verification without a
// committed log to repair it is a double fault (e.g. a corrupted log
// and a torn checkpoint) and surfaces as *ChecksumError rather than
// silently wrong data.
func RecoverStore(fsys FS, path string) (*RecoverableStore, RecoveryInfo, error) {
	var info RecoveryInfo
	fs, err := OpenFileStoreFS(fsys, path)
	if err != nil {
		return nil, info, err
	}
	wp := walPath(path)
	var (
		wal     *WAL
		raw     []byte
		res     ReplayResult
		walErr  error
		missing bool
	)
	if _, exists, err := fsys.Stat(wp); err != nil {
		fs.Close()
		return nil, info, fmt.Errorf("disk: stat wal %s: %w", wp, err)
	} else if !exists {
		missing = true
	}
	if missing {
		wal, walErr = CreateWAL(fsys, wp)
		if walErr != nil {
			fs.Close()
			return nil, info, walErr
		}
	} else {
		wal, raw, walErr = openWAL(fsys, wp)
		if walErr != nil {
			fs.Close()
			return nil, info, walErr
		}
		res, walErr = ReplayWAL(wp, raw)
	}
	info.RecordsReplayed = len(res.Records)
	info.TornTail = res.Truncated

	rs := newRecoverable(fs, wal)
	if res.Committed {
		seg := committedSegment(res.Records)
		n, _, err := applyRecords(fs, wp, seg.Records)
		if err != nil {
			rs.Close()
			return nil, info, err
		}
		info.Committed = true
		info.PagesRecovered = n
		if rem := fs.CorruptPages(); len(rem) > 0 {
			rs.Close()
			return nil, info, &ChecksumError{Path: path, Page: rem[0],
				Reason: fmt.Sprintf("%d pages unreadable after log replay", len(rem))}
		}
		if err := fs.SyncData(); err != nil {
			rs.Close()
			return nil, info, err
		}
		if err := fs.StampCheckpoint(seg.MaxLSN); err != nil {
			rs.Close()
			return nil, info, err
		}
		if err := wal.Reset(); err != nil {
			rs.Close()
			return nil, info, err
		}
	} else {
		// No committed batch: the page file must be exactly the last
		// checkpoint, or nothing can vouch for it.
		if corrupt := fs.CorruptPages(); len(corrupt) > 0 {
			rs.Close()
			return nil, info, &ChecksumError{Path: path, Page: corrupt[0],
				Reason: fmt.Sprintf("%d torn or corrupt pages with no committed log to repair them", len(corrupt))}
		}
		if fs.MaxLSN() > fs.CheckpointLSN() {
			rs.Close()
			return nil, info, &ChecksumError{Path: path,
				Reason: fmt.Sprintf("page LSN %d beyond checkpoint LSN %d with no committed log", fs.MaxLSN(), fs.CheckpointLSN())}
		}
		if walErr != nil {
			// The log itself was corrupt, but the page file verified
			// clean: the previous checkpoint is intact and the log
			// held nothing committed. Start it fresh.
			walErr = nil
		}
		if err := wal.Reset(); err != nil {
			rs.Close()
			return nil, info, err
		}
	}
	rs.lsn = fs.MaxLSN()
	if ck := fs.CheckpointLSN(); ck > rs.lsn {
		rs.lsn = ck
	}
	return rs, info, nil
}

// applyRecords applies a batch to a page file in log order: a free
// frees its page if it is allocated, an image allocates its slot and
// writes it. It is the one apply path of the checkpoint, crash
// recovery and replica log shipping (ApplyWALSegment), and returns the
// number of images applied and of slots written, the images and the
// frees stamped; name labels errors with the batch's source. A batch
// names each page at most once, so its order does not change the
// result, and applying it again changes nothing.
func applyRecords(fs *FileStore, name string, recs []WALRecord) (images, writes int, err error) {
	for _, rec := range recs {
		switch rec.Kind {
		case RecFree:
			if fs.isAllocated(rec.Page) {
				if err := fs.FreeLSN(rec.Page, rec.LSN); err != nil {
					return 0, 0, err
				}
				writes++
			}
		case RecPage:
			if len(rec.Payload) != fs.PageSize() {
				return 0, 0, &ChecksumError{Path: name, Page: rec.Page,
					Reason: fmt.Sprintf("log image has %d bytes, page size is %d", len(rec.Payload), fs.PageSize())}
			}
			if err := fs.allocateExact(rec.Page); err != nil {
				return 0, 0, err
			}
			if err := fs.WriteLSN(rec.Page, rec.Payload, rec.LSN); err != nil {
				return 0, 0, err
			}
			images++
			writes++
		}
	}
	return images, writes, nil
}

// fail records the store's first fatal error and returns it.
func (s *RecoverableStore) fail(err error) error {
	if s.failed == nil {
		s.failed = fmt.Errorf("disk: store needs recovery: %w", err)
	}
	return err
}

// PageSize implements Store.
func (s *RecoverableStore) PageSize() int { return s.fs.PageSize() }

// Allocate implements Store. It picks an id in memory: the page freed
// last in this epoch, else the page file's free list, else the next
// slot. A marker joins the delta, so the page reads as zeros and the
// next checkpoint logs a zero image unless a Write replaces it; the
// slot is first written when that checkpoint applies its batch.
func (s *RecoverableStore) Allocate() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return InvalidPage, s.failed
	}
	var id PageID
	if n := len(s.reusable); n > 0 {
		id, s.reusable = s.reusable[n-1], s.reusable[:n-1]
		delete(s.pendingFree, id)
		s.pagesReused++
	} else {
		var err error
		if id, err = s.fs.Allocate(); err != nil {
			// Out of page ids. Sticky like every write-path failure: the
			// caller (a B+-tree split, say) may be mid-mutation.
			return InvalidPage, s.fail(err)
		}
	}
	s.lsn++
	s.delta[id] = deltaPage{lsn: s.lsn}
	return id, nil
}

// Read implements Store: the un-checkpointed delta first, then the
// verified page file.
func (s *RecoverableStore) Read(id PageID, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(buf) != s.fs.PageSize() {
		return fmt.Errorf("disk: read buffer has %d bytes, want %d", len(buf), s.fs.PageSize())
	}
	if _, freed := s.pendingFree[id]; freed {
		return fmt.Errorf("disk: read of freed page %d", id)
	}
	if dp, ok := s.delta[id]; ok {
		clear(buf[copy(buf, dp.img):])
		return nil
	}
	return s.fs.Read(id, buf)
}

// Write implements Store: a copy of the image is retained in the delta;
// the log and the page file are untouched until the next checkpoint.
func (s *RecoverableStore) Write(id PageID, buf []byte) error {
	return s.write(id, buf, false)
}

// WriteImage is Write for an image the caller will never change again,
// such as one a Pool caches: the delta keeps img itself, not a copy.
func (s *RecoverableStore) WriteImage(id PageID, img []byte) error {
	return s.write(id, img, true)
}

// write retains buf, or a copy of it unless keep, as page id's image.
// An image already in the delta is replaced, never written into: it
// may be an image the caller kept.
func (s *RecoverableStore) write(id PageID, buf []byte, keep bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	if len(buf) != s.fs.PageSize() {
		return fmt.Errorf("disk: write buffer has %d bytes, want %d", len(buf), s.fs.PageSize())
	}
	if _, freed := s.pendingFree[id]; freed {
		return fmt.Errorf("disk: write of freed page %d", id)
	}
	if !s.fs.isAllocated(id) {
		return fmt.Errorf("disk: write of unallocated page %d", id)
	}
	if !keep {
		buf = append([]byte(nil), buf...)
	}
	s.lsn++
	s.delta[id] = deltaPage{lsn: s.lsn, img: buf}
	return nil
}

// Free implements Store. The free is deferred: the page file slot
// keeps its last checkpointed contents until the next checkpoint
// commits, so a crash cannot destroy state the previous checkpoint
// still references. Allocate may hand the page out again at once:
// reuse does not touch the slot either.
func (s *RecoverableStore) Free(id PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	if _, freed := s.pendingFree[id]; freed {
		return fmt.Errorf("disk: free of freed page %d", id)
	}
	if !s.fs.isAllocated(id) {
		return fmt.Errorf("disk: free of unallocated page %d", id)
	}
	s.lsn++
	delete(s.delta, id)
	s.pendingFree[id] = s.lsn
	s.reusable = append(s.reusable, id)
	return nil
}

// Checkpoint makes every write so far durable (the commit point of
// the protocol above). It is cheap when nothing changed.
func (s *RecoverableStore) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	if len(s.delta) == 0 && len(s.pendingFree) == 0 {
		return nil
	}
	// Compact the delta into the batch: the final free set, then the
	// latest image per changed page (zeros for a page never written),
	// each in page order. The log takes it first in one write, then the
	// page file by the apply path of recovery and replicas, and the hook
	// ships the bytes the log took: the delta is replaced below and the
	// log keeps no reference to them, so nothing changes under it.
	seg := Segment{MaxLSN: s.lsn, Records: make([]WALRecord, 0, len(s.pendingFree)+len(s.delta))}
	for id, lsn := range s.pendingFree {
		seg.Records = append(seg.Records, WALRecord{Kind: RecFree, Page: id, LSN: lsn})
	}
	frees := len(seg.Records)
	var zero []byte
	for id, dp := range s.delta {
		if dp.img == nil {
			if zero == nil {
				zero = make([]byte, s.fs.PageSize())
			}
			dp.img = zero
		}
		seg.Records = append(seg.Records, WALRecord{Kind: RecPage, Page: id, LSN: dp.lsn, Payload: dp.img})
	}
	for _, recs := range [][]WALRecord{seg.Records[:frees], seg.Records[frees:]} {
		sort.Slice(recs, func(i, j int) bool { return recs[i].Page < recs[j].Page })
	}
	enc := EncodeSegment(seg)
	if err := s.wal.appendBatch(enc); err != nil {
		return s.fail(err)
	}
	s.walAppends += uint64(len(seg.Records)) + 1 // the records and the commit
	if err := s.wal.Sync(); err != nil {
		return s.fail(err)
	}
	s.walSyncs++
	_, writes, err := applyRecords(s.fs, s.wal.path, seg.Records)
	if err != nil {
		return s.fail(err)
	}
	s.pageWrites += uint64(writes)
	if err := s.fs.SyncData(); err != nil {
		return s.fail(err)
	}
	if err := s.fs.StampCheckpoint(seg.MaxLSN); err != nil {
		return s.fail(err)
	}
	if err := s.wal.Reset(); err != nil {
		return s.fail(err)
	}
	s.delta = make(map[PageID]deltaPage)
	s.pendingFree = make(map[PageID]uint64)
	s.reusable = s.reusable[:0]
	s.checkpoints++
	if s.ckptHook != nil {
		s.ckptHook(seg, enc)
	}
	return nil
}

// NumPages implements Store.
func (s *RecoverableStore) NumPages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fs.NumPages() - len(s.pendingFree)
}

// DurabilityStats returns the store's durability counters.
func (s *RecoverableStore) DurabilityStats() DurabilityStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return DurabilityStats{
		WALAppends:  s.walAppends,
		WALSyncs:    s.walSyncs,
		Checkpoints: s.checkpoints,
		PageWrites:  s.pageWrites,
		FilePages:   s.fs.slots(),
		LivePages:   s.fs.NumPages() - len(s.pendingFree),
		PagesReused: s.pagesReused,
	}
}

// Failed returns the sticky error that froze the store, if any.
func (s *RecoverableStore) Failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// Close closes the page file and the log. It does NOT checkpoint:
// un-checkpointed writes are discarded by design (they were never
// acknowledged). Call Checkpoint first for a durable clean shutdown.
// Close is idempotent.
func (s *RecoverableStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.fs.Close()
	if werr := s.wal.Close(); err == nil {
		err = werr
	}
	return err
}
