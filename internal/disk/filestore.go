package disk

import (
	"fmt"
	"sync"
)

// FileStore is the page file under a RecoverableStore: checksummed
// page slots in an operating-system file. The file starts with a
// 64-byte superblock; page i then lives in slot i at byte offset
// superblockLen + (i-1)*(pageHeaderLen+pageSize). Every slot carries
// a CRC32C-checksummed header (page id, LSN), so Read detects torn
// writes, bit rot and misdirected writes and reports them as
// *ChecksumError rather than returning wrong bytes.
//
// PageSize is the logical payload size: callers see pages of exactly
// the size they asked for; the header is internal.
//
// Slots are written only by WriteLSN and FreeLSN, which apply a
// committed batch; Allocate reserves an id in memory. The allocation
// state is kept in memory during a session and rebuilt from a header
// scan when the file is opened.
type FileStore struct {
	mu        sync.Mutex
	f         File
	path      string
	pageSize  int // payload bytes per page
	next      PageID
	freeList  []PageID
	allocated map[PageID]bool
	corrupt   map[PageID]bool // slots that failed the open-time scan
	lsn       uint64          // highest LSN stamped or seen
	ckptLSN   uint64          // superblock checkpoint LSN
	slot      []byte          // header+page scratch of Read and writeSlot (slotBuf); guarded by mu
	closed    bool
}

// CreateFileStoreFS creates (or truncates) the page file at path and
// writes its superblock durably before returning.
func CreateFileStoreFS(fsys FS, path string, pageSize int) (*FileStore, error) {
	if pageSize < 64 {
		return nil, fmt.Errorf("disk: page size %d too small (minimum 64)", pageSize)
	}
	f, err := fsys.Create(path)
	if err != nil {
		return nil, fmt.Errorf("disk: create %s: %w", path, err)
	}
	// Create has truncated the file before the lock is taken, so a
	// caller creates only a path no store holds (probe.Open creates a
	// path that does not exist).
	if err := lockFile(f, path); err != nil {
		f.Close()
		return nil, err
	}
	s := &FileStore{
		f:         f,
		path:      path,
		pageSize:  pageSize,
		next:      1,
		allocated: make(map[PageID]bool),
		corrupt:   make(map[PageID]bool),
	}
	if err := s.stampSuperblock(0); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// OpenFileStoreFS opens an existing page file, reading the page size
// from the superblock and rebuilding the allocation state (next id,
// free list) from the file size and a full header scan. Slots whose
// checksum fails are recorded as corrupt: they count as allocated,
// reading them returns *ChecksumError, and CorruptPages exposes them
// so a recovery layer can decide whether its log repairs them. A
// trailing partial slot (a torn file extension) is truncated away.
func OpenFileStoreFS(fsys FS, path string) (*FileStore, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("disk: open %s: %w", path, err)
	}
	if err := lockFile(f, path); err != nil {
		f.Close()
		return nil, err
	}
	s, err := openScan(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func openScan(f File, path string) (*FileStore, error) {
	sb := make([]byte, superblockLen)
	size, err := f.Size()
	if err != nil {
		return nil, fmt.Errorf("disk: stat %s: %w", path, err)
	}
	if size < superblockLen {
		return nil, &ChecksumError{Path: path, Reason: "file too small for superblock"}
	}
	if err := readFull(f, sb, 0); err != nil {
		return nil, fmt.Errorf("disk: %s: %w", path, err)
	}
	pageSize, ckptLSN, err := decodeSuperblock(path, sb)
	if err != nil {
		return nil, err
	}
	if pageSize < 64 {
		return nil, &ChecksumError{Path: path, Reason: fmt.Sprintf("implausible page size %d", pageSize)}
	}
	s := &FileStore{
		f:         f,
		path:      path,
		pageSize:  pageSize,
		next:      1,
		allocated: make(map[PageID]bool),
		corrupt:   make(map[PageID]bool),
		ckptLSN:   ckptLSN,
		lsn:       ckptLSN,
	}
	slot := int64(pageHeaderLen + pageSize)
	n := (size - superblockLen) / slot
	if rem := superblockLen + n*slot; rem != size {
		// Torn extension: drop the partial trailing slot.
		if err := f.Truncate(rem); err != nil {
			return nil, fmt.Errorf("disk: %s: truncate torn tail: %w", path, err)
		}
	}
	for i := int64(1); i <= n; i++ {
		id, buf := PageID(i), s.slotBuf()
		if err := readFull(f, buf, s.offset(id)); err != nil {
			return nil, fmt.Errorf("disk: %s: scan page %d: %w", path, id, err)
		}
		crc, hdrID, lsn := decodePageHeader(buf)
		switch {
		case isZero(buf[:pageHeaderLen]):
			// Never written: a free slot.
			s.freeList = append(s.freeList, id)
		case crc == pageCRC(buf) && hdrID == id && lsn > 0:
			s.allocated[id] = true
			s.lsn = max(s.lsn, lsn)
		case crc == pageCRC(buf) && (hdrID == 0 || hdrID == id):
			// A free stamp, or a slot stamped with its own id and LSN 0.
			// Every checkpointed image carries an LSN >= 1, so only an
			// older build's eager allocation stamp writes the latter: an
			// allocation no checkpoint committed, free as well.
			s.freeList = append(s.freeList, id)
			s.lsn = max(s.lsn, lsn)
		default:
			// Torn or corrupted slot: occupied but unreadable.
			s.allocated[id] = true
			s.corrupt[id] = true
		}
	}
	s.next = PageID(n + 1)
	// Reverse the free list so low ids are reused first (scan order
	// pushes ascending; allocation pops from the tail).
	for i, j := 0, len(s.freeList)-1; i < j; i, j = i+1, j-1 {
		s.freeList[i], s.freeList[j] = s.freeList[j], s.freeList[i]
	}
	return s, nil
}

// stampSuperblock durably rewrites the superblock with the given
// checkpoint LSN. The caller holds s.mu (or the store is private).
func (s *FileStore) stampSuperblock(ckptLSN uint64) error {
	if _, err := s.f.WriteAt(encodeSuperblock(s.pageSize, ckptLSN), 0); err != nil {
		return fmt.Errorf("disk: %s: write superblock: %w", s.path, err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("disk: %s: sync superblock: %w", s.path, err)
	}
	s.ckptLSN = ckptLSN
	return nil
}

// StampCheckpoint durably records that every page write with LSN <=
// lsn has reached the file (the final step of a checkpoint).
func (s *FileStore) StampCheckpoint(lsn uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stampSuperblock(lsn)
}

// CheckpointLSN returns the superblock's checkpoint LSN.
func (s *FileStore) CheckpointLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckptLSN
}

// MaxLSN returns the highest LSN stamped on any page so far (including
// LSNs observed during the open scan).
func (s *FileStore) MaxLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lsn
}

// CorruptPages returns the pages whose slots failed verification
// during the open-time scan, in ascending order.
func (s *FileStore) CorruptPages() []PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PageID, 0, len(s.corrupt))
	for id := range s.corrupt {
		out = append(out, id)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// SyncData flushes the page file to stable storage.
func (s *FileStore) SyncData() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("disk: %s: sync: %w", s.path, err)
	}
	return nil
}

// Close flushes and closes the underlying file. Close is idempotent:
// the second and later calls return nil.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return fmt.Errorf("disk: %s: sync on close: %w", s.path, err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("disk: %s: close: %w", s.path, err)
	}
	return nil
}

// PageSize returns the payload bytes per page.
func (s *FileStore) PageSize() int { return s.pageSize }

// slotBuf returns the slot scratch, made at its first use: a superblock
// is trusted with the page size only once the file holds a slot of it
// or a page is written. The caller holds s.mu (or the store is private).
func (s *FileStore) slotBuf() []byte {
	if s.slot == nil {
		s.slot = make([]byte, pageHeaderLen+s.pageSize)
	}
	return s.slot
}

func (s *FileStore) offset(id PageID) int64 {
	return superblockLen + int64(id-1)*int64(pageHeaderLen+s.pageSize)
}

// writeSlot stamps and writes a full slot (a nil payload: a zero page).
// The caller holds s.mu.
func (s *FileStore) writeSlot(id PageID, hdrID PageID, lsn uint64, payload []byte) error {
	slot := s.slotBuf()
	n := copy(slot[pageHeaderLen:], payload)
	clear(slot[pageHeaderLen+n:])
	encodePageHeader(slot, hdrID, lsn)
	if _, err := s.f.WriteAt(slot, s.offset(id)); err != nil {
		return fmt.Errorf("disk: %s: write page %d: %w", s.path, id, err)
	}
	if lsn > s.lsn {
		s.lsn = lsn
	}
	return nil
}

// Allocate reserves a page id: the slot freed last, else the next slot
// past the file's end. It writes nothing: the slot is first written
// when a checkpoint applies the batch that names the id.
func (s *FileStore) Allocate() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var id PageID
	if n := len(s.freeList); n > 0 {
		id, s.freeList = s.freeList[n-1], s.freeList[:n-1]
	} else {
		if s.next == 0 {
			return InvalidPage, fmt.Errorf("disk: page ids exhausted")
		}
		id = s.next
		s.next++
	}
	s.allocated[id] = true
	return id, nil
}

// allocateExact marks a specific page id allocated without writing it,
// taking it off the free list or growing the id range to it. Applying
// a batch calls it before each image's WriteLSN: recovery and a replica
// open the page file afresh, so the file has not allocated an id the
// batch's epoch reserved. Ordinary callers use Allocate.
func (s *FileStore) allocateExact(id PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == InvalidPage {
		return fmt.Errorf("disk: allocateExact of invalid page")
	}
	if s.allocated[id] {
		return nil
	}
	for s.next <= id {
		s.freeList = append(s.freeList, s.next)
		s.next++
	}
	for i, fid := range s.freeList {
		if fid == id {
			s.freeList = append(s.freeList[:i], s.freeList[i+1:]...)
			break
		}
	}
	s.allocated[id] = true
	return nil
}

// Read copies the page's payload into buf (len PageSize). A slot that
// fails verification returns a *ChecksumError.
func (s *FileStore) Read(id PageID, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.allocated[id] {
		return fmt.Errorf("disk: read of unallocated page %d", id)
	}
	if len(buf) != s.pageSize {
		return fmt.Errorf("disk: read buffer has %d bytes, want %d", len(buf), s.pageSize)
	}
	slot := s.slotBuf()
	if err := readFull(s.f, slot, s.offset(id)); err != nil {
		return fmt.Errorf("disk: %s: read page %d: %w", s.path, id, err)
	}
	crc, hdrID, _ := decodePageHeader(slot)
	if crc != pageCRC(slot) {
		return &ChecksumError{Path: s.path, Page: id, Reason: "crc mismatch"}
	}
	if hdrID != id {
		return &ChecksumError{Path: s.path, Page: id, Reason: fmt.Sprintf("slot stamped with page %d", hdrID)}
	}
	copy(buf, slot[pageHeaderLen:])
	return nil
}

// WriteLSN writes the page stamping an explicit LSN: the log record's
// LSN during checkpoint apply, recovery and replica apply.
func (s *FileStore) WriteLSN(id PageID, buf []byte, lsn uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.allocated[id] {
		return fmt.Errorf("disk: write of unallocated page %d", id)
	}
	if len(buf) != s.pageSize {
		return fmt.Errorf("disk: write buffer has %d bytes, want %d", len(buf), s.pageSize)
	}
	if err := s.writeSlot(id, id, lsn, buf); err != nil {
		return err
	}
	delete(s.corrupt, id)
	return nil
}

// FreeLSN frees the page, stamping the slot with an explicit free
// marker (header page id 0) carrying lsn — the free's log record LSN
// during checkpoint apply and recovery. The stamp matters: a free
// applied from a batch that later proves unreadable must be as visible
// to the checkpoint-LSN verification as any page write, or it would
// silently erase state the last checkpoint still vouches for. The
// payload is zeroed so reallocation hands out a clean page.
func (s *FileStore) FreeLSN(id PageID, lsn uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.allocated[id] {
		return fmt.Errorf("disk: free of unallocated page %d", id)
	}
	if err := s.writeSlot(id, 0, lsn, nil); err != nil {
		return err
	}
	delete(s.allocated, id)
	delete(s.corrupt, id)
	s.freeList = append(s.freeList, id)
	return nil
}

// isAllocated reports whether the page is currently allocated.
func (s *FileStore) isAllocated(id PageID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.allocated[id]
}

// NumPages returns the number of allocated pages.
func (s *FileStore) NumPages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.allocated)
}

// slots returns the page file's slots, allocated or free, counting
// those reserved past the file's end since the last checkpoint.
func (s *FileStore) slots() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.next - 1)
}
