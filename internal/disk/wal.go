package disk

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
)

// The write-ahead log is an append-only sequence of physical records:
//
//	file   = header record*
//	header = [magic "ZKDWAL01" 8B][version u32][crc u32 over 0..12]
//	record = [crc u32][kind u8][page u32][lsn u64][len u32][payload]
//
// A record's CRC32C covers everything after the crc field. A log is
// one checkpoint batch: its frees (RecFree), its page images (RecPage)
// and one RecCommit as the final record. Replay also applies
// allocation records (RecAlloc). Reset truncates the log back to its
// header after the batch has been applied to the page file, so a log
// never holds more than one committed batch.
//
// Group fsync: Append only writes into the OS page cache; Sync makes
// everything appended so far durable with a single fsync. A batch of
// any size therefore costs one fsync at its commit point.
const (
	walMagic     = "ZKDWAL01"
	walVersion   = 1
	walHeaderLen = 16
	recHeaderLen = 4 + 1 + 4 + 8 + 4
	// maxWALPayload bounds a record's declared payload length during
	// replay, so a corrupted length field cannot force a huge
	// allocation.
	maxWALPayload = 1 << 26
)

// RecordKind is the type tag of a WAL record.
type RecordKind uint8

const (
	// RecPage is a full physical page image.
	RecPage RecordKind = 1
	// RecAlloc records a page allocation.
	RecAlloc RecordKind = 2
	// RecFree records a page free.
	RecFree RecordKind = 3
	// RecCommit seals a checkpoint batch. Its payload is
	// [record count u32][max LSN u64]; the count must match the
	// number of records preceding it for the batch to be considered
	// committed.
	RecCommit RecordKind = 4
)

// String implements fmt.Stringer.
func (k RecordKind) String() string {
	switch k {
	case RecPage:
		return "page"
	case RecAlloc:
		return "alloc"
	case RecFree:
		return "free"
	case RecCommit:
		return "commit"
	}
	return fmt.Sprintf("RecordKind(%d)", uint8(k))
}

// WALRecord is one decoded log record.
type WALRecord struct {
	Kind    RecordKind
	Page    PageID
	LSN     uint64
	Payload []byte
}

// EncodeWALRecord serializes a record, including its checksum.
func EncodeWALRecord(rec WALRecord) []byte {
	buf := make([]byte, recHeaderLen+len(rec.Payload))
	buf[4] = byte(rec.Kind)
	binary.LittleEndian.PutUint32(buf[5:9], uint32(rec.Page))
	binary.LittleEndian.PutUint64(buf[9:17], rec.LSN)
	binary.LittleEndian.PutUint32(buf[17:21], uint32(len(rec.Payload)))
	copy(buf[recHeaderLen:], rec.Payload)
	crc := crc32.Checksum(buf[4:], castagnoli)
	binary.LittleEndian.PutUint32(buf[0:4], crc)
	return buf
}

// EncodeWALHeader serializes the log file header.
func EncodeWALHeader() []byte {
	h := make([]byte, walHeaderLen)
	copy(h[0:8], walMagic)
	binary.LittleEndian.PutUint32(h[8:12], walVersion)
	crc := crc32.Checksum(h[:12], castagnoli)
	binary.LittleEndian.PutUint32(h[12:16], crc)
	return h
}

// ReplayResult is the outcome of scanning a log.
type ReplayResult struct {
	// Records are the decoded records in log order. When Committed is
	// true the last record is the RecCommit.
	Records []WALRecord
	// Committed reports that the log ends in a valid commit record
	// whose record count matches, i.e. the batch is complete and must
	// be applied.
	Committed bool
	// Truncated reports that scanning stopped at an invalid or
	// incomplete record before the end of the data — a torn tail. The
	// records before TailOffset are still valid.
	Truncated bool
	// TailOffset is the byte offset at which scanning stopped.
	TailOffset int64
}

// ReplayWAL scans raw log bytes and returns the valid record prefix.
// It never panics on arbitrary input.
//
// Classification: an empty or header-truncated file is an empty log
// (a crash during log reset); a syntactically invalid record ends the
// valid prefix as a torn tail (Truncated), because records past an
// unsynced hole are indistinguishable from garbage; bytes following a
// valid commit record, or a corrupt header of full length, are
// corruption (*ChecksumError) — they cannot result from any crash of
// the logging protocol. Whether discarding a torn tail is safe is
// decided by the caller against the page file (see RecoverStore).
func ReplayWAL(path string, data []byte) (ReplayResult, error) {
	var res ReplayResult
	if len(data) < walHeaderLen {
		// A torn header write during create/reset; the log holds
		// nothing.
		res.TailOffset = int64(len(data))
		res.Truncated = len(data) > 0
		return res, nil
	}
	if string(data[0:8]) != walMagic {
		return res, &ChecksumError{Path: path, Reason: "bad WAL magic"}
	}
	want := binary.LittleEndian.Uint32(data[12:16])
	if got := crc32.Checksum(data[:12], castagnoli); got != want {
		return res, &ChecksumError{Path: path, Reason: "WAL header crc mismatch"}
	}
	off := int64(walHeaderLen)
	n := int64(len(data))
	for off < n {
		if res.Committed {
			return ReplayResult{}, &ChecksumError{Path: path, Reason: "bytes after commit record"}
		}
		if n-off < recHeaderLen {
			res.Truncated, res.TailOffset = true, off
			return res, nil
		}
		rec := data[off:]
		payloadLen := int64(binary.LittleEndian.Uint32(rec[17:21]))
		if payloadLen > maxWALPayload || off+recHeaderLen+payloadLen > n {
			res.Truncated, res.TailOffset = true, off
			return res, nil
		}
		end := recHeaderLen + payloadLen
		want := binary.LittleEndian.Uint32(rec[0:4])
		if got := crc32.Checksum(rec[4:end], castagnoli); got != want {
			res.Truncated, res.TailOffset = true, off
			return res, nil
		}
		kind := RecordKind(rec[4])
		r := WALRecord{
			Kind:    kind,
			Page:    PageID(binary.LittleEndian.Uint32(rec[5:9])),
			LSN:     binary.LittleEndian.Uint64(rec[9:17]),
			Payload: append([]byte(nil), rec[recHeaderLen:end]...),
		}
		switch kind {
		case RecPage, RecAlloc, RecFree:
		case RecCommit:
			count, _, ok := decodeCommitPayload(r.Payload)
			if !ok || int(count) != len(res.Records) {
				res.Truncated, res.TailOffset = true, off
				return res, nil
			}
			res.Committed = true
		default:
			res.Truncated, res.TailOffset = true, off
			return res, nil
		}
		res.Records = append(res.Records, r)
		off += end
	}
	res.TailOffset = off
	return res, nil
}

// EncodeCommitPayload serializes a commit record's payload: the
// record count of its batch and the batch's max LSN.
func EncodeCommitPayload(count uint32, maxLSN uint64) []byte {
	p := make([]byte, 12)
	binary.LittleEndian.PutUint32(p[0:4], count)
	binary.LittleEndian.PutUint64(p[4:12], maxLSN)
	return p
}

func decodeCommitPayload(p []byte) (count uint32, maxLSN uint64, ok bool) {
	if len(p) != 12 {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint32(p[0:4]), binary.LittleEndian.Uint64(p[4:12]), true
}

// WAL is an open write-ahead log.
type WAL struct {
	mu      sync.Mutex
	f       File
	path    string
	size    int64 // end of the valid log
	records int   // records appended since the last reset
	appends uint64
	syncs   uint64
}

// CreateWAL creates (or truncates) the log at path and durably writes
// its header.
func CreateWAL(fsys FS, path string) (*WAL, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, fmt.Errorf("disk: create wal %s: %w", path, err)
	}
	w := &WAL{f: f, path: path}
	if err := w.writeHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// openWAL opens an existing log and returns its raw bytes for replay.
// The returned WAL is positioned at the end of the raw bytes; callers
// normally Reset it after applying the replayed batch.
func openWAL(fsys FS, path string) (*WAL, []byte, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("disk: open wal %s: %w", path, err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("disk: stat wal %s: %w", path, err)
	}
	data := make([]byte, size)
	if size > 0 {
		if err := readFull(f, data, 0); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("disk: read wal %s: %w", path, err)
		}
	}
	return &WAL{f: f, path: path, size: size}, data, nil
}

// writeHeader truncates the file and durably writes a fresh header.
// The caller holds w.mu (or the WAL is private).
func (w *WAL) writeHeader() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("disk: wal %s: truncate: %w", w.path, err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("disk: wal %s: sync truncate: %w", w.path, err)
	}
	if _, err := w.f.WriteAt(EncodeWALHeader(), 0); err != nil {
		return fmt.Errorf("disk: wal %s: write header: %w", w.path, err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("disk: wal %s: sync header: %w", w.path, err)
	}
	w.size = walHeaderLen
	w.records = 0
	return nil
}

// Append writes a record at the log's tail. The record is not durable
// until the next Sync.
func (w *WAL) Append(rec WALRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf := EncodeWALRecord(rec)
	if _, err := w.f.WriteAt(buf, w.size); err != nil {
		return fmt.Errorf("disk: wal %s: append: %w", w.path, err)
	}
	w.size += int64(len(buf))
	w.records++
	w.appends++
	return nil
}

// AppendCommit appends the batch's commit record sealing the records
// appended since the last reset.
func (w *WAL) AppendCommit(maxLSN uint64) error {
	w.mu.Lock()
	count := uint32(w.records)
	w.mu.Unlock()
	return w.Append(WALRecord{Kind: RecCommit, Payload: EncodeCommitPayload(count, maxLSN)})
}

// Sync makes every appended record durable: the group fsync at a
// batch's commit point.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("disk: wal %s: sync: %w", w.path, err)
	}
	w.syncs++
	return nil
}

// Reset durably truncates the log back to an empty header, after its
// batch has been applied to the page file.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writeHeader()
}

// Records returns the number of records appended since the last
// reset.
func (w *WAL) Records() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Appends returns the lifetime count of appended records.
func (w *WAL) Appends() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appends
}

// Syncs returns the lifetime count of fsyncs issued.
func (w *WAL) Syncs() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncs
}

// Close closes the log file without syncing it.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	if err != nil {
		return fmt.Errorf("disk: wal %s: close: %w", w.path, err)
	}
	return nil
}
