package disk

import "fmt"

// This file is the physical-replication face of the WAL: a checkpoint
// batch, compacted to its net effect (latest image per page, final
// frees), is a Segment a primary ships to read replicas in the bytes
// its log holds. A replica applies segments in order to a copy of the
// page file with ApplyWALSegment; because the records are physical
// page images, the replica's file converges to byte-identical
// checkpointed state without understanding anything above the page
// layer.

// Segment is one checkpoint batch: the compacted records, each page
// named at most once, and the LSN its commit record carries, which
// the page file's superblock is stamped with after applying them.
// Segments must be applied in MaxLSN order; applying one twice is
// harmless (physical images are idempotent).
type Segment struct {
	MaxLSN  uint64
	Records []WALRecord
}

// SetCheckpointHook installs fn to observe every completed checkpoint
// batch: fn runs inside Checkpoint, after the batch is durable on this
// store, with the compacted segment it applied to the page file and
// the bytes the log took (EncodeSegment's), which fn may keep. The
// primary side of log shipping subscribes here. fn must not call back
// into the store. A nil fn unsubscribes.
func (s *RecoverableStore) SetCheckpointHook(fn func(Segment, []byte)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ckptHook = fn
}

// ApplyWALSegment applies one shipped segment to the page file at
// path: replay, data sync, checkpoint stamp. The file must hold the
// checkpointed state the segment was built against (the primary's
// previous checkpoint); out-of-order segments are rejected by the LSN
// monotonicity check.
func ApplyWALSegment(fsys FS, path string, seg Segment) error {
	fs, err := OpenFileStoreFS(fsys, path)
	if err != nil {
		return err
	}
	defer fs.Close()
	if fs.CheckpointLSN() > seg.MaxLSN {
		return fmt.Errorf("disk: segment max LSN %d behind page file checkpoint %d", seg.MaxLSN, fs.CheckpointLSN())
	}
	if _, _, err := applyRecords(fs, path, seg.Records); err != nil {
		return err
	}
	if err := fs.SyncData(); err != nil {
		return err
	}
	return fs.StampCheckpoint(seg.MaxLSN)
}

// RawImage returns the page file's raw bytes — superblock, headers,
// checksums and all. The caller coordinates quiescence
// (RecoverableStore holds its mutex), under which the bytes are a
// consistent point-in-time copy.
func (s *FileStore) RawImage() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("disk: raw image of closed store %s", s.path)
	}
	size, err := s.f.Size()
	if err != nil {
		return nil, fmt.Errorf("disk: stat %s: %w", s.path, err)
	}
	buf := make([]byte, size)
	if size > 0 {
		if err := readFull(s.f, buf, 0); err != nil {
			return nil, fmt.Errorf("disk: read %s: %w", s.path, err)
		}
	}
	return buf, nil
}

// PageFileImage snapshots the store's checkpointed state: the page
// file bytes (which, under the store mutex, hold exactly the last
// checkpoint — the un-checkpointed delta lives in the WAL and memory)
// and the checkpoint LSN the image is stamped with. The replica
// bootstrap path: write these bytes, then apply segments with MaxLSN
// above the returned LSN.
func (s *RecoverableStore) PageFileImage() ([]byte, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return nil, 0, s.failed
	}
	img, err := s.fs.RawImage()
	if err != nil {
		return nil, 0, err
	}
	return img, s.fs.CheckpointLSN(), nil
}

// CheckpointLSN returns the LSN of the store's last durable
// checkpoint.
func (s *RecoverableStore) CheckpointLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fs.CheckpointLSN()
}

// EncodeSegment serializes a segment in the log's own framing: its
// records (EncodeWALRecord), then the commit record sealing them. A
// log holds exactly these bytes after its header, and the replication
// stream ships them; every record and the commit carry a checksum.
func EncodeSegment(seg Segment) []byte {
	n := recHeaderLen + 12
	for _, rec := range seg.Records {
		n += recHeaderLen + len(rec.Payload)
	}
	b := make([]byte, 0, n)
	for _, rec := range seg.Records {
		b = appendWALRecord(b, rec)
	}
	commit := EncodeCommitPayload(uint32(len(seg.Records)), seg.MaxLSN)
	return appendWALRecord(b, WALRecord{Kind: RecCommit, Payload: commit})
}

// DecodeSegment parses EncodeSegment's bytes with the log's record
// loop. It fails unless they end in a commit record sealing every
// record before it, with nothing after it. It never panics on
// arbitrary input.
func DecodeSegment(data []byte) (Segment, error) {
	res, err := scanRecords("segment", data, 0)
	if err != nil {
		return Segment{}, err
	}
	if !res.Committed {
		return Segment{}, fmt.Errorf("disk: segment is not a committed batch (%d of %d bytes valid)", res.TailOffset, len(data))
	}
	return committedSegment(res.Records), nil
}

// committedSegment splits a committed record list, its commit record
// last, into its batch.
func committedSegment(recs []WALRecord) Segment {
	n := len(recs) - 1
	_, maxLSN, _ := decodeCommitPayload(recs[n].Payload)
	return Segment{MaxLSN: maxLSN, Records: recs[:n]}
}
