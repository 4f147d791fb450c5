package disk_test

import (
	"bytes"
	"errors"
	"testing"

	"probe/internal/disk"
)

// FuzzWALReplay drives ReplayWAL with arbitrary bytes: it must never
// panic, and every input is classified as either a valid record
// prefix (optionally torn at a record boundary) or corruption
// reported as *disk.ChecksumError — never anything else.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(disk.EncodeWALHeader())
	rec := disk.EncodeWALRecord(disk.WALRecord{Kind: disk.RecPage, Page: 3, LSN: 7, Payload: []byte("pp")})
	commit := disk.EncodeWALRecord(disk.WALRecord{Kind: disk.RecCommit, Payload: disk.EncodeCommitPayload(1, 7)})
	full := append(append(append([]byte{}, disk.EncodeWALHeader()...), rec...), commit...)
	f.Add(full)
	f.Add(full[:len(full)-3])
	f.Add(append(append([]byte{}, full...), 0xEE))
	corrupt := append([]byte{}, full...)
	corrupt[20] ^= 0x01
	f.Add(corrupt)
	// A checkpoint's batch: its final frees, then its latest images,
	// each in page order (so the LSNs are not), then the commit.
	batch := disk.EncodeWALHeader()
	for _, r := range []disk.WALRecord{
		{Kind: disk.RecFree, Page: 2, LSN: 9},
		{Kind: disk.RecFree, Page: 5, LSN: 4},
		{Kind: disk.RecPage, Page: 1, LSN: 11, Payload: []byte("meta")},
		{Kind: disk.RecPage, Page: 3, LSN: 6, Payload: []byte("leaf")},
		{Kind: disk.RecCommit, Payload: disk.EncodeCommitPayload(4, 11)},
	} {
		batch = append(batch, disk.EncodeWALRecord(r)...)
	}
	f.Add(batch)

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := disk.ReplayWAL("fuzz", data)
		if err != nil {
			var ce *disk.ChecksumError
			if !errors.As(err, &ce) {
				t.Fatalf("non-ChecksumError failure: %v", err)
			}
			return
		}
		// The valid prefix must re-encode to exactly the bytes that
		// were scanned, and replaying the re-encoding must agree —
		// the record boundary the scanner chose is real.
		enc := disk.EncodeWALHeader()
		if len(data) < len(enc) {
			if len(res.Records) != 0 {
				t.Fatalf("records out of a headerless log")
			}
			return
		}
		for _, r := range res.Records {
			enc = append(enc, disk.EncodeWALRecord(r)...)
		}
		if int64(len(enc)) != res.TailOffset {
			t.Fatalf("re-encoding is %d bytes, scanner stopped at %d", len(enc), res.TailOffset)
		}
		if !bytes.Equal(enc[16:], data[16:res.TailOffset]) {
			t.Fatalf("re-encoded records differ from scanned bytes")
		}
		res2, err := disk.ReplayWAL("fuzz", enc)
		if err != nil {
			t.Fatalf("re-replay failed: %v", err)
		}
		if len(res2.Records) != len(res.Records) || res2.Committed != res.Committed {
			t.Fatalf("re-replay disagrees: %d/%v vs %d/%v",
				len(res2.Records), res2.Committed, len(res.Records), res.Committed)
		}
	})
}
