package disk_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"probe/internal/disk"
	"probe/internal/disk/faultfs"
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

// FuzzDecodeSegment drives DecodeSegment with arbitrary bytes: it must
// never panic, a segment it accepts must re-encode to exactly its
// bytes, and it must accept exactly the bytes that ReplayWAL, behind a
// log header, reads as a committed batch with no torn tail.
func FuzzDecodeSegment(f *testing.F) {
	// FuzzWALReplay's seeds, without the log header.
	f.Add([]byte{})
	rec := disk.EncodeWALRecord(disk.WALRecord{Kind: disk.RecPage, Page: 3, LSN: 7, Payload: []byte("pp")})
	commit := disk.EncodeWALRecord(disk.WALRecord{Kind: disk.RecCommit, Payload: disk.EncodeCommitPayload(1, 7)})
	full := append(append([]byte{}, rec...), commit...)
	f.Add(full)
	f.Add(full[:len(full)-3])
	f.Add(append(append([]byte{}, full...), 0xEE))
	corrupt := append([]byte{}, full...)
	corrupt[4] ^= 0x01
	f.Add(corrupt)
	f.Add(disk.EncodeSegment(disk.Segment{MaxLSN: 11, Records: []disk.WALRecord{
		{Kind: disk.RecFree, Page: 2, LSN: 9},
		{Kind: disk.RecFree, Page: 5, LSN: 4},
		{Kind: disk.RecPage, Page: 1, LSN: 11, Payload: []byte("meta")},
		{Kind: disk.RecPage, Page: 3, LSN: 6, Payload: []byte("leaf")},
	}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := disk.DecodeSegment(data)
		res, rerr := disk.ReplayWAL("fuzz", append(disk.EncodeWALHeader(), data...))
		if committed := rerr == nil && res.Committed && !res.Truncated; (err == nil) != committed {
			t.Fatalf("DecodeSegment error %v, but the log replays committed=%v (%v)", err, committed, rerr)
		}
		if err != nil {
			return
		}
		if enc := disk.EncodeSegment(seg); !bytes.Equal(enc, data) {
			t.Fatalf("re-encoded segment is %d bytes and differs from the %d decoded", len(enc), len(data))
		}
	})
}

// FuzzFileStoreOpen drives the page file's open scan with arbitrary
// bytes on faultfs: it must never panic, refuse a file only with a
// *disk.ChecksumError, and split a file it opens into slots that are
// each exactly one of live, free or corrupt, every live one readable.
// Mode 0 takes the bytes as the whole file; modes 1 and 2 put a valid
// superblock of 64-byte pages ahead of them, and mode 2 also seals each
// whole slot's header over whatever id and LSN it holds, so the scan
// meets valid slots of every stamp.
func FuzzFileStoreOpen(f *testing.F) {
	const size = 64
	slotLen := disk.PageHeaderLen + size
	// A checkpointed file: two live pages and one freed, then a slot an
	// eager allocation stamp left (its own id, LSN 0) and a torn tail.
	fsys := faultfs.New()
	rs, err := disk.CreateRecoverableStore(fsys, "db", size)
	if err != nil {
		f.Fatal(err)
	}
	var ids []disk.PageID
	for i := 0; i < 3; i++ {
		id, err := rs.Allocate()
		if err != nil {
			f.Fatal(err)
		}
		ids = append(ids, id)
		if err := rs.Write(id, page(size, byte('a'+i))); err != nil {
			f.Fatal(err)
		}
	}
	if err := rs.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	if err := rs.Free(ids[1]); err != nil {
		f.Fatal(err)
	}
	if err := rs.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	img, _, err := rs.PageFileImage()
	if err != nil {
		f.Fatal(err)
	}
	rs.Close()
	stamp := make([]byte, slotLen)
	disk.SealSlot(stamp, disk.PageID(len(ids)+1), 0)
	img = append(append(img, stamp...), make([]byte, slotLen/2)...)
	f.Add(img, uint8(0))
	f.Add(img[disk.SuperblockLen:], uint8(1))
	f.Add(img[disk.SuperblockLen:], uint8(2))
	f.Add([]byte{}, uint8(0))
	f.Add(make([]byte, 3*slotLen), uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		file := data
		if mode%3 > 0 {
			file = append(disk.EncodeSuperblock(size, uint64(mode/3)), data...)
		}
		if mode%3 == 2 {
			for off := disk.SuperblockLen; off+slotLen <= len(file); off += slotLen {
				slot := file[off : off+slotLen]
				disk.SealSlot(slot, disk.PageID(binary.LittleEndian.Uint32(slot[4:])), binary.LittleEndian.Uint64(slot[8:]))
			}
		}
		fsys := faultfs.New()
		writeImage(t, fsys, "db", file)
		fs, err := disk.OpenFileStoreFS(fsys, "db")
		if err != nil {
			var ce *disk.ChecksumError
			if !errors.As(err, &ce) {
				t.Fatalf("open refused with a non-ChecksumError: %v", err)
			}
			return
		}
		defer fs.Close()
		n, live, free, corrupt := fs.SlotStates()
		seen := make(map[disk.PageID]int)
		for _, set := range [][]disk.PageID{live, free, corrupt} {
			for _, id := range set {
				seen[id]++
			}
		}
		for id := disk.PageID(1); int(id) <= n; id++ {
			if seen[id] != 1 {
				t.Fatalf("slot %d of %d is in %d of the live, free and corrupt sets", id, n, seen[id])
			}
		}
		if len(seen) != n {
			t.Fatalf("%d slots classified, the file has %d", len(seen), n)
		}
		buf := make([]byte, size)
		for _, id := range live {
			if err := fs.Read(id, buf); err != nil {
				t.Fatalf("live slot %d does not read: %v", id, err)
			}
		}
	})
}

// TestFileStoreOpenAllocatesForSlotsItHolds: the open scan sizes its
// slot buffer by the superblock's page size only once the file holds a
// slot of that size. A 64-byte file whose checksummed superblock names
// 16 MiB pages opens as an empty store without allocating a page.
func TestFileStoreOpenAllocatesForSlotsItHolds(t *testing.T) {
	const pageSize = 16 << 20
	fsys := faultfs.New()
	writeImage(t, fsys, "db", disk.EncodeSuperblock(pageSize, 0))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fs, err := disk.OpenFileStoreFS(fsys, "db")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if n, _, _, _ := fs.SlotStates(); n != 0 || fs.PageSize() != pageSize {
		t.Fatalf("a file of no slot opened with %d slots of %d bytes", n, fs.PageSize())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("opening a 64-byte page file allocated %d bytes", got)
	}
}
