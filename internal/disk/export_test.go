package disk

// Test-only access to the page file's format and open scan for the
// tests of package disk_test.

const SuperblockLen, PageHeaderLen = superblockLen, pageHeaderLen

// EncodeSuperblock returns a valid superblock.
func EncodeSuperblock(pageSize int, ckptLSN uint64) []byte {
	return encodeSuperblock(pageSize, ckptLSN)
}

// SealSlot stamps a slot's header with id and lsn and its checksum.
func SealSlot(slot []byte, id PageID, lsn uint64) { encodePageHeader(slot, id, lsn) }

// SlotStates returns the page file's slot count and its allocated
// slots that read (live) and fail verification (corrupt), and its free
// list.
func (s *FileStore) SlotStates() (n int, live, free, corrupt []PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id := range s.allocated {
		if s.corrupt[id] {
			corrupt = append(corrupt, id)
		} else {
			live = append(live, id)
		}
	}
	return int(s.next - 1), live, append([]PageID(nil), s.freeList...), corrupt
}
