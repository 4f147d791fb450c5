package probe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"probe/internal/btree"
	"probe/internal/core"
	"probe/internal/disk"
	"probe/internal/obs"
)

// This file is the durable face of the database: Open with
// WithDurability places the index on a disk.RecoverableStore (WAL +
// checksummed pages) instead of the in-memory simulated disk,
// DB.Checkpoint is the commit point that makes inserts durable, and
// reopening the same path recovers the last checkpoint — after a
// clean Close and after a crash alike. See docs/durability.md for the
// full protocol and its guarantees.

// metaPageID is the page holding the database descriptor: the grid
// shape and the B+-tree metadata. It is allocated first on creation,
// so it is always page 1; the tree's pages follow. The page is
// written directly through the store at each checkpoint — never
// through the buffer pool, which therefore never caches it.
const metaPageID disk.PageID = 1

// dbMetaVersion is the format of the descriptor and of the tree pages
// behind it. Version 8 holds an internal page's separators as whole
// keys at a fixed stride, each a shortest separating prefix padded with
// zeros, where version 7 held each behind its 2-byte length, as long
// as the prefix. Version 7 stores a leaf's z fields as gaps from the
// previous key's z, a block's first entry taking its block's base;
// version 6 stored them as distances from a base per block of 32
// entries, the bases after the id bases, and added their width's byte
// to the leaf header; version 5 packed a leaf's z and id fields in
// bits, not whole bytes, and added the selector bits' own byte to the
// leaf header; version 4 let a leaf's frame hold up to four id bases,
// an id field selecting one in its top bits; version 3 stored a leaf's
// keys as deltas from a frame of one id base in its header and a
// derived leaf capacity as 0; version 2 stored each key at the grid's
// width, version 1 in 16 bytes. The descriptor's layout did not change:
// the key width follows from the grid.
const (
	dbMetaMagic   = "PROBEDB1"
	dbMetaVersion = 8
)

// encodeDBMeta serializes the database descriptor into a page-sized
// buffer:
//
//	[magic 8B][version u32][k u32][bits u32 x k]
//	[root u32][height u32][leaves u32][leaf cap u32][value size u32]
//	[count u64]
//
// leaf cap is the capacity as configured, 0 when derived. The tree
// stores keys only, so value size is always 0: the slot stays so that
// every version-4 store keeps its layout.
func encodeDBMeta(buf []byte, g Grid, m btree.Meta) error {
	need := 8 + 4 + 4 + 4*g.Dims() + 5*4 + 8
	if len(buf) < need {
		return fmt.Errorf("probe: page size %d cannot hold database metadata (%d bytes)", len(buf), need)
	}
	for i := range buf {
		buf[i] = 0
	}
	copy(buf[0:8], dbMetaMagic)
	binary.LittleEndian.PutUint32(buf[8:12], dbMetaVersion)
	binary.LittleEndian.PutUint32(buf[12:16], uint32(g.Dims()))
	off := 16
	for i := 0; i < g.Dims(); i++ {
		binary.LittleEndian.PutUint32(buf[off:off+4], uint32(g.BitsOf(i)))
		off += 4
	}
	binary.LittleEndian.PutUint32(buf[off:off+4], uint32(m.Root))
	binary.LittleEndian.PutUint32(buf[off+4:off+8], uint32(m.Height))
	binary.LittleEndian.PutUint32(buf[off+8:off+12], uint32(m.Leaves))
	binary.LittleEndian.PutUint32(buf[off+12:off+16], uint32(m.LeafCapacity))
	binary.LittleEndian.PutUint64(buf[off+20:off+28], uint64(m.Count))
	return nil
}

// decodeDBMeta parses a database descriptor page.
func decodeDBMeta(buf []byte) (bits []int, m btree.Meta, err error) {
	if len(buf) < 16 || string(buf[0:8]) != dbMetaMagic {
		return nil, m, fmt.Errorf("probe: bad database metadata magic")
	}
	if v := binary.LittleEndian.Uint32(buf[8:12]); v != dbMetaVersion {
		return nil, m, fmt.Errorf("probe: database has format version %d, this build reads only version %d: the store must be rebuilt", v, dbMetaVersion)
	}
	k := int(binary.LittleEndian.Uint32(buf[12:16]))
	if k < 1 || k > 64 || len(buf) < 16+4*k+28 {
		return nil, m, fmt.Errorf("probe: implausible database metadata (k=%d)", k)
	}
	bits = make([]int, k)
	off := 16
	for i := 0; i < k; i++ {
		bits[i] = int(binary.LittleEndian.Uint32(buf[off : off+4]))
		off += 4
	}
	m.Root = disk.PageID(binary.LittleEndian.Uint32(buf[off : off+4]))
	m.Height = int(binary.LittleEndian.Uint32(buf[off+4 : off+8]))
	m.Leaves = int(binary.LittleEndian.Uint32(buf[off+8 : off+12]))
	m.LeafCapacity = int(binary.LittleEndian.Uint32(buf[off+12 : off+16]))
	if vs := binary.LittleEndian.Uint32(buf[off+16 : off+20]); vs != 0 {
		return nil, m, fmt.Errorf("probe: database descriptor records value size %d, but the index stores keys only", vs)
	}
	m.Count = int(binary.LittleEndian.Uint64(buf[off+20 : off+28]))
	return bits, m, nil
}

// gridMatches reports whether g has exactly the per-dimension bit
// widths recorded in a descriptor.
func gridMatches(g Grid, bits []int) bool {
	if g.Dims() != len(bits) {
		return false
	}
	for i, b := range bits {
		if g.BitsOf(i) != b {
			return false
		}
	}
	return true
}

// DurabilityStats re-exports the durable store's counters.
type DurabilityStats = disk.DurabilityStats

// RecoveryInfo re-exports what opening a durable database found and
// repaired.
type RecoveryInfo = disk.RecoveryInfo

// ErrInUse is returned by Open for a durable path whose store another
// DB still holds, closed or not: two stores would write one WAL and
// page file with nothing ordering their writes. Within a process a
// registry finds the holder; across processes the page file's advisory
// lock (flock, on the systems that have it) does.
var ErrInUse = errors.New("probe: database path is in use by another open DB")

// storeKey names a durable store: its file system and absolute path.
type storeKey struct {
	fs   disk.FS
	path string
}

// openStores holds the key of every durable store open in this process,
// from before it opens until it is released.
var openStores sync.Map

// openDurable is Open's durable path: create the store at cfg.durPath
// if it does not exist, otherwise recover it and reattach the index.
func openDurable(g Grid, cfg openConfig) (db *DB, err error) {
	fsys := cfg.fsys
	if fsys == nil {
		fsys = disk.OSFS{}
	}
	k := storeKey{fsys, filepath.Clean(cfg.durPath)}
	if abs, err := filepath.Abs(cfg.durPath); err == nil {
		k.path = abs
	}
	if _, busy := openStores.LoadOrStore(k, true); busy {
		return nil, fmt.Errorf("%w: %s", ErrInUse, k.path)
	}
	defer func() {
		if errors.Is(err, disk.ErrLocked) {
			err = fmt.Errorf("%w: %s", ErrInUse, k.path)
		}
		if err != nil {
			openStores.Delete(k)
		} else {
			db.key = k
		}
	}()
	_, exists, err := fsys.Stat(cfg.durPath)
	if err != nil {
		return nil, fmt.Errorf("probe: stat %s: %w", cfg.durPath, err)
	}
	sp := cfg.trace.Child("open")
	defer sp.End()
	if !exists {
		return createDurable(g, cfg, fsys)
	}
	return recoverDurable(g, cfg, fsys, sp)
}

func createDurable(g Grid, cfg openConfig, fsys disk.FS) (*DB, error) {
	rs, err := disk.CreateRecoverableStore(fsys, cfg.durPath, cfg.pageSize)
	if err != nil {
		return nil, err
	}
	id, err := rs.Allocate()
	if err != nil {
		rs.Close()
		return nil, err
	}
	if id != metaPageID {
		rs.Close()
		return nil, fmt.Errorf("probe: metadata page allocated as %d, want %d", id, metaPageID)
	}
	db, err := newDB(g, rs, cfg)
	if err != nil {
		rs.Close()
		return nil, err
	}
	db.rs = rs
	// Checkpoint immediately: a freshly created database must be
	// recoverable even if the process dies before the first explicit
	// Checkpoint.
	if err := db.checkpointLocked(); err != nil {
		rs.Close()
		return nil, err
	}
	return db, nil
}

func recoverDurable(g Grid, cfg openConfig, fsys disk.FS, sp *Trace) (*DB, error) {
	if cfg.bulkSet {
		return nil, fmt.Errorf("probe: cannot bulk-load into the existing database at %s (WithBulkLoad requires a fresh path)", cfg.durPath)
	}
	rs, info, err := disk.RecoverStore(fsys, cfg.durPath)
	if err != nil {
		return nil, err
	}
	sp.Add(obs.PagesRecovered, int64(info.PagesRecovered))
	if cfg.pageSize != disk.DefaultPageSize && cfg.pageSize != rs.PageSize() {
		ps := rs.PageSize()
		rs.Close()
		return nil, fmt.Errorf("probe: WithPageSize(%d) conflicts with existing database page size %d", cfg.pageSize, ps)
	}
	buf := make([]byte, rs.PageSize())
	if err := rs.Read(metaPageID, buf); err != nil {
		rs.Close()
		return nil, fmt.Errorf("probe: read database metadata: %w", err)
	}
	bits, tm, err := decodeDBMeta(buf)
	if err != nil {
		rs.Close()
		return nil, err
	}
	if !gridMatches(g, bits) {
		rs.Close()
		return nil, fmt.Errorf("probe: database at %s was created with grid bits %v, not %v", cfg.durPath, bits, g)
	}
	if cfg.leafCapacity != 0 && cfg.leafCapacity != tm.LeafCapacity {
		rs.Close()
		return nil, fmt.Errorf("probe: WithLeafCapacity(%d) conflicts with the leaf capacity the database at %s was created with (%d; 0 = derived from the page size)",
			cfg.leafCapacity, cfg.durPath, tm.LeafCapacity)
	}
	pool, err := disk.NewPool(rs, cfg.poolPages, disk.LRU)
	if err != nil {
		rs.Close()
		return nil, err
	}
	ix, err := core.OpenIndex(pool, g, tm)
	if err != nil {
		rs.Close()
		return nil, err
	}
	return (&DB{
		grid: g, rs: rs, pool: pool, index: ix,
		recovery: info, recovered: true,
	}).initMetrics(), nil
}

// Checkpoint makes every change so far durable: the database
// descriptor is rewritten, and the store logs every page changed or
// freed since the last checkpoint as one batch, commits it with one
// group fsync and applies it to the page file. After Checkpoint returns
// nil, the database reopens to exactly this state no matter how the
// process dies.
//
// Checkpoint always captures a committed tree root, never a partial
// write: it serializes with Insert/Delete on the database mutex, so no
// structural change is in flight while the descriptor is encoded, and
// the descriptor it writes is the root the tree last published — a
// root whose every page the writer handed to the store before it
// committed. A Checkpoint racing an insert therefore lands either
// wholly before it (recovering to the pre-insert root) or wholly after
// it (recovering to the post-insert root); recovery can never observe
// a root with missing children. Superseded pages freed by version
// garbage collection after the checkpoint stay allocated on disk until
// the NEXT checkpoint commits the frees, so a crash in between still
// replays onto an intact page set. See TestCheckpointVsInsertRace and
// docs/mvcc.md.
//
// On an in-memory database (no WithDurability) Checkpoint has nothing
// to do: the buffer pool holds no page the store lacks.
//
// It accepts WithTrace like the query entry points; the returned
// QueryStats carries the checkpoint's WALAppends (the whole batch and
// its commit record), WALSyncs and PhysWrites, traced or not. PhysWrites
// is the page-file slots the checkpoint wrote: one per page image
// applied and one per free stamped, so WALAppends less the commit
// record. Its PoolWriteBacks is 0: the pool writes nothing back.
func (db *DB) Checkpoint(opts ...QueryOption) (QueryStats, error) {
	qc := queryOptions(opts)
	db.mu.Lock()
	defer db.mu.Unlock()
	sp := qc.trace.Child("checkpoint")
	defer db.endOp("checkpoint", nil, sp)
	n := db.checkpointTotals()
	err := db.checkpointLocked()
	for c, v := range db.checkpointTotals() {
		n[c] = max(0, v-n[c])
	}
	sp.AddCounts(&n)
	return core.StatsOf(&n), err
}

// checkpointTotals reads the lifetime totals a checkpoint's work grows,
// the page-file slots it writes and the log's appends and syncs; it
// holds db.mu, so beside it nothing else grows them.
func (db *DB) checkpointTotals() (t obs.Counts) {
	if db.rs != nil {
		ds := db.rs.DurabilityStats()
		t[obs.PhysWrites] = int64(ds.PageWrites)
		t[obs.WALAppends], t[obs.WALSyncs] = int64(ds.WALAppends), int64(ds.WALSyncs)
	}
	return t
}

// checkpointLocked runs the checkpoint under db.mu.
func (db *DB) checkpointLocked() error {
	if db.closed {
		return ErrClosed
	}
	if db.rs == nil {
		return nil
	}
	buf := make([]byte, db.rs.PageSize())
	if err := encodeDBMeta(buf, db.grid, db.index.Tree().Meta()); err != nil {
		return err
	}
	if err := db.rs.Write(metaPageID, buf); err != nil {
		return err
	}
	return db.rs.Checkpoint()
}

// Close checkpoints (on a durable database) and releases the store.
// Close is idempotent; operations after Close fail with ErrClosed.
//
// Close is safe against concurrent in-flight queries: it serializes
// with writers on the database mutex to checkpoint and mark the
// database closed, releases the mutex, then shuts the read gate and
// waits, holding no lock, for every admitted read to finish before it
// releases the store. It therefore never releases the store underneath
// a running operation of either kind, and a read's callback that calls
// back into the database while Close waits fails with ErrClosed
// instead of deadlocking. Called from a read's own callback, Close
// waits for every read but the ones it runs inside and returns; the
// last of those releases the store as it leaves, and an error closing
// the store is then lost. A concurrent second Close returns once the
// first has finished. To close
// promptly while long queries are running, cancel them first (run
// queries under WithContext and cancel the context); the server
// package's drain sequence does exactly that. See
// TestCloseWhileQuerying.
func (db *DB) Close() error {
	return db.close(true)
}

// CloseReadOnly is Close without the final checkpoint: the store is
// released exactly as it is on disk, with no metadata rewrite. A
// replication applier retiring a database over a shipped page file
// uses it so the file stays byte-identical to what the primary
// shipped. Like Close it blocks until in-flight operations finish.
func (db *DB) CloseReadOnly() error {
	return db.close(false)
}

func (db *DB) close(checkpoint bool) (err error) {
	db.closeOnce.Do(func() {
		db.mu.Lock()
		if db.rs != nil && checkpoint {
			err = db.checkpointLocked()
		}
		db.closed = true
		db.mu.Unlock()
		// Drain the read path holding no lock: a read's callback may
		// call back into the database, and finds it closed.
		var cerr error
		release := func() {
			if db.rs != nil {
				cerr = db.rs.Close()
				openStores.Delete(db.key)
			}
		}
		if db.gate.shut(ownReads(), release) && err == nil {
			err = cerr
		}
	})
	return err
}

// DurabilityStats returns the durable store's counters: WAL appends
// and fsyncs, checkpoints completed, the page-file slots they wrote,
// the page file's slots against its live pages (the space
// amplification), and pages reused inside a checkpoint epoch. Zero on
// an in-memory database. The pages replayed at recovery are
// Recovered's; a checksum failure is counted on the read that hit it.
func (db *DB) DurabilityStats() DurabilityStats {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.rs == nil {
		return DurabilityStats{}
	}
	return db.rs.DurabilityStats()
}

// Recovered reports whether Open attached to an existing database,
// and what recovery found there.
func (db *DB) Recovered() (bool, RecoveryInfo) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.recovered, db.recovery
}

// WALSegment re-exports one shipped checkpoint batch: the physical
// page records a checkpoint applied, for replay on a read replica.
type WALSegment = disk.Segment

// ErrNotDurable is returned by replication entry points on a database
// opened without WithDurability: with no WAL there is nothing to ship.
var ErrNotDurable = errors.New("probe: database is not durable (no WithDurability)")

// SetWALSegmentHook installs fn to observe every completed checkpoint
// as a compacted WAL segment and the bytes the log took for it — the
// primary side of log shipping, which ships those bytes. fn runs
// inside Checkpoint after the batch is durable locally; it may keep
// the bytes, must be quick and must not call back into the database.
// A nil fn unsubscribes. See docs/cluster.md.
func (db *DB) SetWALSegmentHook(fn func(WALSegment, []byte)) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.rs == nil {
		return ErrNotDurable
	}
	db.rs.SetCheckpointHook(fn)
	return nil
}

// CheckpointLSN returns the LSN of the last durable checkpoint (0 on
// an in-memory database): the position a replica bootstrapped from
// StoreImage starts streaming after.
func (db *DB) CheckpointLSN() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.rs == nil {
		return 0
	}
	return db.rs.CheckpointLSN()
}

// StoreImage checkpoints and returns the page file's raw bytes plus
// the checkpoint LSN they are stamped with — the replica bootstrap
// snapshot. Applying every shipped segment with MaxLSN above the
// returned LSN to a copy of these bytes reproduces the primary's
// checkpointed state exactly. The checkpoint inside guarantees the
// image carries no half-allocated slots.
func (db *DB) StoreImage() ([]byte, uint64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.rs == nil {
		return nil, 0, ErrNotDurable
	}
	if err := db.checkpointLocked(); err != nil {
		return nil, 0, err
	}
	return db.rs.PageFileImage()
}
