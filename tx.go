package probe

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"probe/internal/btree"
	"probe/internal/core"
	"probe/internal/geom"
	"probe/internal/obs"
)

// Multi-statement transactions (docs/transactions.md). A Tx pins one
// committed MVCC version of the index for every read and buffers its
// writes in a private write-set overlaid on that snapshot, so a
// transaction reads its own uncommitted writes but is invisible to
// every other reader until Commit. Commit runs first-committer-wins
// validation against every version published after the pinned one and
// applies the whole write-set as a single atomic tree publication —
// one root swap, so a crash recovers either all of the transaction or
// none of it. Rollback just unpins the snapshot.
//
// A Tx is not safe for concurrent use by multiple goroutines; open
// one per goroutine (snapshots make them cheap).

// Sentinel errors of the transaction API. The wire protocol maps
// ErrTxConflict to the typed CONFLICT error frame, and the network
// client surfaces the same sentinels.
var (
	// ErrTxConflict is returned by Commit when first-committer-wins
	// validation fails: another transaction (or an auto-commit write)
	// committed a change to a key in this transaction's write-set
	// after its snapshot was pinned. Retry the whole transaction.
	ErrTxConflict = errors.New("probe: transaction conflict")
	// ErrTxAborted is returned by operations on a transaction that has
	// already ended — committed, rolled back, or aborted by the server
	// (idle timeout, disconnect, drain).
	ErrTxAborted = errors.New("probe: transaction has ended")
	// ErrTxReadOnly is returned by write operations on a View
	// transaction.
	ErrTxReadOnly = errors.New("probe: read-only transaction")
)

// txKey identifies a point in the write-set overlay: its z value plus
// its id, the same identity the index key carries.
type txKey struct{ z, id uint64 }

// txEntry is the net overlay state of one key: the point, whether it
// is live after the buffered writes, and whether the pinned snapshot
// contains it (fixed at first touch; used for Len accounting).
type txEntry struct {
	p      Point
	live   bool
	inSnap bool
}

// Tx is a multi-statement transaction. Reads (RangeSearch,
// RangeSearchFunc, Nearest, Scan, Len) observe the pinned snapshot
// with the transaction's own buffered writes overlaid; writes
// (Insert, InsertAll, Delete, DeleteBox) buffer into the write-set
// and touch the shared index only at Commit.
type Tx struct {
	db  *DB
	ctx context.Context

	snap     *core.IndexSnapshot
	writable bool
	done     bool
	auto     bool // an auto-commit write under db.mu: Commit must not re-lock; not in probe_tx_*

	writes  []core.PointMutation // buffered mutations, in statement order
	overlay map[txKey]txEntry    // net per-key state for read-your-writes
}

// newTxMetrics builds the probe_tx_* registry with every series
// pre-registered, so the exported metric surface is identical on an
// idle database and one that has run transactions.
func newTxMetrics() *obs.Registry {
	r := obs.NewRegistry()
	r.Int("begun")
	r.Int("committed")
	r.Int("aborted")
	r.Int("conflicts")
	r.Histogram("commit-latency")
	return r
}

// newTx pins the current committed version. The caller must have
// established that the database is usable (stateMu shared or db.mu).
func (db *DB) newTx(ctx context.Context, writable, auto bool) *Tx {
	tx := &Tx{db: db, ctx: ctx, snap: db.index.Snapshot(), writable: writable, auto: auto}
	if !auto {
		db.txMetrics.Int("begun").Add(1)
	}
	return tx
}

// Begin starts a writable transaction whose snapshot is the newest
// committed version. The caller must end it with exactly one Commit
// or Rollback (Rollback after a failed Commit is a no-op, so
// `defer tx.Rollback()` is safe). Begin does not serialize with
// writers: any number of transactions may be open at once, and
// conflicts surface at Commit. Prefer the Update closure, which
// handles the end-of-transaction bookkeeping.
func (db *DB) Begin(ctx context.Context) (*Tx, error) {
	db.stateMu.RLock()
	defer db.stateMu.RUnlock()
	if err := db.usableLocked(ctx); err != nil {
		return nil, err
	}
	return db.newTx(ctx, true, false), nil
}

// View runs fn inside a read-only transaction: every read in fn
// observes one committed version, however many writes commit
// meanwhile. The transaction ends when fn returns; its error (nil or
// not) is returned.
func (db *DB) View(ctx context.Context, fn func(*Tx) error) error {
	db.stateMu.RLock()
	err := db.usableLocked(ctx)
	var tx *Tx
	if err == nil {
		tx = db.newTx(ctx, false, false)
	}
	db.stateMu.RUnlock()
	if err != nil {
		return err
	}
	defer tx.Rollback()
	if err := fn(tx); err != nil {
		return err
	}
	return tx.Commit()
}

// Update runs fn inside a writable transaction and commits it when fn
// returns nil; a non-nil error (or a panic) rolls the transaction
// back. Commit may fail with ErrTxConflict, in which case the whole
// closure can simply be retried.
func (db *DB) Update(ctx context.Context, fn func(*Tx) error) error {
	tx, err := db.Begin(ctx)
	if err != nil {
		return err
	}
	defer tx.Rollback() // no-op after a successful Commit
	if err := fn(tx); err != nil {
		return err
	}
	return tx.Commit()
}

// updateAuto is the one-shot auto-commit path behind the classic
// write entry points (Insert, InsertAll, Delete, DeleteBox): it runs
// fn in a writable transaction created and committed under db.mu, so
// no other commit can interleave and first-committer-wins validation
// trivially passes — the classic entry points keep their exact
// pre-transaction semantics (duplicate inserts fail with the
// duplicate-key error, never with ErrTxConflict).
func (db *DB) updateAuto(ctx context.Context, fn func(*Tx) error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.usableLocked(ctx); err != nil {
		return err
	}
	tx := db.newTx(ctx, true, true)
	defer tx.Rollback()
	if err := fn(tx); err != nil {
		return err
	}
	return tx.Commit()
}

// begin enters one transaction statement: it rejects ended
// transactions, then holds the database open (stateMu shared) for the
// statement's duration: after a nil error the caller defers
// tx.db.stateMu.RUnlock(). ctx is the statement's effective context.
func (tx *Tx) begin(ctx context.Context) error {
	if tx.done {
		return ErrTxAborted
	}
	tx.db.stateMu.RLock()
	if err := tx.db.usableLocked(ctx); err != nil {
		tx.db.stateMu.RUnlock()
		return err
	}
	return nil
}

// statementCtx resolves a statement's context: a WithContext option
// overrides the transaction's own.
func (tx *Tx) statementCtx(qc *queryConfig) context.Context {
	if qc.ctx != nil {
		return qc.ctx
	}
	return tx.ctx
}

// Seq returns the committed version sequence the transaction's
// snapshot pins — its read timestamp.
func (tx *Tx) Seq() uint64 { return tx.snap.Seq() }

// Writable reports whether the transaction accepts writes.
func (tx *Tx) Writable() bool { return tx.writable }

// Pending returns the number of buffered write statements.
func (tx *Tx) Pending() int { return len(tx.writes) }

// keyOf validates the point against the grid and returns its overlay
// key.
func (tx *Tx) keyOf(p Point) (txKey, error) {
	if !tx.db.grid.Valid(p.Coords) {
		return txKey{}, fmt.Errorf("core: point %v outside %v", p, tx.db.grid)
	}
	return txKey{z: tx.db.grid.ShuffleKey(p.Coords), id: p.ID}, nil
}

// setOverlay records the net state of a key, fixing inSnap on first
// touch.
func (tx *Tx) setOverlay(k txKey, p Point, live, inSnap bool) {
	if tx.overlay == nil {
		tx.overlay = make(map[txKey]txEntry)
	}
	if e, ok := tx.overlay[k]; ok {
		inSnap = e.inSnap
	}
	tx.overlay[k] = txEntry{p: p, live: live, inSnap: inSnap}
}

// Insert buffers a point insertion. Duplicates are checked against
// the transaction's view (snapshot plus buffered writes), so
// inserting a key deleted earlier in the same transaction succeeds
// and re-inserting a live one fails with the duplicate-key error.
func (tx *Tx) Insert(p Point) error {
	if err := tx.begin(tx.ctx); err != nil {
		return err
	}
	defer tx.db.stateMu.RUnlock()
	if !tx.writable {
		return ErrTxReadOnly
	}
	k, err := tx.keyOf(p)
	if err != nil {
		return err
	}
	inSnap := false
	if e, ok := tx.overlay[k]; ok {
		if e.live {
			return btree.ErrDuplicateKey
		}
		inSnap = e.inSnap
	} else {
		inSnap, err = tx.snap.Contains(p)
		if err != nil {
			return err
		}
		if inSnap {
			return btree.ErrDuplicateKey
		}
	}
	tx.setOverlay(k, p, true, inSnap)
	tx.writes = append(tx.writes, core.PointMutation{Point: p})
	return nil
}

// InsertAll buffers many point insertions, failing on the first
// error (earlier points of the batch stay buffered).
func (tx *Tx) InsertAll(pts []Point) error {
	for _, p := range pts {
		if err := tx.Insert(p); err != nil {
			return fmt.Errorf("probe: insert point %d: %w", p.ID, err)
		}
	}
	return nil
}

// Delete buffers a point deletion, reporting whether the point is
// present in the transaction's view (read-your-writes: a point
// inserted earlier in the transaction can be deleted, and deleting
// the same point twice reports false the second time). Deleting an
// absent point buffers nothing.
func (tx *Tx) Delete(p Point) (bool, error) {
	if err := tx.begin(tx.ctx); err != nil {
		return false, err
	}
	defer tx.db.stateMu.RUnlock()
	if !tx.writable {
		return false, ErrTxReadOnly
	}
	k, err := tx.keyOf(p)
	if err != nil {
		return false, err
	}
	inSnap := false
	if e, ok := tx.overlay[k]; ok {
		if !e.live {
			return false, nil
		}
		inSnap = e.inSnap
	} else {
		inSnap, err = tx.snap.Contains(p)
		if err != nil {
			return false, err
		}
		if !inSnap {
			return false, nil
		}
	}
	tx.setOverlay(k, p, false, inSnap)
	tx.writes = append(tx.writes, core.PointMutation{Point: p, Delete: true})
	return true, nil
}

// DeleteBox deletes every point inside the box as seen by the
// transaction's view, returning how many were buffered for deletion.
func (tx *Tx) DeleteBox(box Box, opts ...QueryOption) (int, error) {
	victims, _, err := tx.RangeSearch(box, opts...)
	if err != nil {
		return 0, err
	}
	for i, p := range victims {
		ok, err := tx.Delete(p)
		if err != nil {
			return i, err
		}
		if !ok {
			return i, fmt.Errorf("probe: point %v vanished during DeleteBox", p)
		}
	}
	return len(victims), nil
}

// RangeSearch returns all points inside the box as seen by the
// transaction: the pinned snapshot's answer with buffered deletions
// removed and buffered insertions merged in, in z order. It accepts
// WithContext; WithTrace is ignored (snapshot reads carry no physical
// attribution).
func (tx *Tx) RangeSearch(box Box, opts ...QueryOption) ([]Point, QueryStats, error) {
	qc := queryOptions(opts)
	ctx := tx.statementCtx(&qc)
	if err := tx.begin(ctx); err != nil {
		return nil, QueryStats{}, err
	}
	defer tx.db.stateMu.RUnlock()
	pts, ss, err := tx.snap.RangeSearchCtx(ctx, box, nil)
	if err != nil {
		return nil, searchQueryStats(ss), err
	}
	pts = tx.overlayRange(pts, box)
	qs := searchQueryStats(ss)
	qs.Results = len(pts)
	return pts, qs, nil
}

// RangeSearchFunc streams the transaction's view of the box to fn in
// z order; returning false stops the stream early. Unlike
// DB.RangeSearchFunc it materializes the result first (the overlay
// merge needs the full snapshot answer), so it streams from memory.
func (tx *Tx) RangeSearchFunc(box Box, fn func(Point) bool, opts ...QueryOption) (QueryStats, error) {
	pts, qs, err := tx.RangeSearch(box, opts...)
	if err != nil {
		return qs, err
	}
	for _, p := range pts {
		if !fn(p) {
			break
		}
	}
	return qs, nil
}

// Scan streams every point of the transaction's view in z order.
func (tx *Tx) Scan(fn func(Point) bool) error {
	_, err := tx.RangeSearchFunc(geom.FullBox(tx.db.grid), fn)
	return err
}

// Len returns the number of points in the transaction's view.
func (tx *Tx) Len() int {
	n := tx.snap.Len()
	for _, e := range tx.overlay {
		if e.live && !e.inSnap {
			n++
		}
		if !e.live && e.inSnap {
			n--
		}
	}
	return n
}

// overlayRange applies the write-set to a snapshot range result:
// drops points deleted in the transaction, merges in buffered
// insertions falling inside the box, and restores z order.
func (tx *Tx) overlayRange(pts []Point, box Box) []Point {
	if len(tx.overlay) == 0 {
		return pts
	}
	out := pts[:0]
	for _, p := range pts {
		if tx.inView(p) {
			out = append(out, p)
		}
	}
	n := len(out)
	tx.eachInsert(box, func(p Point) { out = append(out, p) })
	if len(out) > n {
		g := tx.db.grid
		sort.Slice(out, func(i, j int) bool {
			zi, zj := g.ShuffleKey(out[i].Coords), g.ShuffleKey(out[j].Coords)
			if zi != zj {
				return zi < zj
			}
			return out[i].ID < out[j].ID
		})
	}
	return out
}

// inView reports whether a point of the pinned snapshot is still in
// the transaction's view: the transaction has not deleted it.
func (tx *Tx) inView(p Point) bool {
	e, ok := tx.overlay[txKey{z: tx.db.grid.ShuffleKey(p.Coords), id: p.ID}]
	return !ok || e.live
}

// eachInsert hands fn each buffered insertion inside the box that the
// pinned snapshot lacks, in no order.
func (tx *Tx) eachInsert(box Box, fn func(Point)) {
	for _, e := range tx.overlay {
		if e.live && !e.inSnap && box.ContainsPoint(e.p.Coords) {
			fn(e.p)
		}
	}
}

// Nearest returns the m points of the transaction's view nearest to
// q: the snapshot is asked for enough extra neighbors to absorb every
// buffered deletion, then buffered insertions are ranked in. Options
// as in RangeSearch.
func (tx *Tx) Nearest(q []uint32, m int, metric Metric, opts ...QueryOption) ([]Neighbor, QueryStats, error) {
	qc := queryOptions(opts)
	ctx := tx.statementCtx(&qc)
	if err := tx.begin(ctx); err != nil {
		return nil, QueryStats{}, err
	}
	defer tx.db.stateMu.RUnlock()

	// Ask for one more neighbour per buffered deletion, so that m
	// survive them. An m <= 0 goes through unwidened, for core to
	// reject as DB.Nearest does.
	want := m
	if m > 0 {
		for _, e := range tx.overlay {
			if !e.live {
				want++
			}
		}
	}
	nbs, ss, err := tx.snap.NearestCtx(ctx, q, want, metric)
	if err != nil {
		return nil, searchQueryStats(ss), err
	}
	qs := searchQueryStats(ss)
	if len(tx.overlay) == 0 {
		if len(nbs) > m {
			nbs = nbs[:m]
		}
		qs.Results = len(nbs)
		return nbs, qs, nil
	}
	// The overlay can resurrect results on an empty snapshot, where
	// NearestCtx skipped its own argument validation's Len guard but
	// still validated q, m and metric above.
	seen := make(map[txKey]bool, len(tx.overlay))
	keep := nbs[:0]
	for _, nb := range nbs {
		k := txKey{z: tx.db.grid.ShuffleKey(nb.Point.Coords), id: nb.Point.ID}
		if e, ok := tx.overlay[k]; ok {
			seen[k] = true
			if !e.live {
				continue
			}
		}
		keep = append(keep, nb)
	}
	for k, e := range tx.overlay {
		if e.live && !seen[k] {
			keep = append(keep, Neighbor{Point: e.p, Dist: core.Distance(q, e.p.Coords, metric)})
		}
	}
	core.SortNeighbors(tx.db.grid, keep)
	if len(keep) > m {
		keep = keep[:m]
	}
	qs.Results = len(keep)
	return keep, qs, nil
}

// Commit ends the transaction, validating and applying its write-set
// as one atomic index publication. It returns ErrTxConflict when a
// version committed after the transaction's snapshot touched a key in
// the write-set (first-committer-wins); the transaction is then ended
// and must be retried from Begin. A transaction with no buffered
// writes commits trivially. Durability follows the database's
// checkpoint contract: the commit is atomic across crashes (recovery
// sees all of it or none of it), and becomes durable at the next
// Checkpoint or Close.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxAborted
	}
	tx.done = true
	defer tx.snap.Release()
	db := tx.db
	if len(tx.writes) == 0 {
		if !tx.auto {
			db.txMetrics.Int("committed").Add(1)
		}
		return nil
	}
	t0 := time.Now()
	if !tx.auto {
		db.mu.Lock()
		defer db.mu.Unlock()
	}
	if err := db.usableLocked(tx.ctx); err != nil {
		tx.countAbort()
		return err
	}
	err := db.index.CommitBatch(tx.snap.Seq(), tx.writes)
	switch {
	case err == nil:
		if !tx.auto {
			db.txMetrics.Int("committed").Add(1)
			db.txMetrics.Histogram("commit-latency").Observe(int64(time.Since(t0)))
		}
		db.ops.txCommit.Add(1)
		return nil
	case errors.Is(err, btree.ErrConflict):
		if !tx.auto {
			db.txMetrics.Int("conflicts").Add(1)
		}
		tx.countAbort()
		return ErrTxConflict
	default:
		tx.countAbort()
		return err
	}
}

// Rollback ends the transaction, discarding its buffered writes. It
// is a no-op on a transaction that already ended, so deferring it
// after Begin is always safe.
func (tx *Tx) Rollback() error {
	if tx.done {
		return nil
	}
	tx.done = true
	tx.snap.Release()
	tx.countAbort()
	return nil
}

func (tx *Tx) countAbort() {
	if !tx.auto {
		tx.db.txMetrics.Int("aborted").Add(1)
	}
}

// TxMetrics returns the transaction metrics registry: begun,
// committed, aborted and conflicts counters plus the commit-latency
// histogram. The admin endpoint exposes it under the probe_tx_*
// namespace. One-shot auto-commit operations do not count here.
func (db *DB) TxMetrics() *Metrics { return db.txMetrics }
