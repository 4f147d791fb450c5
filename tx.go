package probe

import (
	"context"
	"errors"
	"fmt"
	"time"

	"probe/internal/btree"
	"probe/internal/core"
	"probe/internal/geom"
	"probe/internal/obs"
)

// Multi-statement transactions (docs/transactions.md). A Tx pins one
// committed MVCC version of the index for every read and buffers its
// writes in a private write-set, which the snapshot carries as a key
// delta (core.IndexSnapshot.Apply), so a transaction reads its own
// uncommitted writes through the same merge as every other read but
// is invisible to every other reader until Commit. Commit runs
// first-committer-wins validation against every version published
// after the pinned one and applies the whole write-set as a single
// atomic tree publication — one root swap, so a crash recovers either
// all of the transaction or none of it. Rollback just unpins the
// snapshot.
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

// Tx is a multi-statement transaction. Reads (RangeSearch,
// RangeSearchFunc, Nearest, Scan, Len) observe the pinned snapshot
// with the transaction's own buffered writes applied; writes
// (Insert, InsertAll, Delete, DeleteBox) buffer into the write-set
// and touch the shared index only at Commit.
type Tx struct {
	db  *DB
	ctx context.Context

	snap     *core.IndexSnapshot // the pinned version, carrying the writes as a key delta
	writable bool
	done     bool
	auto     bool // an auto-commit write under db.mu: Commit must not re-lock; not in probe_tx_*

	writes []btree.Mutation // buffered mutations, in statement order
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
// established that the database is usable (admitted through the read
// gate, or under db.mu).
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
	if err := db.admitRead(ctx); err != nil {
		return nil, err
	}
	defer db.gate.leave()
	return db.newTx(ctx, true, false), nil
}

// View runs fn inside a read-only transaction: every read in fn
// observes one committed version, however many writes commit
// meanwhile. The transaction ends when fn returns; its error (nil or
// not) is returned.
func (db *DB) View(ctx context.Context, fn func(*Tx) error) error {
	if err := db.admitRead(ctx); err != nil {
		return err
	}
	tx := db.newTx(ctx, false, false)
	db.gate.leave()
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
// transactions, then holds the database open (admitted through the
// read gate) for the statement's duration: after a nil error the
// caller defers tx.db.gate.leave(). ctx is the statement's effective
// context.
func (tx *Tx) begin(ctx context.Context) error {
	if tx.done {
		return ErrTxAborted
	}
	return tx.db.admitRead(ctx)
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

// Pending returns the number of buffered write statements.
func (tx *Tx) Pending() int { return len(tx.writes) }

// Insert buffers a point insertion. Duplicates are checked against
// the transaction's view (snapshot plus buffered writes), so
// inserting a key deleted earlier in the same transaction succeeds
// and re-inserting a live one fails with the duplicate-key error.
func (tx *Tx) Insert(p Point) error {
	changed, err := tx.write(p, false)
	if err == nil && !changed {
		return btree.ErrDuplicateKey
	}
	return err
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
func (tx *Tx) Delete(p Point) (bool, error) { return tx.write(p, true) }

// write buffers the point's insertion or deletion as a mutation of its
// key, reporting whether it changed the transaction's view. The key is
// computed once, so the caller's Coords are not retained.
func (tx *Tx) write(p Point, del bool) (bool, error) {
	if err := tx.begin(tx.ctx); err != nil {
		return false, err
	}
	defer tx.db.gate.leave()
	if !tx.writable {
		return false, ErrTxReadOnly
	}
	k, err := tx.snap.Key(p)
	if err != nil {
		return false, err
	}
	m := btree.Mutation{Key: k, Delete: del}
	changed, err := tx.snap.Apply(m)
	if changed {
		tx.writes = append(tx.writes, m)
	}
	return changed, err
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
// transaction, in z order: the merge of the box's elements against the
// pinned snapshot with the buffered writes applied. It accepts
// WithContext; WithTrace is ignored: a transaction's reads are not
// traced.
func (tx *Tx) RangeSearch(box Box, opts ...QueryOption) ([]Point, QueryStats, error) {
	qc := queryOptions(opts)
	ctx := tx.statementCtx(&qc)
	if err := tx.begin(ctx); err != nil {
		return nil, QueryStats{}, err
	}
	defer tx.db.gate.leave()
	return tx.snap.RangeSearchCtx(ctx, box, nil)
}

// RangeSearchFunc streams the transaction's view of the box to fn in
// z order; returning false stops the stream early. Unlike
// DB.RangeSearchFunc it collects the answer first and streams from
// memory, so that fn may write to the transaction: a write during the
// merge would change the sequence the merge steps.
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
func (tx *Tx) Len() int { return tx.snap.Len() }

// Nearest returns the m points of the transaction's view nearest to
// q, as DB.Nearest finds them on the view. Options as in RangeSearch.
func (tx *Tx) Nearest(q []uint32, m int, metric Metric, opts ...QueryOption) ([]Neighbor, QueryStats, error) {
	qc := queryOptions(opts)
	ctx := tx.statementCtx(&qc)
	if err := tx.begin(ctx); err != nil {
		return nil, QueryStats{}, err
	}
	defer tx.db.gate.leave()
	return tx.snap.NearestCtx(ctx, q, m, metric, nil)
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
	err := db.index.Tree().CommitBatch(tx.snap.Seq(), tx.writes)
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
