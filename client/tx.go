package client

import (
	"context"
	"fmt"

	"probe"
	"probe/internal/wire"
)

// Tx is a multi-statement transaction on one connection, mirroring
// the server's semantics (docs/transactions.md): every read observes
// the snapshot pinned at Begin with this transaction's own buffered
// writes overlaid, no other connection sees anything until Commit,
// and Commit either applies the whole write-set atomically or fails
// with ErrTxConflict when a concurrent committer touched one of its
// keys first.
//
// A Tx owns its connection until it ends: requests on the parent Conn
// run inside the transaction server-side, so issue the transaction's
// statements through the Tx. The server rolls the transaction back if
// the connection drops or sits idle past its transaction idle
// timeout; the next statement then fails server-side.
type Tx struct {
	c     *Conn
	ended bool
}

// Begin opens a transaction on the connection (protocol 1.2). At most
// one transaction may be open per connection; end it with exactly one
// Commit or Rollback (Rollback after Commit is a safe no-op).
func (c *Conn) Begin(ctx context.Context) (*Tx, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tx != nil && !c.tx.ended {
		return nil, fmt.Errorf("probed: a transaction is already open on this connection")
	}
	id := c.begin()
	req := wire.SimpleReq{Header: wire.Header{ID: id, TimeoutMS: timeoutMS(ctx), Flags: c.reqFlags()}}
	if _, err := do(c, ctx, wire.MsgBegin, req, id, handlers{}); err != nil {
		return nil, err
	}
	tx := &Tx{c: c}
	c.tx = tx
	return tx, nil
}

// enter claims the connection for one transaction statement; the
// returned release must be called when the statement ends.
func (tx *Tx) enter() (func(), error) {
	tx.c.mu.Lock()
	if tx.ended {
		tx.c.mu.Unlock()
		return nil, ErrTxAborted
	}
	return tx.c.mu.Unlock, nil
}

// Insert buffers a batch of points in the transaction's write-set.
// Duplicates are checked against the transaction's view, so
// re-inserting a key deleted earlier in the transaction succeeds.
func (tx *Tx) Insert(ctx context.Context, pts []probe.Point) (probe.QueryStats, error) {
	release, err := tx.enter()
	if err != nil {
		return probe.QueryStats{}, err
	}
	defer release()
	return tx.c.writeLocked(ctx, wire.MsgInsert, pts)
}

// Delete buffers deletions against the transaction's view. The
// returned stats carry in Results how many of the points were present
// (and are now buffered for deletion).
func (tx *Tx) Delete(ctx context.Context, pts []probe.Point) (probe.QueryStats, error) {
	release, err := tx.enter()
	if err != nil {
		return probe.QueryStats{}, err
	}
	defer release()
	return tx.c.writeLocked(ctx, wire.MsgDelete, pts)
}

// Range returns every point in the box as the transaction sees it:
// the pinned snapshot plus this transaction's buffered writes.
func (tx *Tx) Range(ctx context.Context, lo, hi []uint32) ([]probe.Point, probe.QueryStats, error) {
	release, err := tx.enter()
	if err != nil {
		return nil, probe.QueryStats{}, err
	}
	defer release()
	return tx.c.rangeLocked(ctx, lo, hi)
}

// RangeFunc streams the transaction's view of the box to fn in z
// order; returning false stops the stream without error.
func (tx *Tx) RangeFunc(ctx context.Context, lo, hi []uint32, fn func(probe.Point) bool) (probe.QueryStats, error) {
	release, err := tx.enter()
	if err != nil {
		return probe.QueryStats{}, err
	}
	defer release()
	return tx.c.rangeFuncLocked(ctx, lo, hi, fn)
}

// Nearest returns the m points of the transaction's view nearest q.
func (tx *Tx) Nearest(ctx context.Context, q []uint32, m int, metric probe.Metric) ([]probe.Neighbor, probe.QueryStats, error) {
	release, err := tx.enter()
	if err != nil {
		return nil, probe.QueryStats{}, err
	}
	defer release()
	return tx.c.nearestLocked(ctx, q, m, metric)
}

// Query runs one spatial SQL statement on the transaction's view: the
// pinned snapshot plus this transaction's buffered writes.
func (tx *Tx) Query(ctx context.Context, text string) (*QueryResult, error) {
	release, err := tx.enter()
	if err != nil {
		return nil, err
	}
	defer release()
	return tx.c.queryLocked(ctx, text)
}

// QueryFunc streams a statement's rows from the transaction's view;
// returning false from onRow stops the query without error.
func (tx *Tx) QueryFunc(ctx context.Context, text string, onSchema func([]probe.QueryColumn), onRow func(probe.QueryRow) bool) (probe.QueryStats, error) {
	release, err := tx.enter()
	if err != nil {
		return probe.QueryStats{}, err
	}
	defer release()
	return tx.c.queryFuncLocked(ctx, text, onSchema, onRow)
}

// Commit applies the transaction's write-set atomically. It returns
// an error matching ErrTxConflict when first-committer-wins
// validation fails — the transaction is then over and can be retried
// from Begin. The returned stats carry the number of applied write
// statements in Results.
func (tx *Tx) Commit(ctx context.Context) (probe.QueryStats, error) {
	release, err := tx.enter()
	if err != nil {
		return probe.QueryStats{}, err
	}
	defer release()
	tx.ended = true
	tx.c.tx = nil
	id := tx.c.begin()
	req := wire.SimpleReq{Header: wire.Header{ID: id, TimeoutMS: timeoutMS(ctx), Flags: tx.c.reqFlags()}}
	return do(tx.c, ctx, wire.MsgCommit, req, id, handlers{})
}

// Rollback discards the transaction. It is a no-op on a transaction
// that already ended, so `defer tx.Rollback(ctx)` after Begin is
// always safe.
func (tx *Tx) Rollback(ctx context.Context) error {
	release, err := tx.enter()
	if err != nil {
		return nil // already ended: deliberate no-op
	}
	defer release()
	tx.ended = true
	tx.c.tx = nil
	id := tx.c.begin()
	req := wire.SimpleReq{Header: wire.Header{ID: id, TimeoutMS: timeoutMS(ctx), Flags: tx.c.reqFlags()}}
	_, err = do(tx.c, ctx, wire.MsgRollback, req, id, handlers{})
	return err
}
