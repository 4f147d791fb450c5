package main

import (
	"context"
	"errors"
	"fmt"
	"math"

	"probe"
	"probe/client"
	"probe/internal/core"
	"probe/internal/decompose"
	"probe/internal/geom"
)

// answer is what an operation returned, reduced to what the checks
// need: a digest of the static part (ids below dynBase) that is equal
// for equal answers, and the counts.
type answer struct {
	digest uint64
	n      int // rows, neighbours, pairs, or the COUNT(*) value
	stats  probe.QueryStats
	// traced requests only:
	timing client.Timing
	tree   *probe.Trace
}

// target is a path operations are sent down: the library in-process
// or a connection to a server or router.
type target interface {
	// do executes one operation. With trace set the answer carries the
	// server's timing breakdown and span tree where the path has them.
	do(o *op, trace bool) (answer, error)
	// points returns the points in a box, for the checks that need
	// more than a digest.
	points(lo, hi []uint32) ([]probe.Point, error)
	close() error
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

func digestPoints(pts []probe.Point) uint64 {
	h := uint64(fnvOffset)
	for _, p := range pts {
		if p.ID >= dynBase {
			continue
		}
		h = mix(mix(mix(h, p.ID), uint64(p.Coords[0])), uint64(p.Coords[1]))
	}
	return h
}

// digestNeighbors hashes the distances only: two correct answers may
// break a tie at equal distance differently.
func digestNeighbors(nbs []probe.Neighbor) uint64 {
	h := uint64(fnvOffset)
	for _, n := range nbs {
		h = mix(h, math.Float64bits(n.Dist))
	}
	return h
}

// digestPairs is order-independent: the router may emit the distinct
// pairs in another order than one node does.
func digestPairs(pairs []probe.Pair) uint64 {
	var h uint64
	for _, p := range pairs {
		h += mix(mix(fnvOffset, p.A), p.B)
	}
	return h
}

func digestRows(rows []probe.QueryRow) (uint64, int, error) {
	h := uint64(fnvOffset)
	for _, r := range rows {
		if len(r) != 1 {
			return 0, 0, fmt.Errorf("query row has %d columns, want 1", len(r))
		}
		switch v := r[0].(type) {
		case uint64:
			if v < dynBase {
				h = mix(h, v)
			}
		case int64:
			h = mix(h, uint64(v))
		default:
			return 0, 0, fmt.Errorf("query value has type %T", r[0])
		}
	}
	return h, len(rows), nil
}

// countOf extracts the value of a COUNT(*) result. The dialect answers
// an aggregate over no rows with no row, which counts as zero.
func countOf(rows []probe.QueryRow) (int, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	if len(rows) != 1 || len(rows[0]) != 1 {
		return 0, fmt.Errorf("COUNT(*) returned %d rows", len(rows))
	}
	switch v := rows[0][0].(type) {
	case int64:
		return int(v), nil
	case uint64:
		return int(v), nil
	}
	return 0, fmt.Errorf("COUNT(*) value has type %T", rows[0][0])
}

func containsAll(got, want []probe.Point) bool {
	for _, w := range want {
		found := false
		for _, p := range got {
			if p.ID == w.ID {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// errTxReadOwnWrites marks a transaction whose own buffered inserts
// were missing from its range read.
var errTxReadOwnWrites = errors.New("tx: range did not return the transaction's own inserts")

// embedTarget runs operations on a probe.DB in this process, with the
// library calls the server's handlers make.
type embedTarget struct {
	db  *probe.DB
	ctx context.Context
}

func (t *embedTarget) close() error { return nil }

func (t *embedTarget) points(lo, hi []uint32) ([]probe.Point, error) {
	box, err := geom.NewBox(lo, hi)
	if err != nil {
		return nil, err
	}
	pts, _, err := t.db.RangeSearch(box)
	return pts, err
}

func (t *embedTarget) do(o *op, trace bool) (answer, error) {
	var tr *probe.Trace
	if trace {
		tr = probe.NewTrace(o.kind.String())
		defer tr.End()
	}
	ans := answer{tree: tr}
	switch o.kind {
	case opRange, opScan:
		box, err := geom.NewBox(o.lo, o.hi)
		if err != nil {
			return ans, err
		}
		pts, st, err := t.db.RangeSearch(box, probe.WithTrace(tr))
		ans.digest, ans.n, ans.stats = digestPoints(pts), len(pts), st
		return ans, err
	case opNearest:
		nbs, st, err := t.db.Nearest(o.q, 8, probe.Euclidean, probe.WithTrace(tr))
		ans.digest, ans.n, ans.stats = digestNeighbors(nbs), len(nbs), st
		return ans, err
	case opQuery:
		res, err := t.db.Query(t.ctx, o.text)
		if err != nil {
			return ans, err
		}
		ans.stats = res.Stats
		if o.count {
			ans.n, err = countOf(res.Rows)
			return ans, err
		}
		ans.digest, ans.n, err = digestRows(res.Rows)
		return ans, err
	case opJoin:
		a, err := decomposeItems(t.db.Grid(), o.a)
		if err != nil {
			return ans, err
		}
		b, err := decomposeItems(t.db.Grid(), o.b)
		if err != nil {
			return ans, err
		}
		pairs, st, err := probe.SpatialJoin(a, b, probe.WithTrace(tr))
		ans.digest, ans.n, ans.stats = digestPairs(pairs), len(pairs), st
		return ans, err
	case opInsert:
		ans.n = len(o.pts)
		return ans, t.db.InsertAll(o.pts)
	case opDelete:
		for _, p := range o.pts {
			ok, err := t.db.Delete(p)
			if err != nil {
				return ans, err
			}
			if ok {
				ans.n++
			}
		}
		return ans, nil
	case opTx:
		box, err := geom.NewBox(o.lo, o.hi)
		if err != nil {
			return ans, err
		}
		err = t.db.Update(t.ctx, func(tx *probe.Tx) error {
			if err := tx.InsertAll(o.pts); err != nil {
				return err
			}
			seen, _, err := tx.RangeSearch(box)
			if err != nil {
				return err
			}
			if !containsAll(seen, o.pts) {
				return errTxReadOwnWrites
			}
			return nil
		})
		ans.n = len(o.pts)
		return ans, err
	case opCheckpoint:
		st, err := t.db.Checkpoint(probe.WithTrace(tr))
		ans.stats = st
		return ans, err
	}
	return ans, fmt.Errorf("unknown op kind %d", o.kind)
}

// decomposeItems turns a box relation into the z-sorted element
// relation the join merges, as the server's JOIN handler does.
func decomposeItems(g probe.Grid, items []client.BoxItem) ([]probe.Item, error) {
	var out []probe.Item
	for _, it := range items {
		box, err := geom.NewBox(it.Lo, it.Hi)
		if err != nil {
			return nil, err
		}
		for _, el := range decompose.Box(g, box) {
			out = append(out, core.Item{Elem: el, ID: it.ID})
		}
	}
	core.SortItems(out)
	return out, nil
}

// connTarget runs operations over one client connection.
type connTarget struct {
	c      *client.Conn
	ctx    context.Context
	traced bool
}

func (t *connTarget) close() error { return t.c.Close() }

func (t *connTarget) points(lo, hi []uint32) ([]probe.Point, error) {
	pts, _, err := t.c.Range(t.ctx, lo, hi)
	return pts, err
}

func (t *connTarget) do(o *op, trace bool) (answer, error) {
	if trace != t.traced {
		t.c.SetTrace(trace)
		t.traced = trace
	}
	ans, err := t.call(o)
	if trace && err == nil {
		ans.timing = t.c.LastTiming()
		if o.kind.isRead() {
			ans.tree = t.c.LastTraceTree()
		}
	}
	return ans, err
}

func (t *connTarget) call(o *op) (answer, error) {
	var ans answer
	switch o.kind {
	case opRange, opScan:
		pts, st, err := t.c.Range(t.ctx, o.lo, o.hi)
		ans.digest, ans.n, ans.stats = digestPoints(pts), len(pts), st
		return ans, err
	case opNearest:
		nbs, st, err := t.c.Nearest(t.ctx, o.q, 8, probe.Euclidean)
		ans.digest, ans.n, ans.stats = digestNeighbors(nbs), len(nbs), st
		return ans, err
	case opQuery:
		res, err := t.c.Query(t.ctx, o.text)
		if err != nil {
			return ans, err
		}
		ans.stats = res.Stats
		if o.count {
			ans.n, err = countOf(res.Rows)
			return ans, err
		}
		ans.digest, ans.n, err = digestRows(res.Rows)
		return ans, err
	case opJoin:
		pairs, st, err := t.c.Join(t.ctx, o.a, o.b, 0)
		ans.digest, ans.n, ans.stats = digestPairs(pairs), len(pairs), st
		return ans, err
	case opInsert:
		st, err := t.c.Insert(t.ctx, o.pts)
		ans.n, ans.stats = st.Results, st
		return ans, err
	case opDelete:
		st, err := t.c.Delete(t.ctx, o.pts)
		ans.n, ans.stats = st.Results, st
		return ans, err
	case opTx:
		tx, err := t.c.Begin(t.ctx)
		if err != nil {
			return ans, err
		}
		defer tx.Rollback(t.ctx) // a no-op once Commit has ended the transaction
		if _, err := tx.Insert(t.ctx, o.pts); err != nil {
			return ans, err
		}
		seen, _, err := tx.Range(t.ctx, o.lo, o.hi)
		if err != nil {
			return ans, err
		}
		if !containsAll(seen, o.pts) {
			return ans, errTxReadOwnWrites
		}
		_, err = tx.Commit(t.ctx)
		ans.n = len(o.pts)
		return ans, err
	case opCheckpoint:
		st, err := t.c.Checkpoint(t.ctx)
		ans.stats = st
		return ans, err
	}
	return ans, fmt.Errorf("unknown op kind %d", o.kind)
}
