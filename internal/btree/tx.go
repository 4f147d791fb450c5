package btree

import "errors"

// Transaction commit machinery: a multi-statement transaction reads
// from a pinned snapshot (version.go) and buffers its writes; at
// commit the whole write-set is validated and applied here as ONE
// copy-on-write transformation published with a single root swap.
// Because the checkpoint protocol captures whatever root is committed
// at checkpoint time, a batch published this way is atomic across
// crashes for free: recovery sees the pre-batch or the post-batch
// tree, never a mixture.
//
// Validation is first-committer-wins over a commit log: every
// publishing write records the set of keys it changed, stamped with
// the sequence number of the version it published. A transaction that
// pinned its snapshot at sequence b conflicts iff some record with
// seq > b touches a key in its write-set. Records are pruned together
// with retired pages, at seq <= horizon: a live transaction keeps its
// snapshot pinned, which holds the horizon at or below its base
// sequence, so every record it could need survives until it commits
// or rolls back.

// Mutation is one buffered write of a transaction's write-set.
type Mutation struct {
	Key    Key
	Delete bool
}

// ErrConflict is returned by CommitBatch when first-committer-wins
// validation fails: a version published after the transaction's base
// sequence modified a key in its write-set.
var ErrConflict = errors.New("btree: transaction conflict")

// commitRecord is the key-set of one published version, kept for
// optimistic validation until the horizon passes its sequence.
type commitRecord struct {
	seq  uint64
	keys []Key
}

// recordCommitLocked appends the key-set of the version just
// published. Caller holds verMu. Publications that change no keys
// (bulk attach, initial publish) record nothing.
func (t *Tree) recordCommitLocked(seq uint64, keys []Key) {
	if len(keys) == 0 {
		return
	}
	t.commits = append(t.commits, commitRecord{seq: seq, keys: keys})
}

// pruneCommitsLocked drops commit records no live snapshot can need
// (seq <= horizon h) and remembers the highest pruned sequence so a
// validation reaching below it fails conservatively instead of
// silently missing records. Caller holds verMu.
func (t *Tree) pruneCommitsLocked(h uint64) {
	keep := t.commits[:0]
	for _, rec := range t.commits {
		if rec.seq <= h {
			if rec.seq > t.prunedSeq {
				t.prunedSeq = rec.seq
			}
		} else {
			keep = append(keep, rec)
		}
	}
	for i := len(keep); i < len(t.commits); i++ {
		t.commits[i] = commitRecord{}
	}
	t.commits = keep
}

// validateBatch runs first-committer-wins validation for a write-set
// based at baseSeq. It returns ErrConflict when any commit published
// after baseSeq touched one of the keys, or when the commit log no
// longer reaches back to baseSeq (conservative: the missing records
// might have conflicted). Caller holds writeMu.
func (t *Tree) validateBatch(baseSeq uint64, keys map[Key]struct{}) error {
	t.verMu.Lock()
	defer t.verMu.Unlock()
	if baseSeq < t.prunedSeq {
		return ErrConflict
	}
	for _, rec := range t.commits {
		if rec.seq <= baseSeq {
			continue
		}
		for _, k := range rec.keys {
			if _, hit := keys[k]; hit {
				return ErrConflict
			}
		}
	}
	return nil
}

// CommitBatch validates a transaction's write-set against every
// version published after baseSeq (first-committer-wins) and, if it
// passes, applies all mutations in order as one copy-on-write
// transformation, publishing exactly one new version. On ErrConflict
// or any I/O error nothing is published and the tree is unchanged.
//
// Within the batch, deleting an absent key is a no-op and inserting a
// duplicate key fails the whole batch with ErrDuplicateKey (callers
// check duplicates against their snapshot at buffer time, so this
// only fires on misuse), as does inserting a key that sets bits below
// the tree's KeyBits. An empty or all-no-op batch publishes nothing
// and succeeds.
func (t *Tree) CommitBatch(baseSeq uint64, muts []Mutation) error {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()

	keys := make(map[Key]struct{}, len(muts))
	for _, m := range muts {
		keys[m.Key] = struct{}{}
	}
	if err := t.validateBatch(baseSeq, keys); err != nil {
		return err
	}

	base := t.currentVersion()
	w := &cow{t: t}
	v := base
	changed := false
	applied := make([]Key, 0, len(muts))
	for _, m := range muts {
		if m.Delete {
			nv, ok, err := t.deleteCOW(w, v, m.Key)
			if err != nil {
				w.abort()
				return err
			}
			if !ok {
				continue
			}
			v = nv
		} else {
			nv, err := t.insertCOW(w, v, m.Key)
			if err != nil {
				w.abort()
				return err
			}
			v = nv
		}
		changed = true
		applied = append(applied, m.Key)
	}
	if !changed {
		return nil
	}
	// Intermediate chained versions bumped seq once per mutation;
	// collapse to one publication so each commit still advances the
	// sequence by exactly one.
	v.seq = base.seq + 1
	t.commit(v, w.retired, applied)
	return nil
}
