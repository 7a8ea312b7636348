package core

import (
	"encoding/binary"
	"slices"

	"blobdb/internal/wal"
)

// Landing bookkeeping: recovery trusts a Blob State it can prove landed
// and hashes the rest (DESIGN.md §5, "Recovery validation"). Two records
// carry the proof. The group committer logs the extents-landed watermark,
// the highest commit LSN at or below which every transaction's extents
// are durable. And every relation keeps, beside its tree, the keys whose
// tree value a transaction staged that has not landed yet; a checkpoint
// writes them into the image with each key's last landed value, so
// recovery can tell the image's landed state from its in-flight writes.

// stagedKey is one key staged by a transaction that has not landed.
type stagedKey struct {
	txn    *Txn
	prev   *Txn   // a failed transaction txn took the key over from; restored if txn rolls back
	landed []byte // the key's last landed tagged value; nil when it was absent
}

// stage registers key as staged by t, whose write replaced old (nil: the
// key was absent). The first staging records the landed value. A key can
// only be held by another transaction that failed its commit, since locks
// are released once a transaction lands or rolls back; that value never
// landed, so the landed value stays. Called with r.mu held.
func (r *Relation) stage(t *Txn, key, old []byte) {
	if r.staged == nil {
		r.staged = map[string]*stagedKey{}
	}
	switch e := r.staged[string(key)]; {
	case e == nil:
		r.staged[string(key)] = &stagedKey{txn: t, landed: old}
	case e.txn != t:
		e.prev, e.txn = e.txn, t
	}
}

// unstage undoes t's registration of key on rollback. Called with r.mu
// held.
func (r *Relation) unstage(t *Txn, key []byte) {
	e := r.staged[string(key)]
	switch {
	case e == nil || e.txn != t:
	case e.prev != nil:
		e.txn, e.prev = e.prev, nil
	default:
		delete(r.staged, string(key))
	}
}

// land drops every key t staged from the in-flight registry: t's extents
// have landed. It runs under landMu, so no checkpoint capture observes a
// transaction half landed.
func (db *DB) land(txns []*Txn) {
	var top uint64
	all := true
	db.landMu.Lock()
	for _, t := range txns {
		if t.flushErr != nil {
			all = false
			continue
		}
		for _, u := range t.undo {
			r := u.rel
			r.mu.Lock()
			if e := r.staged[string(u.key)]; e != nil && e.txn == t {
				delete(r.staged, string(u.key))
			}
			r.mu.Unlock()
		}
		top = max(top, t.commitLSN)
	}
	db.landMu.Unlock()
	if all {
		db.commit.advanceLanded(top)
	}
}

// advanceLanded raises the landed watermark to lsn unless a commit has
// failed.
func (c *committer) advanceLanded(lsn uint64) {
	for {
		old := c.landedW.Load()
		if lsn <= old || c.wStopped.Load() || c.landedW.CompareAndSwap(old, lsn) {
			return
		}
	}
}

// stopWatermark freezes the watermark: a commit failed, so its commit LSN
// may lie below later landed flights' and must never be covered.
func (c *committer) stopWatermark() { c.wStopped.Store(true) }

// logWatermark appends a RecLanded record to t's log buffer when a
// completed sync covers landings not yet logged, so the record rides in
// the batch's own flush. It returns the logged value, 0 when none.
func (db *DB) logWatermark(t *Txn) (uint64, error) {
	c := db.commit
	w := c.syncedW
	if w <= c.loggedW || c.wStopped.Load() {
		return 0, nil
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], w)
	if _, err := t.log().AppendLSN(nil, 0, wal.RecLanded, b[:]); err != nil {
		return 0, err
	}
	return w, nil
}

// inflightKey is one in-flight entry of a checkpoint image.
type inflightKey struct {
	key     []byte
	txn     uint64
	written bool   // the transaction's commit record was in a written log block at capture
	landed  []byte // last landed tagged value; nil when absent
}

const (
	inflightWritten = 1 << iota
	inflightHasLanded
)

// appendInflight serializes r's in-flight registry in key order. Called
// with r.mu held, under the WAL manager lock.
func (r *Relation) appendInflight(body []byte) []byte {
	keys := make([]string, 0, len(r.staged))
	for k := range r.staged {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(keys)))
	for _, k := range keys {
		e := r.staged[k]
		var flags byte
		if w := e.txn.writer; w != nil && w.CommitWritten() {
			flags |= inflightWritten
		}
		if e.landed != nil {
			flags |= inflightHasLanded
		}
		body = binary.LittleEndian.AppendUint32(body, uint32(len(k)))
		body = append(body, k...)
		body = binary.LittleEndian.AppendUint64(body, e.txn.id)
		body = append(body, flags)
		if e.landed != nil {
			body = binary.LittleEndian.AppendUint32(body, uint32(len(e.landed)))
			body = append(body, e.landed...)
		}
	}
	return body
}
