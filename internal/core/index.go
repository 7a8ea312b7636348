package core

import (
	"bytes"
	"fmt"
	"sync"

	"blobdb/internal/blob"
	"blobdb/internal/btree"
	"blobdb/internal/sha256x"
)

// ContentIndex is the §III-F Blob State index: a B-tree whose keys are
// encoded Blob States ordered by BLOB *content* through the incremental
// comparator — no BLOB copy is stored in the index (unlike SQLite's
// WITHOUT-ROWID approach), and arbitrary sizes are indexed (unlike
// MySQL/PostgreSQL prefix indexes).
type ContentIndex struct {
	db   *DB
	rel  *Relation
	mu   sync.RWMutex
	tree *btree.Tree

	// probeErr records comparator failures (comparators cannot return
	// errors through the btree interface).
	probeErr error
}

// index keys are tagged: a stored key is an encoded Blob State; a probe key
// carries the raw query bytes so lookups need no allocation on the device.
const (
	idxKeyState byte = 'S'
	idxKeyRaw   byte = 'R'
)

func encodeStateKey(st *blob.State) []byte {
	return append([]byte{idxKeyState}, st.Encode()...)
}

// encodeRawKey builds a probe key: the query's SHA-256 is computed once
// here so the comparator's equality shortcut never rehashes the query
// during tree descent.
func encodeRawKey(content []byte) []byte {
	h := sha256x.Sum(content)
	out := make([]byte, 0, 1+32+len(content))
	out = append(out, idxKeyRaw)
	out = append(out, h[:]...)
	return append(out, content...)
}

// decodeRawKey splits a probe key into its precomputed hash and content.
func decodeRawKey(k []byte) (sha [32]byte, content []byte) {
	copy(sha[:], k[1:33])
	return sha, k[33:]
}

// CreateContentIndex builds a Blob State index over the relation's BLOB
// column, populating it from existing tuples.
func (db *DB) CreateContentIndex(relName string) (*ContentIndex, error) {
	r, err := db.Relation(relName)
	if err != nil {
		return nil, err
	}
	idx := &ContentIndex{db: db, rel: r}
	idx.tree = btree.New(idx.compare)

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.contentIdx != nil {
		return nil, fmt.Errorf("core: %q already has a content index", relName)
	}
	r.tree.Ascend(nil, func(k, v []byte) bool {
		tag, payload, err := decodeValue(v)
		if err != nil || tag != tagBlob {
			return true
		}
		st, err := blob.Decode(payload)
		if err != nil {
			return true
		}
		idx.tree.Put(encodeStateKey(st), k)
		return true
	})
	r.contentIdx = idx
	return idx, nil
}

// ContentIndexOf returns the relation's content index, if any.
func (db *DB) ContentIndexOf(relName string) (*ContentIndex, error) {
	r, err := db.Relation(relName)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.contentIdx == nil {
		return nil, fmt.Errorf("core: %q has no content index", relName)
	}
	return r.contentIdx, nil
}

// compare implements the incremental comparator (§III-F) over tagged index
// keys. State/state pairs use SHA-256 equality, embedded prefixes, then
// extent-incremental content comparison; raw probes compare query bytes
// against streamed content.
func (ci *ContentIndex) compare(a, b []byte) int {
	c, err := ci.compareErr(a, b)
	if err != nil && ci.probeErr == nil {
		ci.probeErr = err
	}
	return c
}

func (ci *ContentIndex) compareErr(a, b []byte) (int, error) {
	if len(a) == 0 || len(b) == 0 {
		return len(a) - len(b), nil
	}
	ta, tb := a[0], b[0]
	switch {
	case ta == idxKeyState && tb == idxKeyState:
		sa, err := blob.Decode(a[1:])
		if err != nil {
			return 0, err
		}
		sb, err := blob.Decode(b[1:])
		if err != nil {
			return 0, err
		}
		return ci.db.blobs.Compare(nil, sa, sb)
	case ta == idxKeyState && tb == idxKeyRaw:
		sa, err := blob.Decode(a[1:])
		if err != nil {
			return 0, err
		}
		sh, content := decodeRawKey(b)
		return ci.compareStateRaw(sa, content, sh)
	case ta == idxKeyRaw && tb == idxKeyState:
		sb, err := blob.Decode(b[1:])
		if err != nil {
			return 0, err
		}
		sh, content := decodeRawKey(a)
		c, err := ci.compareStateRaw(sb, content, sh)
		return -c, err
	default:
		_, ca := decodeRawKey(a)
		_, cb := decodeRawKey(b)
		return bytes.Compare(ca, cb), nil
	}
}

// compareStateRaw orders a stored BLOB against raw query bytes, streaming
// the stored content one extent at a time.
func (ci *ContentIndex) compareStateRaw(st *blob.State, raw []byte, rawSHA [32]byte) (int, error) {
	// Fast paths mirroring the state/state comparator: hash then prefix.
	if st.Size == uint64(len(raw)) && rawSHA == st.SHA256 {
		return 0, nil
	}
	pr := raw
	if len(pr) > blob.PrefixLen {
		pr = pr[:blob.PrefixLen]
	}
	pa := st.PrefixBytes()
	minP := len(pa)
	if len(pr) < minP {
		minP = len(pr)
	}
	if c := bytes.Compare(pa[:minP], pr[:minP]); c != 0 {
		return c, nil
	}
	if st.Size <= blob.PrefixLen || len(raw) <= blob.PrefixLen {
		return cmpLen(st.Size, uint64(len(raw))), nil
	}
	// Incremental content comparison against the query bytes.
	result := 0
	pos := 0
	err := ci.db.blobs.Stream(nil, st, func(chunk []byte) bool {
		n := len(chunk)
		if pos+n > len(raw) {
			n = len(raw) - pos
		}
		if n > 0 {
			if c := bytes.Compare(chunk[:n], raw[pos:pos+n]); c != 0 {
				result = c
				return false
			}
			pos += n
		}
		if n < len(chunk) {
			result = 1 // stored blob longer than query
			return false
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	if result != 0 {
		return result, nil
	}
	return cmpLen(st.Size, uint64(len(raw))), nil
}

func cmpLen(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// LookupExact returns the primary keys of BLOBs whose content equals query
// (point query via SHA-256, §III-F).
func (ci *ContentIndex) LookupExact(query []byte) ([][]byte, error) {
	ci.mu.RLock()
	defer ci.mu.RUnlock()
	probe := encodeRawKey(query)
	qh := sha256x.Sum(query)
	var out [][]byte
	ci.tree.Ascend(probe, func(k, v []byte) bool {
		if len(k) == 0 || k[0] != idxKeyState {
			return false
		}
		st, err := blob.Decode(k[1:])
		if err != nil {
			return false
		}
		if st.Size != uint64(len(query)) || st.SHA256 != qh {
			return false
		}
		out = append(out, append([]byte(nil), v...))
		return true
	})
	return out, ci.takeErr()
}

// Range invokes fn for each indexed BLOB with content in [from, to) in
// content order. nil to means unbounded.
func (ci *ContentIndex) Range(from, to []byte, fn func(primaryKey []byte, st *blob.State) bool) error {
	ci.mu.RLock()
	defer ci.mu.RUnlock()
	ci.tree.Ascend(encodeRawKey(from), func(k, v []byte) bool {
		st, err := blob.Decode(k[1:])
		if err != nil {
			return false
		}
		if to != nil {
			if c, _ := ci.compareErr(k, encodeRawKey(to)); c >= 0 {
				return false
			}
		}
		return fn(v, st)
	})
	return ci.takeErr()
}

func (ci *ContentIndex) takeErr() error {
	err := ci.probeErr
	ci.probeErr = nil
	return err
}

// Stats reports the index shape (Table III).
func (ci *ContentIndex) Stats() btree.Stats {
	ci.mu.RLock()
	defer ci.mu.RUnlock()
	return ci.tree.Stats()
}

func (ci *ContentIndex) put(key []byte, st *blob.State) {
	ci.mu.Lock()
	ci.tree.Put(encodeStateKey(st), key)
	ci.mu.Unlock()
}

func (ci *ContentIndex) del(st *blob.State) {
	ci.mu.Lock()
	ci.tree.Delete(encodeStateKey(st))
	ci.mu.Unlock()
}

// SemanticIndex implements §III-F expression indexes: tuples are indexed by
// a user-defined function of the BLOB content (e.g. classify(content)).
type SemanticIndex struct {
	name string
	fn   func(content []byte) []byte
	mu   sync.RWMutex
	tree *btree.Tree
}

// CreateSemanticIndex builds an expression index over the relation's BLOB
// content: CREATE INDEX name ON rel(fn(content)).
func (db *DB) CreateSemanticIndex(relName, idxName string, fn func(content []byte) []byte) (*SemanticIndex, error) {
	r, err := db.Relation(relName)
	if err != nil {
		return nil, err
	}
	idx := &SemanticIndex{name: idxName, fn: fn, tree: btree.New(nil)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.semanticIdx[idxName]; ok {
		return nil, fmt.Errorf("core: index %q already exists on %q", idxName, relName)
	}
	var buildErr error
	r.tree.Ascend(nil, func(k, v []byte) bool {
		tag, payload, err := decodeValue(v)
		if err != nil || tag != tagBlob {
			return true
		}
		st, err := blob.Decode(payload)
		if err != nil {
			buildErr = err
			return false
		}
		content, err := db.blobs.ReadAll(nil, st)
		if err != nil {
			buildErr = err
			return false
		}
		idx.insert(fn(content), k)
		return true
	})
	if buildErr != nil {
		return nil, buildErr
	}
	r.semanticIdx[idxName] = idx
	return idx, nil
}

// SemanticIndexOf returns a named semantic index.
func (db *DB) SemanticIndexOf(relName, idxName string) (*SemanticIndex, error) {
	r, err := db.Relation(relName)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	idx, ok := r.semanticIdx[idxName]
	if !ok {
		return nil, fmt.Errorf("core: no index %q on %q", idxName, relName)
	}
	return idx, nil
}

// semantic index entries: key = fnval \x00 primaryKey (duplicate fn values
// allowed), value = primaryKey.
func (si *SemanticIndex) insert(fnval, primary []byte) {
	k := append(append(append([]byte(nil), fnval...), 0), primary...)
	si.mu.Lock()
	si.tree.Put(k, primary)
	si.mu.Unlock()
}

func (si *SemanticIndex) remove(fnval, primary []byte) {
	k := append(append(append([]byte(nil), fnval...), 0), primary...)
	si.mu.Lock()
	si.tree.Delete(k)
	si.mu.Unlock()
}

// Lookup returns the primary keys whose fn(content) equals value — the
// paper's SELECT * FROM image WHERE classify(content)='cat'.
func (si *SemanticIndex) Lookup(value []byte) [][]byte {
	prefix := append(append([]byte(nil), value...), 0)
	var out [][]byte
	si.mu.RLock()
	defer si.mu.RUnlock()
	si.tree.Ascend(prefix, func(k, v []byte) bool {
		if !bytes.HasPrefix(k, prefix) {
			return false
		}
		out = append(out, append([]byte(nil), v...))
		return true
	})
	return out
}

// Len returns the number of index entries.
func (si *SemanticIndex) Len() int {
	si.mu.RLock()
	defer si.mu.RUnlock()
	return si.tree.Len()
}

// ---- index maintenance hooks called by the transaction layer ----

// updateIndexesOnPutState indexes a staged Blob State; semantic indexes
// reread the BLOB.
func (t *Txn) updateIndexesOnPutState(r *Relation, key []byte, st *blob.State) {
	r.mu.RLock()
	ci := r.contentIdx
	hasSem := len(r.semanticIdx) > 0
	r.mu.RUnlock()
	if ci != nil {
		ci.put(key, st)
	}
	if hasSem {
		content, err := t.db.blobs.ReadAll(t.meter, st)
		if err != nil {
			return
		}
		r.mu.RLock()
		for _, s := range r.semanticIdx {
			s.insert(s.fn(content), key)
		}
		r.mu.RUnlock()
	}
}

func (t *Txn) updateIndexesOnDelete(r *Relation, key []byte, st *blob.State) {
	r.mu.RLock()
	ci := r.contentIdx
	hasSem := len(r.semanticIdx) > 0
	r.mu.RUnlock()
	if ci != nil {
		ci.del(st)
	}
	if hasSem {
		content, err := t.db.blobs.ReadAll(t.meter, st)
		if err != nil {
			return
		}
		r.mu.RLock()
		for _, s := range r.semanticIdx {
			s.remove(s.fn(content), key)
		}
		r.mu.RUnlock()
	}
}

// rebuildIndexTouched rebuilds the indexes of every relation touched by an
// aborted transaction. Index structures are non-transactional; rebuilding
// from the (already rolled back) relation restores consistency.
func (db *DB) rebuildIndexTouched(undo []undoOp) {
	seen := map[*Relation]bool{}
	for _, u := range undo {
		if seen[u.rel] {
			continue
		}
		seen[u.rel] = true
		db.rebuildIndexes(u.rel)
	}
}

func (db *DB) rebuildIndexes(r *Relation) {
	r.mu.Lock()
	ci := r.contentIdx
	sems := r.semanticIdx
	type entry struct {
		k  []byte
		st *blob.State
	}
	var entries []entry
	r.tree.Ascend(nil, func(k, v []byte) bool {
		tag, payload, err := decodeValue(v)
		if err != nil || tag != tagBlob {
			return true
		}
		st, err := blob.Decode(payload)
		if err != nil {
			return true
		}
		entries = append(entries, entry{append([]byte(nil), k...), st})
		return true
	})
	r.mu.Unlock()

	if ci != nil {
		ci.mu.Lock()
		ci.tree = btree.New(ci.compare)
		for _, e := range entries {
			ci.tree.Put(encodeStateKey(e.st), e.k)
		}
		ci.mu.Unlock()
	}
	for _, s := range sems {
		s.mu.Lock()
		s.tree = btree.New(nil)
		s.mu.Unlock()
		for _, e := range entries {
			content, err := db.blobs.ReadAll(nil, e.st)
			if err != nil {
				continue
			}
			s.insert(s.fn(content), e.k)
		}
	}
}
