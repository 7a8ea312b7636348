package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"blobdb/internal/blob"
	"blobdb/internal/storage"
	"blobdb/internal/wal"
)

// Content-addressed deduplication (ROADMAP: dedup + CoW versioning).
//
// Blob State already carries the full SHA-256 of the content (§III-B), so
// a committed PUT whose hash (and size) matches an existing blob can share
// that blob's extent sequence instead of allocating a duplicate. Sharing
// makes extent ownership plural, so the engine keeps a refcount ledger:
// one entry per device extent referenced by MORE than one tuple. The
// ledger is sparse — an extent with no entry has exactly one referencing
// tuple (or none, if it is free) — which keeps the common unshared case
// free of bookkeeping.
//
// Mutation protocol (all under dedup.mu, WAL records appended after the
// mutex is released so the lock order never inverts against the
// checkpoint path, which runs under the WAL manager's lock and snapshots
// the ledger):
//
//   - Share (increment): at PUT-seal time, or when a transfer adopts
//     content the engine already holds (Install, transfer.go). The
//     sharing transaction logs a RecRefDelta batch under its own txn id,
//     so recovery counts the increments exactly when it replays the
//     transaction.
//   - Release (decrement): at deferred-free APPLY time, not at stage
//     time. Every free a transaction stages flows to the epoch reclaimer
//     unfiltered; when the reclaimer applies a batch, frees whose extent
//     has a ledger entry decrement it instead of freeing. Deciding at
//     apply time makes concurrent share-vs-delete races safe by
//     construction: a share staged before the deleting transaction
//     deregistered the content entry is visible to the filter by the time
//     the frees apply. Decrements are logged on a dedicated writer under
//     the id of the transaction that STAGED the free — never txn 0 —
//     because recovery can mark a committed transaction failed (commit
//     record durable, extent writes torn) and revert its tuple to the old
//     state that still references the shared extent; replaying that
//     transaction's decrement anyway would under-count the surviving
//     reference and arm a double-free. Tagging the decrement with the
//     owner makes replay skip it exactly when the reference survives.
//   - Abort undo: a rolled-back share is undone in memory only — its
//     increment record belongs to an uncommitted transaction and is
//     skipped at replay, so no compensation record is needed. If the
//     entry is already gone (the other owner released it first), the
//     extent now belongs solely to the rolled-back tuple and is freed.
//
// Recovery contract (recover.go): the checkpoint image carries the ledger
// with a mutation-sequence fence; replay applies RecRefDelta batches with
// seq above the fence, in seq order, for committed non-failed
// transactions plus txn 0. The replayed ledger is then RECONCILED against
// a recount of references from the surviving tuples — the recount is
// authoritative. A replayed count above the recount is legal (a
// transaction in flight at the crash) and is clamped; a replayed count
// BELOW the recount means an increment was lost, i.e. a double-free was
// armed, and recovery fails loudly.
type dedup struct {
	mu     sync.Mutex
	index  map[contentKey]*blob.State // content hash+size -> a committed owner's state
	ledger map[storage.PID]uint64     // extent -> reference count; present only when >= 2
	seq    uint64                     // mutation-batch counter; the checkpoint fence

	decMu sync.Mutex  // serializes the apply-time decrement writer
	decw  *wal.Writer // txn-0 RecRefDelta appends (deferred-release log)

	// Counters (under mu); exposed via DedupStats.
	hits        uint64
	sharedBytes uint64
	incs        uint64
	decs        uint64
	orphans     uint64
}

// contentKey identifies blob content: the full SHA-256 plus the size (a
// hash collision across different sizes can never alias).
type contentKey struct {
	sha  [32]byte
	size uint64
}

// refDelta is one ledger mutation inside a RecRefDelta batch.
type refDelta struct {
	PID   storage.PID
	Delta int8 // +1 or -1
}

func (d *dedup) init(decw *wal.Writer) {
	d.index = map[contentKey]*blob.State{}
	d.ledger = map[storage.PID]uint64{}
	d.decw = decw
}

func stateKey(st *blob.State) contentKey {
	return contentKey{sha: st.SHA256, size: st.Size}
}

// shareable reports whether a state owns device extents worth sharing.
// Empty and purely inline-sized blobs are excluded.
func shareable(st *blob.State) bool {
	return st != nil && st.Size > 0 && (len(st.Extents) > 0 || st.HasTail())
}

// sameSequence reports whether two states reference the identical extent
// sequence (same PIDs, same tail).
func sameSequence(a, b *blob.State) bool {
	if len(a.Extents) != len(b.Extents) || a.Tail != b.Tail {
		return false
	}
	for i := range a.Extents {
		if a.Extents[i] != b.Extents[i] {
			return false
		}
	}
	return true
}

// statePIDs lists every extent PID a state references (tiered + tail).
func statePIDs(st *blob.State) []storage.PID {
	pids := make([]storage.PID, 0, len(st.Extents)+1)
	pids = append(pids, st.Extents...)
	if st.HasTail() {
		pids = append(pids, st.Tail.PID)
	}
	return pids
}

// tryDedup runs at PUT-seal time (OnSeal, create mode, before the old
// blob at the key is scheduled for freeing): if a committed blob with the
// same content exists, the freshly written extents are discarded and the
// transaction adopts the existing extent sequence through share. Returns
// the shared state, or nil when no candidate matches (or logging the
// increments failed, in which case the private copy is kept — dedup is an
// optimization, never a correctness dependency).
func (t *Txn) tryDedup(st *blob.State, p *blob.Pending) *blob.State {
	if !shareable(st) {
		return nil
	}
	shared := t.share(stateKey(st), st)
	if shared == nil {
		return nil
	}
	// The private extents this writer just allocated are returned to the
	// allocator (their flushed bytes are the cost of
	// hashing-before-knowing, §III-C stream mode).
	p.Discard(p.News)
	p.News = nil
	// The adopted state describes identical content, so the hash,
	// intermediate state, and prefix carry over from the fresh write.
	shared.Intermediate = st.Intermediate
	return shared
}

// share adopts the committed extent sequence the content index holds for
// ck — for a dedup PUT and a transfer alike — incrementing and logging
// each extent's refcount. A candidate with fresh's very sequence is no
// share. Returns the adopted state, or nil on a miss or a failed append.
func (t *Txn) share(ck contentKey, fresh *blob.State) *blob.State {
	d := &t.db.dedup
	d.mu.Lock()
	cand := d.index[ck]
	if cand == nil || (fresh != nil && sameSequence(cand, fresh)) {
		d.mu.Unlock()
		return nil
	}
	specs := t.db.blobs.Delete(cand) // every extent of the candidate, as free specs
	entries := make([]refDelta, 0, len(specs))
	for _, s := range specs {
		if v, ok := d.ledger[s.PID]; ok {
			d.ledger[s.PID] = v + 1
		} else {
			d.ledger[s.PID] = 2
		}
		entries = append(entries, refDelta{PID: s.PID, Delta: +1})
	}
	d.seq++
	seq := d.seq
	d.hits++
	d.incs += uint64(len(entries))
	d.sharedBytes += ck.size
	shared := cand.Clone()
	d.mu.Unlock()

	// Log the increments under the sharing transaction's id — outside the
	// ledger mutex (the append can flush, and a flush can checkpoint,
	// which snapshots the ledger). The seq fence keeps replay exact.
	if _, err := t.log().AppendLSN(t.meter, t.id, wal.RecRefDelta, encodeRefDelta(seq, entries)); err != nil {
		t.db.undoShares(t.id, specs)
		return nil
	}
	t.sharedIncs = append(t.sharedIncs, specs...)
	return shared
}

// dedupOnMutate runs when a transaction stages a mutation that will free,
// overwrite, or relocate st's extents: the content-index entry matching
// st's exact sequence is removed (no later PUT may begin sharing a doomed
// sequence) and the result reports whether any extent of st is currently
// shared — the caller must clone, not mutate in place, when it is.
// Deregistration is not undone on abort; the entry reappears when a
// transaction owning the content next commits.
func (db *DB) dedupOnMutate(st *blob.State) (sharedAny bool) {
	if !shareable(st) {
		return false
	}
	d := &db.dedup
	d.mu.Lock()
	defer d.mu.Unlock()
	if cand := d.index[stateKey(st)]; cand != nil && sameSequence(cand, st) {
		delete(d.index, stateKey(st))
	}
	for _, pid := range statePIDs(st) {
		if _, ok := d.ledger[pid]; ok {
			return true
		}
	}
	return false
}

// undoShares rolls back a transaction's staged refcount increments: each
// is decremented in memory (the increment record belongs to an
// uncommitted transaction and is skipped at replay, so no compensation
// record is logged). An entry already released by its other owner means
// the extent now belongs solely to the rolled-back tuple — it is freed
// through the reclaimer.
func (db *DB) undoShares(txn uint64, specs []blob.FreeSpec) {
	if len(specs) == 0 {
		return
	}
	d := &db.dedup
	var orphans []blob.FreeSpec
	d.mu.Lock()
	for _, s := range specs {
		if v, ok := d.ledger[s.PID]; ok {
			if v <= 2 {
				delete(d.ledger, s.PID)
			} else {
				d.ledger[s.PID] = v - 1
			}
		} else {
			orphans = append(orphans, s)
			d.orphans++
		}
	}
	d.mu.Unlock()
	if len(orphans) > 0 {
		db.deferFrees(txn, nil, orphans)
	}
}

// applyFrees is the ledger-aware form of blob.Manager.ApplyFrees: frees
// whose extent has a ledger entry decrement it instead of returning the
// extent to the allocator. This runs at deferred-free apply time (under
// the reclaimer lock), which is what makes share-vs-delete races safe: by
// the time a committed delete's frees apply, any share staged against the
// same content entry has already incremented the ledger.
func (db *DB) applyFrees(txn uint64, specs []blob.FreeSpec) {
	d := &db.dedup
	var kept []blob.FreeSpec
	var entries []refDelta
	d.mu.Lock()
	for _, s := range specs {
		if v, ok := d.ledger[s.PID]; ok {
			if v <= 2 {
				delete(d.ledger, s.PID)
			} else {
				d.ledger[s.PID] = v - 1
			}
			entries = append(entries, refDelta{PID: s.PID, Delta: -1})
			d.decs++
			continue
		}
		kept = append(kept, s)
	}
	var seq uint64
	if len(entries) > 0 {
		d.seq++
		seq = d.seq
	}
	d.mu.Unlock()
	if len(entries) > 0 {
		d.logDecs(txn, seq, entries)
	}
	db.blobs.ApplyFrees(kept)
}

// logDecs appends an apply-time decrement batch under the id of the
// transaction whose staged free produced it, and flushes it promptly.
// The owner tag is what keeps replay exact: recovery applies the batch
// only when the owner is committed AND validated — a failed owner's
// tuple reverts to the state that still references the extent, so its
// decrement must vanish with it. Durability is opportunistic: a
// decrement lost to a crash leaves the replayed count high, which
// recovery's reconciliation clamps against the tuple recount.
func (d *dedup) logDecs(txn, seq uint64, entries []refDelta) {
	d.decMu.Lock()
	defer d.decMu.Unlock()
	if _, err := d.decw.AppendLSN(nil, txn, wal.RecRefDelta, encodeRefDelta(seq, entries)); err != nil {
		return
	}
	_ = d.decw.Flush(nil)
}

// registerDedup publishes committed states in the content index. Called
// only on the commit success path (never at stage time): an index entry
// must always describe a committed, durable extent sequence, or a
// concurrent PUT could share extents that a rollback then frees.
func (db *DB) registerDedup(sts []*blob.State) {
	if len(sts) == 0 {
		return
	}
	d := &db.dedup
	d.mu.Lock()
	for _, st := range sts {
		if shareable(st) {
			d.index[stateKey(st)] = st.Clone()
		}
	}
	d.mu.Unlock()
}

// RecRefDelta payload: seq u64 | n u32 | n x (pid u64, delta i8).
const refDeltaHeader = 8 + 4

func encodeRefDelta(seq uint64, entries []refDelta) []byte {
	out := make([]byte, refDeltaHeader+9*len(entries))
	binary.LittleEndian.PutUint64(out[0:], seq)
	binary.LittleEndian.PutUint32(out[8:], uint32(len(entries)))
	off := refDeltaHeader
	for _, e := range entries {
		binary.LittleEndian.PutUint64(out[off:], uint64(e.PID))
		out[off+8] = byte(e.Delta)
		off += 9
	}
	return out
}

func decodeRefDelta(b []byte) (seq uint64, entries []refDelta, err error) {
	if len(b) < refDeltaHeader {
		return 0, nil, fmt.Errorf("core: ref-delta payload of %d bytes too short", len(b))
	}
	seq = binary.LittleEndian.Uint64(b[0:])
	n := int(binary.LittleEndian.Uint32(b[8:]))
	if len(b) != refDeltaHeader+9*n {
		return 0, nil, fmt.Errorf("core: ref-delta payload declares %d entries but has %d trailing bytes", n, len(b)-refDeltaHeader)
	}
	entries = make([]refDelta, n)
	off := refDeltaHeader
	for i := 0; i < n; i++ {
		entries[i].PID = storage.PID(binary.LittleEndian.Uint64(b[off:]))
		entries[i].Delta = int8(b[off+8])
		off += 9
	}
	return seq, entries, nil
}

// Ledger checkpoint section: seq u64 | n u32 | n x (pid u64, count u64),
// entries sorted by PID so images are byte-identical across runs (the
// crash simulator replays schedules against recorded device-op hashes).
func marshalLedger(seq uint64, ledger map[storage.PID]uint64) []byte {
	pids := make([]storage.PID, 0, len(ledger))
	for pid := range ledger {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	out := make([]byte, 8+4+16*len(pids))
	binary.LittleEndian.PutUint64(out[0:], seq)
	binary.LittleEndian.PutUint32(out[8:], uint32(len(pids)))
	off := 12
	for _, pid := range pids {
		binary.LittleEndian.PutUint64(out[off:], uint64(pid))
		binary.LittleEndian.PutUint64(out[off+8:], ledger[pid])
		off += 16
	}
	return out
}

// unmarshalLedger parses a ledger section, returning the unconsumed rest
// of the buffer (the checkpoint body continues after the section).
func unmarshalLedger(b []byte) (seq uint64, ledger map[storage.PID]uint64, rest []byte, err error) {
	if len(b) < 12 {
		return 0, nil, nil, fmt.Errorf("core: ledger section of %d bytes too short", len(b))
	}
	seq = binary.LittleEndian.Uint64(b[0:])
	n := int(binary.LittleEndian.Uint32(b[8:]))
	if n < 0 || len(b)-12 < 16*n {
		return 0, nil, nil, fmt.Errorf("core: ledger section declares %d entries, only %d bytes follow", n, len(b)-12)
	}
	ledger = make(map[storage.PID]uint64, n)
	off := 12
	var prev storage.PID
	for i := 0; i < n; i++ {
		pid := storage.PID(binary.LittleEndian.Uint64(b[off:]))
		count := binary.LittleEndian.Uint64(b[off+8:])
		if i > 0 && pid <= prev {
			return 0, nil, nil, fmt.Errorf("core: ledger section entries out of order at %d", i)
		}
		if count < 2 {
			return 0, nil, nil, fmt.Errorf("core: ledger entry for PID %d has count %d < 2", pid, count)
		}
		prev = pid
		ledger[pid] = count
		off += 16
	}
	return seq, ledger, b[off:], nil
}

// snapshotLedger captures the ledger and its fence for a checkpoint
// image. It MUST be called after the relation trees are serialized: an
// increment happens-before its tuple reaches the tree, so
// tuple-in-image implies increment-in-image and reconciliation never
// sees an image-induced under-count.
func (d *dedup) snapshotLedger() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return marshalLedger(d.seq, d.ledger)
}

// recountRefs recomputes the per-extent reference counts from the live
// tuples — the authoritative definition of the refcount. Takes the
// relation locks; do not call with them held.
func (db *DB) recountRefs() map[storage.PID]uint64 {
	counts := map[storage.PID]uint64{}
	db.mu.RLock()
	rels := make([]*Relation, 0, len(db.rels))
	for _, r := range db.rels {
		rels = append(rels, r)
	}
	db.mu.RUnlock()
	for _, r := range rels {
		r.mu.RLock()
		r.tree.Ascend(nil, func(_, v []byte) bool {
			tag, payload, err := decodeValue(v)
			if err != nil || tag != tagBlob {
				return true
			}
			st, err := blob.Decode(payload)
			if err != nil {
				return true
			}
			for _, pid := range statePIDs(st) {
				counts[pid]++
			}
			return true
		})
		r.mu.RUnlock()
	}
	return counts
}

// CheckLedger verifies the refcount ledger against a recount of the live
// tuples: every extent referenced by >= 2 tuples must have a ledger entry
// with exactly that count, and no entry may exist for an extent with < 2
// references. Tests and the crash simulator call it after quiescing.
func (db *DB) CheckLedger() error {
	counts := db.recountRefs()
	d := &db.dedup
	d.mu.Lock()
	defer d.mu.Unlock()
	for pid, want := range counts {
		got := d.ledger[pid]
		if want >= 2 && got != want {
			return fmt.Errorf("core: ledger: extent %d referenced by %d tuples, ledger says %d", pid, want, got)
		}
	}
	for pid, got := range d.ledger {
		if counts[pid] < 2 {
			return fmt.Errorf("core: ledger: stale entry for extent %d (count %d, %d live references)", pid, got, counts[pid])
		}
	}
	return nil
}

// DedupStats is a point-in-time snapshot of the content index and ledger.
type DedupStats struct {
	IndexEntries  int    // content-index entries (distinct committed contents)
	SharedExtents int    // extents with refcount >= 2
	Hits          uint64 // PUTs and transfer adopts that shared an existing blob
	SharedBytes   uint64 // logical bytes served by sharing instead of new extents
	Increments    uint64 // refcount increments (shares)
	Decrements    uint64 // refcount decrements (deferred releases intercepted)
	OrphanFrees   uint64 // extents freed by rolling back a share whose co-owner left
}

// DedupStats reports dedup/ledger counters (metrics and tests).
func (db *DB) DedupStats() DedupStats {
	d := &db.dedup
	d.mu.Lock()
	defer d.mu.Unlock()
	return DedupStats{
		IndexEntries:  len(d.index),
		SharedExtents: len(d.ledger),
		Hits:          d.hits,
		SharedBytes:   d.sharedBytes,
		Increments:    d.incs,
		Decrements:    d.decs,
		OrphanFrees:   d.orphans,
	}
}
