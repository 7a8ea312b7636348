package core

import (
	"math"
	"sync"

	"blobdb/internal/blob"
	"blobdb/internal/storage"
)

// Deferred extent reclamation.
//
// Readers are lock-free (§III-H applies 2PL to writers only): a reader
// captures a Blob State snapshot from the tree and pins the referenced
// extents with no record lock held. A writer that replaces or deletes the
// blob must therefore not return the old extents to the allocator — or
// drop them from the buffer pool — while any transaction that could still
// hold the old snapshot is alive: the pool would panic on a pinned Drop,
// or worse, the allocator would recycle the extent under a reader that
// has yet to fix it, serving torn bytes.
//
// The reclaimer is an epoch scheme over transaction lifetimes. Every
// transaction registers at Begin with the current value of a logical
// clock; a committed free is queued tagged with the clock (which then
// advances) instead of being applied inline. A queued free becomes safe
// when no active transaction's begin tick is ≤ its tag: any transaction
// started after the tag began after the tree stopped referencing the old
// extents, so it cannot have captured the stale snapshot. Frees are
// applied in FIFO order at transaction end, under the reclaimer lock, so
// allocator mutations stay deterministic for crash-schedule replay.
//
// The single-flush durability story is unaffected: frees are in-memory
// bookkeeping (pool residency + allocator), and recovery rebuilds the
// allocator from the tree image, so frees deferred across a crash are
// simply rediscovered.
type reclaimer struct {
	mu      sync.Mutex
	clock   uint64            // advances once per deferral batch
	active  map[uint64]uint64 // txn id -> clock value at Begin
	pending []deferredFrees   // FIFO; clock tags are non-decreasing
}

// deferredFrees is one committed transaction's extent frees, applicable
// once every transaction begun at or before clock has ended. txn records
// the originating transaction: a free of a SHARED extent turns into a
// refcount decrement at apply time, and the decrement's WAL record must
// carry the owner's id — recovery may mark the owner failed (commit
// record durable, extent writes torn), revert its tuple to the old state
// that still references the extent, and must then NOT replay the
// decrement, or the reference survives with its count lost (an armed
// double-free).
type deferredFrees struct {
	clock uint64
	txn   uint64
	drops []storage.PID // extents leaving the pool only
	specs []blob.FreeSpec
}

func (r *reclaimer) init() { r.active = map[uint64]uint64{} }

// beginTxn registers a transaction as a potential stale-snapshot holder.
func (db *DB) beginTxn(id uint64) {
	r := &db.reclaim
	r.mu.Lock()
	r.active[id] = r.clock
	r.mu.Unlock()
}

// deferFrees queues a finished transaction's pool drops and extent frees
// for reclamation: a committed transaction's frees, and an aborted or
// failed one's unflushed frames, which lock-free readers may still pin.
// Call before endTxn so the transaction's own registration holds them
// back until it has fully ended.
func (db *DB) deferFrees(txn uint64, drops []storage.PID, specs []blob.FreeSpec) {
	if len(drops) == 0 && len(specs) == 0 {
		return
	}
	r := &db.reclaim
	r.mu.Lock()
	r.pending = append(r.pending, deferredFrees{clock: r.clock, txn: txn, drops: drops, specs: specs})
	r.clock++
	r.mu.Unlock()
}

// endTxn deregisters a transaction and applies every queued free that no
// remaining active transaction predates. Applying under the reclaimer
// lock keeps the allocator's mutation order a pure function of the
// transaction end order — which the crash simulator replays exactly.
func (db *DB) endTxn(id uint64) {
	r := &db.reclaim
	r.mu.Lock()
	delete(r.active, id)
	db.applyReadyLocked()
	r.mu.Unlock()
}

// ReclaimTick applies every deferred free batch that no active transaction
// predates, without waiting for a transaction to end. The defragmenter
// calls it between relocation rounds so the freed source extents reach the
// allocator (and ShrinkHWM) promptly even on an otherwise idle database.
// Returns the number of batches applied.
func (db *DB) ReclaimTick() int {
	r := &db.reclaim
	r.mu.Lock()
	defer r.mu.Unlock()
	return db.applyReadyLocked()
}

// applyReadyLocked applies, in FIFO order, every queued batch that no
// active transaction predates, and returns how many it applied. The
// caller holds the reclaimer lock.
func (db *DB) applyReadyLocked() int {
	r := &db.reclaim
	horizon := uint64(math.MaxUint64)
	for _, tick := range r.active {
		if tick < horizon {
			horizon = tick
		}
	}
	n := 0
	for n < len(r.pending) && r.pending[n].clock < horizon {
		n++
	}
	ready := r.pending[:n:n]
	r.pending = r.pending[n:]
	for _, d := range ready {
		for _, pid := range d.drops {
			db.pool.Drop(pid)
		}
		// Ledger-aware apply: frees of shared extents decrement the
		// refcount instead of returning the extent to the allocator.
		db.applyFrees(d.txn, d.specs)
	}
	return n
}

// ReclaimPending reports the number of deferred free batches not yet
// returned to the allocator (tests and /debug/vars).
func (db *DB) ReclaimPending() int {
	r := &db.reclaim
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}
