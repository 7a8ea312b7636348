package repl

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blobdb/internal/blob"
	"blobdb/internal/core"
	"blobdb/internal/wal"
)

// ErrPromoted is returned by Sync and Run after Promote: the engine no
// longer follows a primary.
var ErrPromoted = errors.New("repl: replica has been promoted")

// Replica tails a primary's record stream into its own engine. Reads go
// through DB() at any time; Sync applies one pull batch; Promote ends
// replication and makes the engine the new primary.
type Replica struct {
	db  *core.DB
	src Source

	mu       sync.Mutex // serializes Sync/Promote
	applied  atomic.Uint64
	promoted atomic.Bool
	// pending buffers records of transactions whose commit record has not
	// yet arrived — a transaction's records may straddle pull batches.
	pending map[uint64][]wal.Record
	resyncs atomic.Uint64
}

// NewReplica attaches an empty (or previously-caught-up) engine to a
// source. The engine must not take local writes while replication runs.
func NewReplica(db *core.DB, src Source) *Replica {
	return &Replica{db: db, src: src, pending: map[uint64][]wal.Record{}}
}

// DB exposes the replica's engine for reads (and for everything, after
// Promote).
func (r *Replica) DB() *core.DB { return r.db }

// AppliedLSN is the staleness horizon: every primary transaction whose
// commit record is at or below it is fully applied.
func (r *Replica) AppliedLSN() uint64 { return r.applied.Load() }

// Promoted reports whether Promote has been called.
func (r *Replica) Promoted() bool { return r.promoted.Load() }

// Resyncs counts snapshot resyncs taken (truncation raced the tail).
func (r *Replica) Resyncs() uint64 { return r.resyncs.Load() }

// Sync performs one replication round: pull the durable records above the
// applied horizon (resyncing from a snapshot if they were truncated
// away), apply every newly committed transaction in commit order, and
// advance the applied LSN to the batch's durable horizon. It returns the
// new applied LSN.
func (r *Replica) Sync(ctx context.Context) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.promoted.Load() {
		return r.applied.Load(), ErrPromoted
	}
	for {
		p, err := r.src.Pull(ctx, r.applied.Load())
		if err != nil {
			return r.applied.Load(), err
		}
		if p.Resync {
			if err := r.resync(ctx); err != nil {
				return r.applied.Load(), err
			}
			continue // tail from the snapshot LSN
		}
		if err := r.apply(ctx, p.Records); err != nil {
			return r.applied.Load(), err
		}
		if p.Durable > r.applied.Load() {
			r.applied.Store(p.Durable)
		}
		return r.applied.Load(), nil
	}
}

// apply replays each transaction whose commit record is in the batch, in
// commit-LSN order, advancing the applied LSN past each commit as it
// lands. Each transaction applies atomically (one replica transaction),
// so a mid-batch failure — the primary crashing under a blob fetch, a
// transport blip — leaves an exact prefix: every commit at or below the
// applied LSN is fully in, everything above is absent. Records of
// not-yet-applied transactions at or below the new horizon are folded
// into the pending buffers before returning (the retry pulls only above
// the horizon), so a later Sync completes the batch without loss or
// duplication.
func (r *Replica) apply(ctx context.Context, recs []wal.Record) error {
	delta := map[uint64][]wal.Record{} // this batch's ops, per txn
	type commitAt struct{ txn, lsn uint64 }
	var commits []commitAt
	var aborts []uint64
	for _, rec := range recs {
		switch rec.Type {
		case wal.RecCommit:
			commits = append(commits, commitAt{rec.TxnID, rec.LSN})
		case wal.RecAbort:
			aborts = append(aborts, rec.TxnID)
			delete(delta, rec.TxnID)
		case wal.RecHeapPut, wal.RecBlobState, wal.RecHeapDelete:
			delta[rec.TxnID] = append(delta[rec.TxnID], rec)
		default:
			// RecBegin, RecCheckpoint, RecBlobData, RecBlobDelta,
			// RecFreeExtent, RecRefDelta, RecLanded: control or
			// primary-device-physical. A RecLanded watermark speaks of
			// the primary's extent writes; the replica's own committer
			// logs its own.
		}
	}
	// Aborted transactions never apply; drop their buffers up front.
	for _, txn := range aborts {
		delete(r.pending, txn)
	}

	for _, c := range commits {
		// Ops buffered from earlier batches all precede this batch's.
		ops := append(append([]wal.Record(nil), r.pending[c.txn]...), delta[c.txn]...)
		if len(ops) > 0 { // read-only txns (or ops below a resync snapshot) skip
			if err := r.db.ApplyReplicated(ctx, ops, r.src.FetchBlob); err != nil {
				r.preserve(delta)
				return fmt.Errorf("repl: apply txn %d (commit lsn %d): %w", c.txn, c.lsn, err)
			}
		}
		delete(r.pending, c.txn)
		delete(delta, c.txn)
		if c.lsn > r.applied.Load() {
			r.applied.Store(c.lsn)
		}
	}

	for txn, ops := range delta {
		r.pending[txn] = append(r.pending[txn], ops...)
	}
	return nil
}

// preserve, on a mid-batch apply failure, folds the failed batch's
// records at or below the applied horizon into the pending buffers: the
// retry pulls only records above the horizon, so anything below it that
// has not been applied would otherwise be lost. Records above the
// horizon are dropped — the retry re-delivers them.
func (r *Replica) preserve(delta map[uint64][]wal.Record) {
	applied := r.applied.Load()
	for txn, ops := range delta {
		for _, rec := range ops {
			if rec.LSN <= applied {
				r.pending[txn] = append(r.pending[txn], rec)
			}
		}
	}
}

// resync installs a full snapshot: create missing relations, overwrite
// every snapshotted tuple, and delete local tuples the snapshot does not
// contain. Applied in one replica transaction per relation batch to bound
// memory; the stream replay above the snapshot LSN repairs any tuple the
// snapshot captured mid-commit.
func (r *Replica) resync(ctx context.Context) error {
	snap, err := r.src.Snapshot(ctx)
	if err != nil {
		return err
	}
	r.resyncs.Add(1)
	r.pending = map[uint64][]wal.Record{}
	for _, rel := range snap.Rels {
		if _, err := r.db.CreateRelation(rel); err != nil && !errors.Is(err, core.ErrRelationExists) {
			return err
		}
	}
	keep := map[string]map[string]bool{}
	for _, e := range snap.Entries {
		if keep[e.Rel] == nil {
			keep[e.Rel] = map[string]bool{}
		}
		keep[e.Rel][string(e.Key)] = true
		// Entries the replica already holds are kept or adopted, not
		// fetched (the common resync case: only the tail diverged).
		fetch := func(fn core.ContentFn) error { return r.src.FetchBlob(ctx, e.Rel, e.Key, fn) }
		if _, err := r.db.Install(ctx, e.Rel, e.Key, e.Row, fetch); err != nil {
			return fmt.Errorf("repl: resync: %w", err)
		}
	}
	// Drop local tuples the primary no longer has.
	for _, rel := range snap.Rels {
		var stale [][]byte
		tx := r.db.BeginCtx(ctx, nil)
		err := tx.Scan(rel, nil, func(key, _ []byte, _ *blob.State) bool {
			if !keep[rel][string(key)] {
				stale = append(stale, append([]byte(nil), key...))
			}
			return true
		})
		tx.Commit() // read-only
		if err != nil {
			return err
		}
		for _, key := range stale {
			if err := r.db.Delete(ctx, rel, key); err != nil {
				return err
			}
		}
	}
	if snap.LSN > r.applied.Load() {
		r.applied.Store(snap.LSN)
	}
	return nil
}

// Run tails the source until ctx is cancelled or the replica is promoted,
// syncing every interval. Transient source errors are reported through
// onErr (nil: ignored) and retried on the next tick.
func (r *Replica) Run(ctx context.Context, interval time.Duration, onErr func(error)) {
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if _, err := r.Sync(ctx); err != nil {
			if errors.Is(err, ErrPromoted) {
				return
			}
			if onErr != nil {
				onErr(err)
			}
		}
	}
}

// Promote ends replication: the engine stops following the primary and is
// handed back for local writes. The applied LSN freezes at the replicated
// horizon — every acknowledged primary commit at or below it survives the
// failover; anything above it was never replicated and is lost with the
// primary (the documented bounded-staleness tail).
func (r *Replica) Promote() *core.DB {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.promoted.Store(true)
	r.pending = map[uint64][]wal.Record{}
	return r.db
}
