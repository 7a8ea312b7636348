// Package repl implements log-shipping read replication over the segmented
// WAL. A primary engine exposes its logical record stream through a Source
// (in-process for tests and the crash simulator, HTTP between processes);
// a Replica tails that stream into its own engine — own device, own WAL,
// own allocator — and serves reads at a bounded-staleness horizon.
//
// The protocol is LSN-based, built on the wal package's segment API:
//
//   - The replica pulls records strictly above its applied LSN. The
//     primary answers from its live segments (wal.Manager.ReadFrom) up to
//     its durable LSN — nothing unsynced ever leaves the primary, so a
//     primary crash can never roll back state a replica already serves.
//   - When the requested horizon has been truncated away (the primary
//     checkpointed and reclaimed those segments), the pull demands a
//     resync: the replica installs a full logical snapshot at the
//     snapshot's LSN and resumes tailing from there.
//   - BLOB content travels out of band: records and snapshot entries are
//     installed through core.Install, which fetches by key only what the
//     replica lacks (DESIGN.md §13 states the rules).
//
// AppliedLSN is the replica's staleness contract: every primary
// transaction whose commit record is at or below it is fully applied, so
// for any key whose last committed update is at or below AppliedLSN the
// replica's ETag is byte-identical to the primary's. Promote ends
// replication and hands the engine over for writes — the failover path the
// crash simulator drives.
package repl

import (
	"context"

	"blobdb/internal/core"
	"blobdb/internal/wal"
)

// Pull is one batch of the primary's logical record stream.
type Pull struct {
	// Records holds every durable record with LSN in (after, Durable],
	// in LSN order. Empty when the replica is caught up.
	Records []wal.Record
	// Durable is the primary's durable-LSN horizon for this batch: the
	// replica's applied LSN after consuming Records.
	Durable uint64
	// Resync reports that `after` fell below the primary's truncation
	// horizon: the records needed are gone and the replica must install a
	// Snapshot before tailing again.
	Resync bool
}

// Entry is one tuple of a logical snapshot: either an inline value or a
// BLOB identified by its ETag (content is fetched separately).
type Entry struct {
	Rel string
	Key []byte
	core.Row
}

// Snapshot is a full logical image of the primary at LSN: replaying records
// above LSN on top of it reproduces the primary.
type Snapshot struct {
	LSN     uint64
	Rels    []string // every relation, including empty ones
	Entries []Entry
}

// Source is the replica's view of a primary. Implementations: EngineSource
// (same process) and HTTPSource (a blobserver primary's /repl/v1 API).
type Source interface {
	// Pull returns the durable records above after, or demands a resync.
	Pull(ctx context.Context, after uint64) (Pull, error)
	// FetchBlob calls fn with the primary's current committed content for
	// the key: its ETag, its size and a reader of its bytes. A key with no
	// committed BLOB content reports core.ErrBlobVanished without calling
	// fn. It is a core.BlobFetch.
	FetchBlob(ctx context.Context, rel string, key []byte, fn core.ContentFn) error
	// Snapshot captures a full logical image for resync. The primary
	// should be commit-quiesced while the image is taken (EngineSource
	// holds the commit pipeline); tuples staged by transactions that
	// commit above the snapshot LSN are repaired by the record replay.
	Snapshot(ctx context.Context) (*Snapshot, error)
}
