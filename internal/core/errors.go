package core

import (
	"errors"

	"blobdb/internal/blob"
)

// Typed sentinel errors returned by the engine. Callers classify failures
// with errors.Is; the network layer (blobserver.httpError) maps each of
// these to an HTTP status in exactly one place. Every error the engine
// returns wraps one of these sentinels — no string matching required.
var (
	// ErrNotFound reports a missing key in an existing relation.
	ErrNotFound = errors.New("core: key not found")
	// ErrRelationNotFound reports a lookup of a relation that was never
	// created.
	ErrRelationNotFound = errors.New("core: relation does not exist")
	// ErrRelationExists reports CreateRelation of a name already in use.
	ErrRelationExists = errors.New("core: relation already exists")
	// ErrTxnDone reports an operation on a committed or aborted Txn.
	ErrTxnDone = errors.New("core: transaction already finished")
	// ErrNotBlob reports a BLOB operation on an inline column (or vice
	// versa).
	ErrNotBlob = errors.New("core: value is not a BLOB column")
	// ErrBlobTooLarge reports a write that exceeds the engine's maximum
	// BLOB size (the extent tier table is exhausted, §III-A). It aliases
	// blob.ErrTooLarge so both layers classify identically.
	ErrBlobTooLarge = blob.ErrTooLarge
	// ErrBlobWriterOpen reports Commit/CommitAsync on a transaction that
	// still has an unsealed blob.Writer; Close or Abort the writer first.
	ErrBlobWriterOpen = errors.New("core: transaction has an open blob writer")
)

// Legacy names for the sentinels above, kept as aliases for one release so
// existing errors.Is checks keep working. New code should use the
// canonical names.
var (
	ErrKeyNotFound = ErrNotFound         // use ErrNotFound
	ErrNoRelation  = ErrRelationNotFound // use ErrRelationNotFound
	ErrRelExists   = ErrRelationExists   // use ErrRelationExists
)
