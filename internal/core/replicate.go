package core

import (
	"context"
	"errors"
	"fmt"

	"blobdb/internal/blob"
	"blobdb/internal/wal"
)

// Log-shipping apply: a read replica receives the primary's logical WAL
// records (RecHeapPut / RecBlobState / RecHeapDelete, grouped per committed
// transaction) and replays them into its own engine through the normal
// transaction API. The replica's WAL, allocator, and extent layout are
// entirely its own — only the logical tuple and BLOB *content* is
// replicated, which is exactly the paper's point that the Blob State is the
// sole blob-related record a logical log needs.
//
// Each record is installed through Install by its own Blob State, so a
// BlobFetch moves content only when the replica lacks it (DESIGN.md §13).

// ApplyReplicated replays one committed primary transaction — its logical
// records in LSN order — as one transaction on this engine. Physical record
// types (RecBlobData, RecBlobDelta, RecFreeExtent) and control records
// (RecRefDelta, the RecLanded watermark) are ignored: they describe the
// primary's device, not the logical state.
//
// The apply is idempotent: replaying a record over an already-applied state
// converges to the same tuples, so a resync that overlaps the record stream
// is safe.
func (db *DB) ApplyReplicated(ctx context.Context, recs []wal.Record, fetch BlobFetch) error {
	tx := db.Begin(nil)
	for _, rec := range recs {
		if err := tx.applyReplicatedRecord(ctx, rec, fetch); err != nil {
			tx.Abort()
			return err
		}
	}
	return tx.Commit()
}

func (t *Txn) applyReplicatedRecord(ctx context.Context, rec wal.Record, fetch BlobFetch) error {
	switch rec.Type {
	case wal.RecHeapPut, wal.RecBlobState, wal.RecHeapDelete:
	default:
		return nil // physical or control record: primary-device-local
	}
	relName, key, value, err := parseHeapPayload(rec.Payload)
	if err != nil {
		return fmt.Errorf("core: replicated record lsn %d: %w", rec.LSN, err)
	}
	if _, err := t.db.Relation(relName); err != nil {
		// Logged in this transaction: the apply must not wait on a
		// commit of its own.
		if _, cerr := t.createRelation(relName); cerr != nil && !errors.Is(cerr, ErrRelationExists) {
			return cerr
		}
	}

	if rec.Type == wal.RecHeapDelete || len(value) == 0 {
		// Deletes are idempotent on the replica: the key may already be
		// absent after a resync raced the record stream.
		if err := t.DeleteBlob(relName, key); err != nil && !errors.Is(err, ErrNotFound) {
			return err
		}
		return nil
	}

	tag, payload, err := decodeValue(value)
	if err != nil {
		return err
	}
	row := Row{Inline: payload}
	if tag != tagInline {
		st, err := blob.Decode(payload)
		if err != nil {
			return fmt.Errorf("core: replicated blob state lsn %d: %w", rec.LSN, err)
		}
		row = RowOf(nil, st)
	}
	_, err = t.Install(relName, key, row, func(fn ContentFn) error { return fetch(ctx, relName, key, fn) })
	return err
}
