package core

import (
	"errors"
	"fmt"
	"io"

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
// BLOB content does not travel in the logical records (the Blob State is an
// extent map plus a SHA-256, meaningless on another device), so the applier
// pulls content out of band through a BlobFetch. The fetch returns the
// primary's *current* committed content for the key, which may already be
// newer than the version the record named: in that case the newer bytes are
// installed directly — legal under the staleness contract, because a newer
// committed version implies a later record that the replica will replay (or
// has just pre-applied) before its applied-LSN horizon passes that record's
// commit. For any key whose last committed update is at or below the
// replica's applied LSN the fetched content is the record's content, and the
// replicated ETag is byte-identical to the primary's.

// BlobFetch supplies BLOB content during a replicated apply. st is the Blob
// State the primary's record carried (its ETag names the version the record
// committed). The fetcher returns the content it can supply together with
// that content's ETag; it may be a newer committed version. A fetcher that
// no longer has any content for the key (deleted on the primary since)
// returns ErrBlobVanished.
type BlobFetch func(rel string, key []byte, st *blob.State) (etag string, rc io.ReadCloser, err error)

// ErrBlobVanished is returned by a BlobFetch when the primary no longer has
// any committed content for the key. The applier skips installing the
// record: a later replicated record deletes (or rewrites) the key.
var ErrBlobVanished = errors.New("core: replicated blob vanished on the primary")

// ApplyReplicated replays one committed primary transaction — its logical
// records in LSN order — as one transaction on this engine. Physical record
// types (RecBlobData, RecBlobDelta, RecFreeExtent) and control records are
// ignored: they describe the primary's device, not the logical state.
//
// The apply is idempotent: replaying a record over an already-applied state
// converges to the same tuples, so a resync that overlaps the record stream
// is safe.
func (db *DB) ApplyReplicated(recs []wal.Record, fetch BlobFetch) error {
	tx := db.Begin(nil)
	for _, rec := range recs {
		if err := tx.applyReplicatedRecord(rec, fetch); err != nil {
			tx.Abort()
			return err
		}
	}
	return tx.Commit()
}

func (t *Txn) applyReplicatedRecord(rec wal.Record, fetch BlobFetch) error {
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
		if _, cerr := t.db.CreateRelation(relName); cerr != nil && !errors.Is(cerr, ErrRelationExists) {
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
	if tag == tagInline {
		return t.Put(relName, key, payload)
	}

	st, err := blob.Decode(payload)
	if err != nil {
		return fmt.Errorf("core: replicated blob state lsn %d: %w", rec.LSN, err)
	}
	etag, rc, err := fetch(relName, key, st)
	if errors.Is(err, ErrBlobVanished) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("core: fetch replicated blob %q/%q: %w", relName, key, err)
	}
	defer rc.Close()
	w, err := t.CreateBlob(t.ctx, relName, key)
	if err != nil {
		return err
	}
	if _, err := io.Copy(w, rc); err != nil {
		w.Abort()
		return fmt.Errorf("core: stream replicated blob %q/%q: %w", relName, key, err)
	}
	if err := w.Close(); err != nil {
		return err
	}
	// Transfer integrity: the installed content must hash to the ETag the
	// fetcher claimed to be sending.
	got, err := t.BlobState(relName, key)
	if err != nil {
		return err
	}
	if got.ETag() != etag {
		return fmt.Errorf("core: replicated blob %q/%q: installed etag %s, fetcher claimed %s",
			relName, key, got.ETag(), etag)
	}
	return nil
}
