package core

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"

	"blobdb/internal/blob"
)

// Content transfer (DESIGN.md §13): a reshard copy, a replicated record
// and a resync entry all install another engine's row through Install.

// Row is what a transfer installs at a key: an inline value, or BLOB
// content named by its ETag and size.
type Row struct {
	Inline []byte // the inline value; nil for BLOBs
	Blob   bool
	ETag   string // BLOB content hash (blob.State.ETag)
	Size   uint64 // BLOB size in bytes
}

// RowOf describes a tuple as Scan reports it (st nil: inline, copied).
func RowOf(inline []byte, st *blob.State) Row {
	if st == nil {
		return Row{Inline: append([]byte(nil), inline...)}
	}
	return Row{Blob: true, ETag: st.ETag(), Size: st.Size}
}

// ContentFn receives a transfer's bytes: the ETag and size the source
// claims for them, and a reader of exactly those bytes.
type ContentFn func(etag string, size uint64, r io.Reader) error

// Content is a transfer's byte source. It calls fn at most once and
// returns fn's error, or returns ErrBlobVanished without calling fn when
// it holds no content for the key.
type Content func(fn ContentFn) error

// BlobFetch is the Content of (rel, key) during a replicated apply: the
// primary's current committed content, which may be newer than the
// version the record named.
type BlobFetch func(ctx context.Context, rel string, key []byte, fn ContentFn) error

// ErrBlobVanished reports a source with no committed content for the key;
// Install then writes nothing.
var ErrBlobVanished = errors.New("core: transferred blob vanished at the source")

// Transfer reports how Install satisfied a row.
type Transfer uint8

const (
	TransferUnchanged Transfer = iota // the key already held the content; nothing written
	TransferVanished                  // the source held no content; nothing written
	TransferAdopted                   // shared the destination's own copy; no bytes moved
	TransferCopied                    // bytes moved: streamed from the source, or an inline Put
)

// TransferStats counts the engine's Install outcomes and the bytes they
// read from sources (BLOB streams and inline values).
type TransferStats struct {
	Outcomes    [TransferCopied + 1]uint64 // indexed by Transfer
	CopiedBytes uint64
}

func (db *DB) TransferStats() TransferStats {
	var s TransferStats
	for i := range s.Outcomes {
		s.Outcomes[i] = db.xfers[i].Load()
	}
	s.CopiedBytes = db.xferBytes.Load()
	return s
}

// Install makes (rel, key) hold row, moving bytes only when this engine
// lacks them. For a BLOB row, in order: a key that already holds row.ETag
// is left as it is; content in the content index — (SHA-256, size) — is
// adopted through the refcount ledger without calling src; otherwise src
// streams through CreateBlob, and the byte count must equal the size and
// the installed ETag the one src claimed. An inline row is one Put. On
// error the caller aborts the transaction, which unwinds the call.
func (t *Txn) Install(relName string, key []byte, row Row, src Content) (Transfer, error) {
	out, n, err := t.install(relName, key, row, src)
	if err != nil {
		return out, fmt.Errorf("core: transfer %q/%q: %w", relName, key, err)
	}
	t.db.xfers[out].Add(1)
	t.db.xferBytes.Add(n)
	return out, nil
}

func (t *Txn) install(relName string, key []byte, row Row, src Content) (Transfer, uint64, error) {
	if !row.Blob {
		return TransferCopied, uint64(len(row.Inline)), t.Put(relName, key, row.Inline)
	}
	if err := t.check(); err != nil {
		return 0, 0, err
	}
	r, err := t.db.Relation(relName)
	if err != nil {
		return 0, 0, err
	}
	t.lock(relName, key)
	if st, err := t.BlobState(relName, key); err == nil && st.ETag() == row.ETag {
		return TransferUnchanged, 0, nil
	}
	ck := contentKey{size: row.Size}
	if n, err := hex.Decode(ck.sha[:], []byte(row.ETag)); err == nil && n == len(ck.sha) {
		if shared := t.share(ck, nil); shared != nil {
			return TransferAdopted, 0, t.stageBlob(r, key, nil, shared, nil, nil)
		}
	}
	var n int64
	err = src(func(etag string, size uint64, rd io.Reader) error {
		w, err := t.CreateBlob(nil, relName, key)
		if err != nil {
			return err
		}
		if n, err = io.Copy(w, rd); err != nil {
			return err
		}
		if uint64(n) != size {
			return fmt.Errorf("source sent %d of %d bytes", n, size)
		}
		if err := w.Close(); err != nil {
			return err
		}
		if got := w.State().ETag(); got != etag {
			return fmt.Errorf("installed etag %s, source claimed %s", got, etag)
		}
		return nil
	})
	if errors.Is(err, ErrBlobVanished) {
		return TransferVanished, 0, nil
	}
	return TransferCopied, uint64(n), err
}

// Delete removes (rel, key) in a transaction of its own. An absent key is
// no error: a transfer's reconciliation may race the key's own delete.
func (db *DB) Delete(ctx context.Context, relName string, key []byte) error {
	tx := db.BeginCtx(ctx, nil)
	if err := tx.DeleteBlob(relName, key); err != nil {
		tx.Abort()
		if errors.Is(err, ErrNotFound) {
			return nil
		}
		return err
	}
	return tx.Commit()
}

// Install runs Txn.Install in a transaction of its own.
func (db *DB) Install(ctx context.Context, relName string, key []byte, row Row, src Content) (Transfer, error) {
	tx := db.BeginCtx(ctx, nil)
	out, err := tx.Install(relName, key, row, src)
	if err != nil {
		tx.Abort()
		return out, err
	}
	return out, tx.Commit()
}
