package core

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"blobdb/internal/blob"
	"blobdb/internal/simtime"
	"blobdb/internal/storage"
)

// syncFailDev fails Sync while armed, turning the WAL durability point of
// a commit into an error without disturbing reads or writes.
type syncFailDev struct {
	storage.Device
	armed atomic.Bool
}

var errInjectedSync = errors.New("injected sync failure")

func (d *syncFailDev) Sync(m *simtime.Meter) error {
	if d.armed.Load() {
		return errInjectedSync
	}
	return d.Device.Sync(m)
}

// drainPool evicts everything evictable and returns the resident pages
// left behind — with no pins outstanding this must be zero.
func drainPool(t *testing.T, db *DB) int {
	t.Helper()
	if err := db.Pool().EvictAll(nil); err != nil {
		t.Fatalf("EvictAll after failed commit: %v", err)
	}
	return db.Pool().ResidentPages()
}

func writeBlob(t *testing.T, tx *Txn, rel string, key, content []byte) {
	t.Helper()
	w, err := tx.CreateBlob(tx.Context(), rel, key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(content); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedCommitReleasesPins pins the commit-error unwind: a WAL sync
// failure must not leave the transaction's staged frames pinned and
// evict-protected, or the pool wedges for every later transaction. The
// leak is invisible to the framerelease analyzer (the pins live in
// Txn.pendings struct fields), so this test is its regression guard; the
// distilled intraprocedural shape is pinned in the analyzer's testdata.
func TestFailedCommitReleasesPins(t *testing.T) {
	failedCommitReleasesPins(t, (*Txn).Commit)
}

// TestFailedAsyncCommitReleasesPins covers the same unwind when the
// failure reaches the caller through CommitAsync's ack channel.
func TestFailedAsyncCommitReleasesPins(t *testing.T) {
	failedCommitReleasesPins(t, func(tx *Txn) error {
		ack, err := tx.CommitAsync()
		if err != nil {
			return err
		}
		return <-ack
	})
}

func failedCommitReleasesPins(t *testing.T, commit func(*Txn) error) {
	dev := &syncFailDev{Device: storage.NewMemDevice(ps, 1<<15, nil)}
	db, err := New(dev, WithPoolPages(1<<12), WithLogPages(1<<11), WithCkptPages(1<<11))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("r"); err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("durable? "), 3*ps/9)

	tx := db.Begin(nil)
	writeBlob(t, tx, "r", []byte("ok"), content)
	mustCommit(t, tx)

	// A delta update keeps its fixed, evict-protected frames in the
	// transaction's pending set until the commit-time flush — the shape
	// that leaks if the commit fails. (Streamed CreateBlob writers flush
	// and release during streaming, so they would not catch it.)
	dev.armed.Store(true)
	tx = db.Begin(nil)
	if err := tx.UpdateBlob("r", []byte("ok"), 0, []byte("PATCH"), blob.UpdateDelta); err != nil {
		t.Fatal(err)
	}
	if err := commit(tx); !errors.Is(err, errInjectedSync) {
		t.Fatalf("commit under failing sync: got %v, want injected failure", err)
	}
	dev.armed.Store(false)

	if n := drainPool(t, db); n != 0 {
		t.Fatalf("%d pages still resident after failed commit + EvictAll: failCommit leaked pinned frames", n)
	}

	// The pool must still be fully usable: commit and read back a blob.
	tx = db.Begin(nil)
	writeBlob(t, tx, "r", []byte("after"), content)
	mustCommit(t, tx)
	tx = db.Begin(nil)
	got, err := tx.ReadBlobBytes("r", []byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch after a failed commit")
	}
	if err := db.CloseCommitter(); !errors.Is(err, errInjectedSync) {
		t.Fatalf("CloseCommitter: got %v, want the sticky injected failure", err)
	}
}
