package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"blobdb/internal/buffer"
)

// TestDeferredFreesBlockOnActiveReader pins the reclaimer's horizon rule:
// a transaction that captured a Blob State before an overwrite keeps the
// old extents resident and unrecycled until it ends, and the frees land
// as soon as it does.
func TestDeferredFreesBlockOnActiveReader(t *testing.T) {
	db := openTest(t, testOpts())
	if _, err := db.CreateRelation("r"); err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte{0xAA}, 3*ps)
	tx := db.Begin(nil)
	if err := putBlob(tx, "r", []byte("k"), old); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	reader := db.Begin(nil)
	st, err := reader.BlobState("r", []byte("k"))
	if err != nil {
		t.Fatal(err)
	}

	tx = db.Begin(nil)
	if err := putBlob(tx, "r", []byte("k"), bytes.Repeat([]byte{0xBB}, 3*ps)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	if db.ReclaimPending() == 0 {
		t.Fatal("overwrite frees applied while a pre-overwrite reader is active")
	}
	// The stale snapshot must still read the complete old content.
	got, err := db.blobs.ReadAll(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatal("stale snapshot read does not match the pre-overwrite content")
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := db.ReclaimPending(); n != 0 {
		t.Fatalf("reclaim pending = %d after the last pre-overwrite txn ended, want 0", n)
	}
}

// TestDeferredFreesAbortPath: a reader that aborts also releases the
// reclamation horizon.
func TestDeferredFreesAbortPath(t *testing.T) {
	db := openTest(t, testOpts())
	if _, err := db.CreateRelation("r"); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin(nil)
	if err := putBlob(tx, "r", []byte("k"), bytes.Repeat([]byte{1}, 2*ps)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	reader := db.Begin(nil)
	if _, err := reader.BlobState("r", []byte("k")); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin(nil)
	if err := tx.DeleteBlob("r", []byte("k")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if db.ReclaimPending() == 0 {
		t.Fatal("delete frees applied under an active reader")
	}
	if err := reader.Abort(); err != nil {
		t.Fatal(err)
	}
	if n := db.ReclaimPending(); n != 0 {
		t.Fatalf("reclaim pending = %d after reader abort, want 0", n)
	}
}

// TestAbortUnderReaderPin: a writer that aborts while a lock-free reader
// pins its staged blob releases its own pins at once but leaves the
// frames to the reclaimer — the abort used to drop them under the
// reader's pin and panic the pool. The reader keeps its bytes until it
// ends; then the aborted extents leave the pool and the allocator.
func TestAbortUnderReaderPin(t *testing.T) {
	db := openTest(t, testOpts())
	if _, err := db.CreateRelation("r"); err != nil {
		t.Fatal(err)
	}
	staged := bytes.Repeat([]byte{0xCD}, 3*ps)
	tx1 := db.Begin(nil)
	if err := putBlob(tx1, "r", []byte("k"), staged); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin(nil)
	err := tx2.ReadBlob("r", []byte("k"), func(v *buffer.BlobView) error {
		if err := tx1.Abort(); err != nil {
			return err
		}
		if db.ReclaimPending() == 0 {
			return errors.New("aborted extents reclaimed while the reader pins them")
		}
		if got := v.Materialize(); !bytes.Equal(got, staged) {
			return errors.New("pinned view changed under the abort")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx2)
	if n := db.ReclaimPending(); n != 0 {
		t.Fatalf("reclaim pending = %d after the reader ended, want 0", n)
	}
	if n := db.Pool().ResidentPages(); n != 0 {
		t.Errorf("%d pages of the aborted blob still resident", n)
	}
	tx := db.Begin(nil)
	if _, err := tx.BlobState("r", []byte("k")); !errors.Is(err, ErrNotFound) {
		t.Errorf("aborted blob lookup = %v, want ErrNotFound", err)
	}
	// The freed extents are allocatable again.
	if err := putBlob(tx, "r", []byte("k"), staged); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
}

// TestConcurrentReadersOverwriteNoTornReads hammers the lock-free read
// path while a writer replaces the blob — the schedule that used to
// panic the pool with "Drop of pinned extent" once the pipelined commit
// path added yield points. Every read must observe one complete version,
// never a mix, and no pinned extent may be dropped.
func TestConcurrentReadersOverwriteNoTornReads(t *testing.T) {
	db := openTest(t, testOpts())
	if _, err := db.CreateRelation("r"); err != nil {
		t.Fatal(err)
	}
	versions := make([][]byte, 4)
	for v := range versions {
		versions[v] = bytes.Repeat([]byte{byte('A' + v)}, 5*ps/2)
	}
	tx := db.Begin(nil)
	if err := putBlob(tx, "r", []byte("k"), versions[0]); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 16)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rtx := db.Begin(nil)
				data, err := rtx.ReadBlobBytes("r", []byte("k"))
				if err != nil {
					rtx.Abort()
					errCh <- err
					return
				}
				for _, b := range data {
					if b != data[0] {
						rtx.Abort()
						errCh <- fmt.Errorf("torn read: %c vs %c", data[0], b)
						return
					}
				}
				rtx.Commit()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for v := 1; v < len(versions)*8; v++ {
			wtx := db.Begin(nil)
			if err := putBlob(wtx, "r", []byte("k"), versions[v%len(versions)]); err != nil {
				errCh <- err
				return
			}
			if err := wtx.Commit(); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}
