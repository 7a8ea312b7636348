package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"

	"blobdb/internal/storage"
)

// TestFunctionalOptions exercises the New/RecoverDevice surface: a database
// built with functional options must behave exactly like one built with the
// positional options shim, and recover through the same knobs.
func TestFunctionalOptions(t *testing.T) {
	dev := storage.NewMemDevice(ps, 1<<15, nil)
	db, err := New(dev,
		WithPoolPages(1<<12), WithLogPages(1<<11), WithCkptPages(1<<11),
		WithTailExtents(true), WithWALBufferCap(4<<20))
	if err != nil {
		t.Fatal(err)
	}
	if db.opts.PoolPages != 1<<12 || db.opts.TierOnly || db.opts.WALBufferCap != 4<<20 {
		t.Fatalf("options not applied: %+v", db.opts)
	}
	if _, err := db.CreateRelation("image"); err != nil {
		t.Fatal(err)
	}
	content := []byte("functional options store real data")
	tx := db.Begin(nil)
	w, err := tx.CreateBlob(tx.Context(), "image", []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(content); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	db2, rep, err := RecoverDevice(dev, nil,
		WithPoolPages(1<<12), WithLogPages(1<<11), WithCkptPages(1<<11), WithTailExtents(true))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CommittedTxns == 0 {
		t.Error("recovery saw no committed transactions")
	}
	tx2 := db2.Begin(nil)
	got, err := tx2.ReadBlobBytes("image", []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	if !bytes.Equal(got, content) {
		t.Errorf("recovered content mismatch")
	}
}

// TestErrorTaxonomy pins the typed sentinels and their legacy aliases: the
// blobserver's single error→status mapping depends on errors.Is working
// across the whole API surface.
func TestErrorTaxonomy(t *testing.T) {
	db := openTest(t, testOpts())
	if _, err := db.Relation("nope"); !errors.Is(err, ErrRelationNotFound) {
		t.Errorf("missing relation: got %v want ErrRelationNotFound", err)
	}
	if _, err := db.CreateRelation("r"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("r"); !errors.Is(err, ErrRelationExists) {
		t.Errorf("duplicate relation: got %v want ErrRelationExists", err)
	}
	tx := db.Begin(nil)
	if _, err := tx.Get("r", []byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing key: got %v want ErrNotFound", err)
	}
	if _, err := tx.BlobState("r", []byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing blob: got %v want ErrNotFound", err)
	}
	mustCommit(t, tx)
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("double commit: got %v want ErrTxnDone", err)
	}
	// The one-release aliases must remain the same error values, so old
	// errors.Is(err, core.ErrKeyNotFound) call sites keep working.
	if ErrKeyNotFound != ErrNotFound || ErrNoRelation != ErrRelationNotFound || ErrRelExists != ErrRelationExists {
		t.Error("legacy aliases diverged from the new sentinels")
	}
}

// TestCreateBlobStreamingCommit streams a multi-extent blob through the
// transaction layer and checks the committed result against the one-shot
// wrapper: same bytes, same SHA-256 identity.
func TestCreateBlobStreamingCommit(t *testing.T) {
	db := openTest(t, testOpts())
	if _, err := db.CreateRelation("image"); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 5<<20+123)
	rand.New(rand.NewSource(1)).Read(data)

	tx := db.Begin(nil)
	w, err := tx.CreateBlob(tx.Context(), "image", []byte("streamed"))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := w.ReadFrom(bytes.NewReader(data)); err != nil || n != int64(len(data)) {
		t.Fatalf("ReadFrom: n=%d err=%v", n, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	tx2 := db.Begin(nil)
	if err := putBlob(tx2, "image", []byte("oneshot"), data); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx2)

	tx3 := db.Begin(nil)
	defer tx3.Commit()
	stA, err := tx3.BlobState("image", []byte("streamed"))
	if err != nil {
		t.Fatal(err)
	}
	stB, err := tx3.BlobState("image", []byte("oneshot"))
	if err != nil {
		t.Fatal(err)
	}
	if stA.Size != stB.Size || stA.SHA256 != stB.SHA256 || stA.Prefix != stB.Prefix {
		t.Error("streamed and one-shot states disagree")
	}
	if stA.SHA256 != sha256.Sum256(data) {
		t.Error("sealed SHA-256 does not match the content")
	}
	back, err := tx3.ReadBlobBytes("image", []byte("streamed"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Error("streamed content mismatch")
	}
}

// TestCommitWithOpenWriterRejected: a transaction with an unsealed writer
// must refuse to commit — the blob's State does not exist yet.
func TestCommitWithOpenWriterRejected(t *testing.T) {
	db := openTest(t, testOpts())
	if _, err := db.CreateRelation("r"); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin(nil)
	w, err := tx.CreateBlob(tx.Context(), "r", []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("partial")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrBlobWriterOpen) {
		t.Fatalf("Commit with open writer: got %v want ErrBlobWriterOpen", err)
	}
	if _, err := tx.CommitAsync(); !errors.Is(err, ErrBlobWriterOpen) {
		t.Fatalf("CommitAsync with open writer: got %v want ErrBlobWriterOpen", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
}

// TestAbortWithOpenWriterReclaims: aborting a transaction mid-stream aborts
// its writers and returns every allocated page.
func TestAbortWithOpenWriterReclaims(t *testing.T) {
	db := openTest(t, testOpts())
	if _, err := db.CreateRelation("r"); err != nil {
		t.Fatal(err)
	}
	before := db.Allocator().Stats().LivePages
	tx := db.Begin(nil)
	w, err := tx.CreateBlob(tx.Context(), "r", []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 2<<20)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if after := db.Allocator().Stats().LivePages; after != before {
		t.Errorf("abort leaked %d pages", after-before)
	}
	tx2 := db.Begin(nil)
	if _, err := tx2.BlobState("r", []byte("k")); !errors.Is(err, ErrNotFound) {
		t.Errorf("aborted blob visible: %v", err)
	}
	tx2.Commit()
}

// TestEnqueueCancelledContext: a transaction whose context is cancelled
// before the commit handoff must roll back, not commit.
func TestEnqueueCancelledContext(t *testing.T) {
	o := testOpts()
	db := openTest(t, o)
	defer db.CloseCommitter()
	if _, err := db.CreateRelation("r"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	tx := db.BeginCtx(ctx, nil)
	if err := tx.Put("r", []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := tx.Commit(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Commit after cancel: got %v want context.Canceled", err)
	}
	if err := db.DrainCommits(); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin(nil)
	if _, err := tx2.Get("r", []byte("k")); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancelled transaction's write visible: %v", err)
	}
	tx2.Commit()
}

// TestCommitWaitCancelledContext: a CommitWait (Commit) caller whose
// context dies while the committer is busy stops waiting immediately; the
// commit itself still completes in the background and the data is durable.
func TestCommitWaitCancelledContext(t *testing.T) {
	o := testOpts()
	db := openTest(t, o)
	defer db.CloseCommitter()
	if _, err := db.CreateRelation("r"); err != nil {
		t.Fatal(err)
	}

	// Stall the committer deterministically: finishBatch serializes on
	// ckptMu, so holding it keeps every ack pending.
	db.ckptMu.Lock()

	ctx, cancel := context.WithCancel(context.Background())
	tx := db.BeginCtx(ctx, nil)
	if err := tx.Put("r", []byte("k"), []byte("v")); err != nil {
		db.ckptMu.Unlock()
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- tx.CommitWait() }()
	time.Sleep(20 * time.Millisecond) // let CommitWait enqueue and block
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			db.ckptMu.Unlock()
			t.Fatalf("CommitWait: got %v want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		db.ckptMu.Unlock()
		t.Fatal("CommitWait did not return after cancellation")
	}
	db.ckptMu.Unlock()

	// The abandoned commit still lands: durability semantics are those of
	// group commit with an unobserved acknowledgement.
	if err := db.DrainCommits(); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin(nil)
	v, err := tx2.Get("r", []byte("k"))
	if err != nil || string(v) != "v" {
		t.Errorf("abandoned commit not durable: v=%q err=%v", v, err)
	}
	tx2.Commit()
}

// TestBlobWriterContextStopsUpload: the transaction's context reaches its
// writers, so a dead client stops consuming extents mid-stream.
func TestBlobWriterContextStopsUpload(t *testing.T) {
	db := openTest(t, testOpts())
	if _, err := db.CreateRelation("r"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	tx := db.BeginCtx(ctx, nil)
	w, err := tx.CreateBlob(nil, "r", []byte("k")) // nil ctx: inherit the txn's
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := w.ReadFrom(neverEndingReader{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReadFrom after cancel: got %v want context.Canceled", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if live := db.Allocator().Stats().LivePages; live != 0 {
		t.Errorf("cancelled upload leaked %d pages", live)
	}
}

type neverEndingReader struct{}

func (neverEndingReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0xAB
	}
	return len(p), nil
}

var _ io.Reader = neverEndingReader{}
