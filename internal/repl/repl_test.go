package repl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"blobdb/internal/blob"
	"blobdb/internal/core"
	"blobdb/internal/storage"
	"blobdb/internal/wal"
)

func newEngine(t *testing.T) *core.DB {
	t.Helper()
	db, err := core.New(storage.NewMemDevice(storage.DefaultPageSize, 1<<14, nil),
		core.WithPoolPages(1<<12),
		core.WithLogPages(1<<10),
		core.WithCkptPages(1<<11),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.CloseCommitter() })
	return db
}

func newPair(t *testing.T) (*core.DB, *Replica) {
	t.Helper()
	primary := newEngine(t)
	if _, err := primary.CreateRelation("r"); err != nil {
		t.Fatal(err)
	}
	rep := NewReplica(newEngine(t), NewEngineSource(primary))
	return primary, rep
}

func putBlob(t *testing.T, db *core.DB, rel, key string, content []byte) {
	t.Helper()
	tx := db.Begin(nil)
	w, err := tx.CreateBlob(nil, rel, []byte(key))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(content); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func putInline(t *testing.T, db *core.DB, rel, key string, value []byte) {
	t.Helper()
	tx := db.Begin(nil)
	if err := tx.Put(rel, []byte(key), value); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func readBlob(t *testing.T, db *core.DB, rel, key string) ([]byte, string, bool) {
	t.Helper()
	tx := db.Begin(nil)
	defer tx.Commit()
	st, err := tx.BlobState(rel, []byte(key))
	if errors.Is(err, core.ErrNotFound) || errors.Is(err, core.ErrRelationNotFound) {
		return nil, "", false
	}
	if err != nil {
		t.Fatal(err)
	}
	content, err := tx.ReadBlobBytes(rel, []byte(key))
	if err != nil {
		t.Fatal(err)
	}
	return content, st.ETag(), true
}

func etagOf(t *testing.T, db *core.DB, rel, key string) string {
	t.Helper()
	tx := db.Begin(nil)
	defer tx.Commit()
	st, err := tx.BlobState(rel, []byte(key))
	if err != nil {
		t.Fatal(err)
	}
	return st.ETag()
}

// TestReplicateBasic: puts, an overwrite, an inline value, and a delete all
// reach the replica with byte-identical content and ETags, and the applied
// LSN tracks the primary's durable horizon.
func TestReplicateBasic(t *testing.T) {
	ctx := context.Background()
	primary, rep := newPair(t)

	putBlob(t, primary, "r", "a", bytes.Repeat([]byte("alpha "), 500))
	putBlob(t, primary, "r", "b", []byte("beta"))
	putInline(t, primary, "r", "i", []byte("inline-value"))

	lsn, err := rep.Sync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lsn == 0 || lsn != rep.AppliedLSN() {
		t.Fatalf("applied LSN %d after sync", lsn)
	}
	if lsn != primary.WAL().DurableLSN() {
		t.Fatalf("applied %d, primary durable %d", lsn, primary.WAL().DurableLSN())
	}

	for _, key := range []string{"a", "b"} {
		got, etag, ok := readBlob(t, rep.DB(), "r", key)
		if !ok {
			t.Fatalf("key %q missing on replica", key)
		}
		want, wantTag, _ := readBlob(t, primary, "r", key)
		if !bytes.Equal(got, want) || etag != wantTag {
			t.Fatalf("key %q: replica diverged (etag %s vs %s)", key, etag, wantTag)
		}
	}
	tx := rep.DB().Begin(nil)
	v, err := tx.Get("r", []byte("i"))
	tx.Commit()
	if err != nil || string(v) != "inline-value" {
		t.Fatalf("inline value on replica = %q, %v", v, err)
	}

	// Overwrite and delete, then a second sync round.
	putBlob(t, primary, "r", "a", []byte("alpha-v2"))
	delTx := primary.Begin(nil)
	if err := delTx.DeleteBlob("r", []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := delTx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	got, etag, ok := readBlob(t, rep.DB(), "r", "a")
	if !ok || !bytes.Equal(got, []byte("alpha-v2")) || etag != etagOf(t, primary, "r", "a") {
		t.Fatalf("overwrite not replicated: %q ok=%v", got, ok)
	}
	if _, _, ok := readBlob(t, rep.DB(), "r", "b"); ok {
		t.Fatal("deleted key survived on replica")
	}
}

// TestReplicateSkipsAborted: an aborted transaction's records never reach
// the replica's state.
func TestReplicateSkipsAborted(t *testing.T) {
	ctx := context.Background()
	primary, rep := newPair(t)

	tx := primary.Begin(nil)
	w, err := tx.CreateBlob(nil, "r", []byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("never")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	putBlob(t, primary, "r", "kept", []byte("kept"))

	if _, err := rep.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := readBlob(t, rep.DB(), "r", "doomed"); ok {
		t.Fatal("aborted transaction replicated")
	}
	if _, _, ok := readBlob(t, rep.DB(), "r", "kept"); !ok {
		t.Fatal("committed transaction missing")
	}
}

// TestReplicaStaleness: commits the replica has not pulled yet are
// invisible — bounded staleness, not divergence. After the next sync the
// ETags converge to the primary's.
func TestReplicaStaleness(t *testing.T) {
	ctx := context.Background()
	primary, rep := newPair(t)

	putBlob(t, primary, "r", "k", []byte("v1"))
	if _, err := rep.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	h1 := rep.AppliedLSN()
	v1tag := etagOf(t, rep.DB(), "r", "k")

	putBlob(t, primary, "r", "k", []byte("v2"))
	// No sync yet: the replica still serves v1 at horizon h1.
	if got := rep.AppliedLSN(); got != h1 {
		t.Fatalf("applied moved without sync: %d -> %d", h1, got)
	}
	if tag := etagOf(t, rep.DB(), "r", "k"); tag != v1tag {
		t.Fatalf("replica changed without sync")
	}
	if _, err := rep.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if rep.AppliedLSN() <= h1 {
		t.Fatalf("applied did not advance: %d", rep.AppliedLSN())
	}
	if tag := etagOf(t, rep.DB(), "r", "k"); tag != etagOf(t, primary, "r", "k") {
		t.Fatal("replica etag diverged after sync")
	}
}

// TestReplicaResync: a replica attaching after the primary checkpointed
// (truncating the records it would need) installs the snapshot and then
// tails normally.
func TestReplicaResync(t *testing.T) {
	ctx := context.Background()
	primary, rep := newPair(t)

	putBlob(t, primary, "r", "old", bytes.Repeat([]byte("x"), 4000))
	putInline(t, primary, "r", "num", []byte("42"))
	if err := primary.WAL().Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	if primary.WAL().TruncatedLSN() == 0 {
		t.Fatal("checkpoint did not truncate")
	}
	putBlob(t, primary, "r", "new", []byte("post-checkpoint"))

	if _, err := rep.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if rep.Resyncs() != 1 {
		t.Fatalf("resyncs = %d, want 1", rep.Resyncs())
	}
	for _, key := range []string{"old", "new"} {
		got, etag, ok := readBlob(t, rep.DB(), "r", key)
		if !ok {
			t.Fatalf("key %q missing after resync", key)
		}
		want, wantTag, _ := readBlob(t, primary, "r", key)
		if !bytes.Equal(got, want) || etag != wantTag {
			t.Fatalf("key %q diverged after resync", key)
		}
	}
	tx := rep.DB().Begin(nil)
	v, err := tx.Get("r", []byte("num"))
	tx.Commit()
	if err != nil || string(v) != "42" {
		t.Fatalf("inline after resync = %q, %v", v, err)
	}

	// Resync also drops tuples the primary no longer has: simulate a
	// diverged replica by planting a local key, then force another resync.
	putBlob(t, rep.DB(), "r", "phantom", []byte("local-only"))
	for i := 0; i < 40; i++ {
		putBlob(t, primary, "r", "churn", bytes.Repeat([]byte{byte(i)}, 3000))
		if err := primary.WAL().Checkpoint(nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rep.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if rep.Resyncs() < 2 {
		t.Fatalf("second truncation did not resync (resyncs=%d)", rep.Resyncs())
	}
	if _, _, ok := readBlob(t, rep.DB(), "r", "phantom"); ok {
		t.Fatal("resync kept a tuple the primary does not have")
	}
}

// TestPromote: after Promote the engine takes writes, and Sync refuses to
// run — the failover contract.
func TestPromote(t *testing.T) {
	ctx := context.Background()
	primary, rep := newPair(t)
	putBlob(t, primary, "r", "k", []byte("from-primary"))
	if _, err := rep.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	horizon := rep.AppliedLSN()

	db := rep.Promote()
	if !rep.Promoted() {
		t.Fatal("Promoted() false after Promote")
	}
	if rep.AppliedLSN() != horizon {
		t.Fatal("promotion moved the applied horizon")
	}
	if _, err := rep.Sync(ctx); !errors.Is(err, ErrPromoted) {
		t.Fatalf("Sync after promote = %v, want ErrPromoted", err)
	}

	// The promoted engine serves the replicated state and accepts writes.
	if _, _, ok := readBlob(t, db, "r", "k"); !ok {
		t.Fatal("replicated key missing after promotion")
	}
	putBlob(t, db, "r", "k2", []byte("post-failover"))
	if got, _, ok := readBlob(t, db, "r", "k2"); !ok || !bytes.Equal(got, []byte("post-failover")) {
		t.Fatal("promoted engine write failed")
	}
}

// TestMultiTxnBatchOrder: a group-commit batch of distinct-key
// transactions replicates whole, and successive commits to one key pulled
// in a single sync apply in commit order — the last committed writer wins.
func TestMultiTxnBatchOrder(t *testing.T) {
	ctx := context.Background()
	primary, rep := newPair(t)

	// One group-commit batch, three transactions, distinct keys (same-key
	// writers serialize on the row lock and cannot share a held batch).
	primary.HoldCommits()
	var acks []<-chan error
	for i := 0; i < 3; i++ {
		tx := primary.Begin(nil)
		w, err := tx.CreateBlob(nil, "r", []byte{'k', byte('0' + i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte{'v', byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		ch, err := tx.CommitAsync()
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, ch)
	}
	primary.ReleaseCommits()
	for _, ch := range acks {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	// Two sequential rewrites of one key, both inside the same pull window.
	putBlob(t, primary, "r", "k", []byte("first"))
	putBlob(t, primary, "r", "k", []byte("second"))

	if _, err := rep.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, _, ok := readBlob(t, rep.DB(), "r", string([]byte{'k', byte('0' + i)}))
		if !ok || !bytes.Equal(got, []byte{'v', byte('0' + i)}) {
			t.Fatalf("batch txn %d: replica has %q ok=%v", i, got, ok)
		}
	}
	got, etag, ok := readBlob(t, rep.DB(), "r", "k")
	if !ok || !bytes.Equal(got, []byte("second")) {
		t.Fatalf("commit order: replica has %q, want second", got)
	}
	if etag != etagOf(t, primary, "r", "k") {
		t.Fatal("commit order: etag diverged")
	}
}

// TestReplicaTailsConcurrentWriters: a replica pulling while several
// writers commit concurrently on the primary catches up to the primary's
// durable LSN once the writers stop, and then serves every key with the
// primary's ETag.
func TestReplicaTailsConcurrentWriters(t *testing.T) {
	ctx := context.Background()
	primary, rep := newPair(t)
	const writers, perWriter = 4, 8
	key := func(w, i int) string { return fmt.Sprintf("w%d-%02d", w, i) }

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tx := primary.Begin(nil)
				bw, err := tx.CreateBlob(ctx, "r", []byte(key(w, i)))
				if err == nil {
					_, err = bw.Write(bytes.Repeat([]byte{byte('a' + w), byte(i)}, 2<<10))
					if err == nil {
						err = bw.Close()
					} else {
						bw.Abort()
					}
				}
				if err != nil {
					tx.Abort()
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for tailing := true; tailing; {
		select {
		case <-done:
			tailing = false
		default:
		}
		if _, err := rep.Sync(ctx); err != nil {
			t.Fatal(err)
		}
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, err := rep.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if applied, durable := rep.AppliedLSN(), primary.WAL().DurableLSN(); applied < durable {
		t.Fatalf("replica applied LSN %d behind the primary's durable %d after catch-up", applied, durable)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			k := key(w, i)
			if _, etag, ok := readBlob(t, rep.DB(), "r", k); !ok || etag != etagOf(t, primary, "r", k) {
				t.Fatalf("key %q: replica ETag %q (present %v) differs from the primary's", k, etag, ok)
			}
		}
	}
}

// TestReplicaTailsAcrossWatermarkRecords: the primary's committer logs
// extents-landed watermark records (wal.RecLanded, transaction id 0) in
// the batches a replica pulls. The replica skips them and ends with rows
// identical to the primary's.
func TestReplicaTailsAcrossWatermarkRecords(t *testing.T) {
	ctx := context.Background()
	primary, rep := newPair(t)
	want := map[string][]byte{}
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("k%02d", i%8)
		want[key] = bytes.Repeat([]byte{byte('a' + i)}, 3000+i*700)
		putBlob(t, primary, "r", key, want[key])
		if i%3 == 2 {
			if _, err := rep.Sync(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := rep.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := primary.WAL().ReadFrom(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	marks := 0
	for _, r := range recs {
		if r.Type == wal.RecLanded {
			marks++
		}
	}
	if marks == 0 {
		t.Fatal("the primary logged no watermark record; the test covers nothing")
	}
	if rep.AppliedLSN() != primary.WAL().DurableLSN() {
		t.Errorf("applied %d, primary durable %d", rep.AppliedLSN(), primary.WAL().DurableLSN())
	}
	n := 0
	tx := rep.DB().Begin(nil)
	tx.Scan("r", nil, func(k, _ []byte, _ *blob.State) bool { n++; return true })
	tx.Commit()
	if n != len(want) {
		t.Errorf("replica holds %d rows, want %d", n, len(want))
	}
	for key, c := range want {
		got, etag, ok := readBlob(t, rep.DB(), "r", key)
		if !ok || !bytes.Equal(got, c) || etag != etagOf(t, primary, "r", key) {
			t.Errorf("key %q diverged on the replica (present %v)", key, ok)
		}
	}
}
