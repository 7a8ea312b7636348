package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"blobdb/internal/storage"
)

func TestAsyncCommitRoundtrip(t *testing.T) {
	db := openTest(t, testOpts())
	defer db.CloseCommitter()
	db.CreateRelation("r")
	rng := rand.New(rand.NewSource(1))
	want := map[string][]byte{}
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("k%02d", i)
		content := make([]byte, 1+rng.Intn(60<<10))
		rng.Read(content)
		want[key] = content
		tx := db.Begin(nil)
		if err := putBlob(tx, "r", []byte(key), content); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	if err := db.DrainCommits(); err != nil {
		t.Fatal(err)
	}
	for key, content := range want {
		tx := db.Begin(nil)
		got, err := tx.ReadBlobBytes("r", []byte(key))
		if err != nil || !bytes.Equal(got, content) {
			t.Fatalf("%s: %v", key, err)
		}
		tx.Commit()
	}
}

func TestAsyncCommitReadYourOwnWrite(t *testing.T) {
	// A reader after Commit (but possibly before the committer finishes)
	// must still see the staged value; the record lock serializes
	// conflicting writers.
	db := openTest(t, testOpts())
	defer db.CloseCommitter()
	db.CreateRelation("r")
	tx := db.Begin(nil)
	if err := putBlob(tx, "r", []byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	tx2 := db.Begin(nil)
	got, err := tx2.ReadBlobBytes("r", []byte("k"))
	if err != nil || string(got) != "v1" {
		t.Fatalf("read-after-commit = %q, %v", got, err)
	}
	tx2.Commit()
}

func TestAsyncCommitSequentialReplaces(t *testing.T) {
	// Replacing the same key repeatedly exercises lock handoff between the
	// worker and the committer: each writer must block until the previous
	// commit's lock release.
	db := openTest(t, testOpts())
	defer db.CloseCommitter()
	db.CreateRelation("r")
	for i := 0; i < 50; i++ {
		tx := db.Begin(nil)
		if err := putBlob(tx, "r", []byte("hot"), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	if err := db.DrainCommits(); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin(nil)
	got, _ := tx.ReadBlobBytes("r", []byte("hot"))
	tx.Commit()
	if string(got) != "v049" {
		t.Errorf("final value = %q, want v049", got)
	}
}

func TestAsyncCommitRecovery(t *testing.T) {
	// Transactions committed through the pipeline must survive a crash once
	// drained (the commit record carries the final SHA-complete state).
	o := testOpts()
	db := openTest(t, o)
	db.CreateRelation("r")
	content := bytes.Repeat([]byte{0x3C}, 50<<10)
	tx := db.Begin(nil)
	if err := putBlob(tx, "r", []byte("k"), content); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if err := db.DrainCommits(); err != nil {
		t.Fatal(err)
	}
	// Crash: recover on the same device.
	db2, rep, err := recoverDB(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ValidatedBlobs != 1 || rep.FailedBlobs != 0 {
		t.Errorf("report = %+v", rep)
	}
	tx2 := db2.Begin(nil)
	got, err := tx2.ReadBlobBytes("r", []byte("k"))
	if err != nil || !bytes.Equal(got, content) {
		t.Errorf("committed blob lost: %v", err)
	}
	tx2.Commit()
}

func TestAsyncCommitAbortBeforeEnqueue(t *testing.T) {
	db := openTest(t, testOpts())
	defer db.CloseCommitter()
	db.CreateRelation("r")
	tx := db.Begin(nil)
	if err := putBlob(tx, "r", []byte("k"), []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := db.DrainCommits(); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin(nil)
	if _, err := tx2.ReadBlobBytes("r", []byte("k")); err == nil {
		t.Error("aborted blob visible")
	}
	tx2.Commit()
	if live := db.Allocator().Stats().LivePages; live != 0 {
		t.Errorf("aborted allocation leaked %d pages", live)
	}
}

func TestCommitterBusyAccounting(t *testing.T) {
	db := openTest(t, testOpts())
	defer db.CloseCommitter()
	db.CreateRelation("r")
	if db.CommitterBusy() != 0 {
		t.Error("busy should start at zero")
	}
	tx := db.Begin(nil)
	putBlob(tx, "r", []byte("k"), make([]byte, 100<<10))
	mustCommit(t, tx)
	if err := db.DrainCommits(); err != nil {
		t.Fatal(err)
	}
	if db.CommitterBusy() == 0 {
		t.Error("committer did work but reported zero busy time")
	}
}

func TestCommitWaitDurabilityAck(t *testing.T) {
	// Commit, and CommitWait (its alias, which perfbench calls), must not
	// return until the committer has finished the txn: the Blob State's
	// SHA-256 is computed on the committer, so it must be fully populated
	// the instant either returns — no DrainCommits.
	db := openTest(t, testOpts())
	defer db.CloseCommitter()
	db.CreateRelation("r")
	for _, c := range []struct {
		name   string
		commit func(*Txn) error
	}{{"Commit", (*Txn).Commit}, {"CommitWait", (*Txn).CommitWait}} {
		tx := db.Begin(nil)
		if err := putBlob(tx, "r", []byte(c.name), make([]byte, 200<<10)); err != nil {
			t.Fatal(err)
		}
		if err := c.commit(tx); err != nil {
			t.Fatal(err)
		}
		tx2 := db.Begin(nil)
		st, err := tx2.BlobState("r", []byte(c.name))
		if err != nil {
			t.Fatal(err)
		}
		if st.SHA256 == [32]byte{} {
			t.Errorf("%s returned before the committer finalized the Blob State hash", c.name)
		}
		tx2.Commit()
	}
}

func TestCommitWaitConcurrentBatchStats(t *testing.T) {
	// Concurrent CommitWait writers (perfbench's clients) all get
	// durability acks, and the pipeline accounts every one of them against
	// shared WAL syncs.
	db := openTest(t, testOpts())
	defer db.CloseCommitter()
	db.CreateRelation("r")
	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				tx := db.Begin(nil)
				if err := putBlob(tx, "r", []byte(fmt.Sprintf("w%d-%d", w, i)), []byte("v")); err != nil {
					errs[w] = err
					return
				}
				if err := tx.CommitWait(); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	flushes, txns := db.CommitBatchStats()
	if txns != writers*5 {
		t.Errorf("batched %d txns, want %d", txns, writers*5)
	}
	if flushes == 0 || flushes > txns {
		t.Errorf("implausible flush count %d for %d txns", flushes, txns)
	}
}

func TestCommitWaitOnSyncDBAndReadOnlyTxn(t *testing.T) {
	// Default options once selected the synchronous commit path, and
	// WithAsyncCommit(true) the committer; both now open the same engine,
	// so CommitWait acknowledges a write on either. A read-only CommitWait
	// commits inline: no ack channel, no hang, no committer work.
	for _, async := range []bool{false, true} {
		db, err := New(storage.NewMemDevice(ps, 1<<15, nil), WithPoolPages(1<<12),
			WithLogPages(1<<11), WithCkptPages(1<<11), WithAsyncCommit(async))
		if err != nil {
			t.Fatal(err)
		}
		ro := db.Begin(nil)
		if err := ro.CommitWait(); err != nil {
			t.Errorf("read-only CommitWait: %v", err)
		}
		if db.CommitterBusy() != 0 {
			t.Error("read-only CommitWait ran the committer")
		}
		db.CreateRelation("r")
		tx := db.Begin(nil)
		if err := putBlob(tx, "r", []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := tx.CommitWait(); err != nil {
			t.Fatalf("WithAsyncCommit(%v): %v", async, err)
		}
		if _, txns := db.CommitBatchStats(); txns != 1 {
			t.Errorf("WithAsyncCommit(%v): committer batched %d txns, want 1", async, txns)
		}
		if err := db.CloseCommitter(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDrainCommitsOnSyncDB(t *testing.T) {
	// A DB with default options runs no committer until something is
	// queued: no busy time accrues on open, DrainCommits starts the
	// pipeline for its marker and returns, and after a commit the pipeline
	// goes idle again and DrainCommits still returns.
	db := openTest(t, testOpts())
	if db.CommitterBusy() != 0 {
		t.Error("committer busy on a freshly opened DB")
	}
	if err := db.DrainCommits(); err != nil {
		t.Errorf("DrainCommits before any write = %v", err)
	}
	db.CreateRelation("r")
	tx := db.Begin(nil)
	if err := putBlob(tx, "r", []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if err := db.DrainCommits(); err != nil {
		t.Errorf("DrainCommits after a commit = %v", err)
	}
}

// waitGoroutines polls until runtime.NumGoroutine() is back at want: a
// committer exits just after delivering its last ack, so the count drops
// a moment after Commit returns.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: an idle DB kept its committer", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIdleDBHoldsNoGoroutine: the committer runs only while work is
// queued, so DBs that committed and were dropped without CloseCommitter
// leave no goroutine behind, and a read-only commit starts none.
// CloseCommitter still drains commits that are in flight.
func TestIdleDBHoldsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		db := openTest(t, testOpts())
		db.CreateRelation("r")
		tx := db.Begin(nil)
		if err := putBlob(tx, "r", []byte("k"), make([]byte, 20<<10)); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		ro := db.Begin(nil)
		if _, err := ro.BlobState("r", []byte("k")); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, ro)
	}
	waitGoroutines(t, base)
	ro := openTest(t, testOpts()).Begin(nil)
	mustCommit(t, ro)
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("read-only commit: %d goroutines, want %d", n, base)
	}

	db := openTest(t, testOpts())
	db.CreateRelation("r")
	if err := db.DrainCommits(); err != nil {
		t.Fatalf("DrainCommits on an idle DB: %v", err)
	}
	var acks []<-chan error
	for i := 0; i < 8; i++ {
		tx := db.Begin(nil)
		if err := putBlob(tx, "r", []byte(fmt.Sprintf("k%d", i)), make([]byte, 20<<10)); err != nil {
			t.Fatal(err)
		}
		ack, err := tx.CommitAsync()
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, ack)
	}
	if err := db.CloseCommitter(); err != nil {
		t.Fatal(err)
	}
	for i, ack := range acks {
		select {
		case err := <-ack:
			if err != nil {
				t.Errorf("commit %d: %v", i, err)
			}
		default:
			t.Errorf("commit %d not acknowledged when CloseCommitter returned", i)
		}
	}
	if _, txns := db.CommitBatchStats(); txns != 8 {
		t.Errorf("committed %d txns, want 8", txns)
	}
	waitGoroutines(t, base)
}

// TestHeldCommitsSkipTheByteBudget: only the committer returns budget, and
// under HoldCommits it is parked at the gate, so a held CommitAsync that
// waited for budget would wait forever. Eight held 250 KiB puts pin 504
// pages: they fit a 768-page pool but are 1.3 times its budget (half the
// pool). Every one must be enqueued and, after ReleaseCommits,
// acknowledged. CreateRelation does not wait for the committer, so it
// works inside the hold too.
func TestHeldCommitsSkipTheByteBudget(t *testing.T) {
	db := openTest(t, options{Dev: storage.NewMemDevice(ps, 1<<12, nil), PoolPages: 768, LogPages: 1 << 8, CkptPages: 1 << 8})
	db.HoldCommits()
	if _, err := db.CreateRelation("r"); err != nil {
		t.Fatal(err)
	}
	enqueued := make(chan []<-chan error, 1)
	go func() {
		var acks []<-chan error
		defer func() { enqueued <- acks }()
		for i := 0; i < 8; i++ {
			tx := db.Begin(nil)
			if err := putBlob(tx, "r", []byte(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte{byte(i)}, 250<<10)); err != nil {
				t.Error(err)
				return
			}
			ack, err := tx.CommitAsync()
			if err != nil {
				t.Error(err)
				return
			}
			acks = append(acks, ack)
		}
	}()
	var acks []<-chan error
	select {
	case acks = <-enqueued:
	case <-time.After(20 * time.Second):
		t.Fatal("a held CommitAsync is blocked on the commit byte budget")
	}
	db.ReleaseCommits()
	for i, ack := range acks {
		select {
		case err := <-ack:
			if err != nil {
				t.Errorf("held commit %d: %v", i, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("held commit %d was not acknowledged after ReleaseCommits", i)
		}
	}
	if len(acks) != 8 {
		t.Fatalf("%d of 8 held commits enqueued", len(acks))
	}
	if err := db.CloseCommitter(); err != nil {
		t.Fatal(err)
	}
}
