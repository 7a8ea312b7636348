package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"blobdb/internal/blob"
	"blobdb/internal/storage"
	"blobdb/internal/wal"
)

// crashEnv builds a DB, runs setup, then "crashes" by recovering a fresh DB
// over the same device (the old DB object is simply abandoned, like a dead
// process: unflushed WAL buffers and the buffer pool vanish).
func crashAndRecover(t *testing.T, o options) (*DB, *RecoveryReport) {
	t.Helper()
	db, rep, err := recoverDB(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	return db, rep
}

func TestRecoverEmptyDevice(t *testing.T) {
	o := testOpts()
	db, rep := crashAndRecover(t, o)
	if rep.FromCheckpoint || rep.CommittedTxns != 0 {
		t.Errorf("empty recovery report = %+v", rep)
	}
	if len(db.Relations()) != 0 {
		t.Error("empty device produced relations")
	}
}

func TestRecoverCommittedBlobSurvives(t *testing.T) {
	o := testOpts()
	db := openTest(t, o)
	db.CreateRelation("image")
	content := bytes.Repeat([]byte{0xAB}, 150<<10)
	tx := db.Begin(nil)
	putBlob(tx, "image", []byte("k"), content)
	mustCommit(t, tx)
	// Crash. The committed blob's state is in the WAL and its extents were
	// flushed at commit. The other committed transaction is the
	// relation's creation.
	db2, rep := crashAndRecover(t, o)
	if rep.CommittedTxns != 2 || rep.ValidatedBlobs != 1 || rep.FailedBlobs != 0 {
		t.Errorf("report = %+v", rep)
	}
	tx2 := db2.Begin(nil)
	got, err := tx2.ReadBlobBytes("image", []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Error("committed blob lost after crash")
	}
	tx2.Commit()
}

func TestRecoverUncommittedTxnVanishes(t *testing.T) {
	o := testOpts()
	db := openTest(t, o)
	db.CreateRelation("r")
	tx := db.Begin(nil)
	putBlob(tx, "r", []byte("ghost"), []byte("never committed"))
	// Crash before Commit: WAL buffer never flushed. The one committed
	// transaction is the relation's creation.
	db2, rep := crashAndRecover(t, o)
	if rep.CommittedTxns != 1 {
		t.Errorf("report = %+v", rep)
	}
	tx2 := db2.Begin(nil)
	if _, err := tx2.ReadBlobBytes("r", []byte("ghost")); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("uncommitted blob after crash: %v, want ErrKeyNotFound", err)
	}
	tx2.Commit()
	_ = tx
}

// TestRecoverBlobStateDurableButExtentsLost is the paper's central recovery
// scenario (§III-C): the WAL (Blob State) is durable but the crash happened
// before the extents were flushed. The SHA-256 validation must fail the
// transaction and remove the tuple.
func TestRecoverBlobStateDurableButExtentsLost(t *testing.T) {
	o := testOpts()
	db := openTest(t, o)
	db.CreateRelation("r")

	content := bytes.Repeat([]byte{0x5C}, 80<<10)
	tx := db.Begin(nil)
	if err := putBlob(tx, "r", []byte("torn"), content); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash between WAL fsync and extent flush: make the WAL
	// durable (including the commit record) but never flush the extents.
	if err := CrashBeforeExtentFlush(tx); err != nil {
		t.Fatal(err)
	}
	// Extents are NOT flushed. Crash.
	db2, rep := crashAndRecover(t, o)
	if rep.FailedBlobs != 1 {
		t.Errorf("report = %+v; want 1 failed blob", rep)
	}
	tx2 := db2.Begin(nil)
	if _, err := tx2.ReadBlobBytes("r", []byte("torn")); err == nil {
		t.Error("torn blob visible after recovery")
	}
	tx2.Commit()
	// The failed blob's extents must be reusable, not leaked.
	if live := db2.Allocator().Stats().LivePages; live != 0 {
		t.Errorf("LivePages = %d after failed-blob recovery, want 0", live)
	}
}

func TestRecoverMixedCommittedAndTorn(t *testing.T) {
	o := testOpts()
	db := openTest(t, o)
	db.CreateRelation("r")
	good := bytes.Repeat([]byte{1}, 60<<10)
	tx := db.Begin(nil)
	putBlob(tx, "r", []byte("good"), good)
	mustCommit(t, tx)

	tx2 := db.Begin(nil)
	putBlob(tx2, "r", []byte("torn"), bytes.Repeat([]byte{2}, 60<<10))
	if err := CrashBeforeExtentFlush(tx2); err != nil {
		t.Fatal(err)
	}
	// crash without extent flush for txn 2

	db2, rep := crashAndRecover(t, o)
	if rep.ValidatedBlobs != 1 || rep.FailedBlobs != 1 {
		t.Errorf("report = %+v", rep)
	}
	tx3 := db2.Begin(nil)
	got, err := tx3.ReadBlobBytes("r", []byte("good"))
	if err != nil || !bytes.Equal(got, good) {
		t.Error("good blob lost")
	}
	if _, err := tx3.ReadBlobBytes("r", []byte("torn")); err == nil {
		t.Error("torn blob survived")
	}
	tx3.Commit()
}

func TestRecoverAfterCheckpoint(t *testing.T) {
	o := testOpts()
	db := openTest(t, o)
	db.CreateRelation("r")
	pre := bytes.Repeat([]byte{3}, 40<<10)
	tx := db.Begin(nil)
	putBlob(tx, "r", []byte("pre-ckpt"), pre)
	mustCommit(t, tx)
	if err := db.WAL().Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	post := bytes.Repeat([]byte{4}, 40<<10)
	tx2 := db.Begin(nil)
	putBlob(tx2, "r", []byte("post-ckpt"), post)
	mustCommit(t, tx2)

	db2, rep := crashAndRecover(t, o)
	if !rep.FromCheckpoint {
		t.Error("recovery ignored the checkpoint")
	}
	tx3 := db2.Begin(nil)
	for name, want := range map[string][]byte{"pre-ckpt": pre, "post-ckpt": post} {
		got, err := tx3.ReadBlobBytes("r", []byte(name))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s lost after checkpointed recovery: %v", name, err)
		}
	}
	tx3.Commit()
}

func TestRecoverDeleteSurvives(t *testing.T) {
	o := testOpts()
	db := openTest(t, o)
	db.CreateRelation("r")
	tx := db.Begin(nil)
	putBlob(tx, "r", []byte("k"), []byte("to be deleted"))
	mustCommit(t, tx)
	tx2 := db.Begin(nil)
	tx2.DeleteBlob("r", []byte("k"))
	mustCommit(t, tx2)

	db2, _ := crashAndRecover(t, o)
	tx3 := db2.Begin(nil)
	if _, err := tx3.ReadBlobBytes("r", []byte("k")); err == nil {
		t.Error("deleted blob resurrected by recovery")
	}
	tx3.Commit()
}

func TestRecoverIdempotent(t *testing.T) {
	// Recovering twice must give the same state (redo is idempotent).
	o := testOpts()
	db := openTest(t, o)
	db.CreateRelation("r")
	for i := 0; i < 5; i++ {
		tx := db.Begin(nil)
		putBlob(tx, "r", []byte(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte{byte(i)}, 10<<10))
		mustCommit(t, tx)
	}
	db2, rep1 := crashAndRecover(t, o)
	_ = db2
	db3, rep2 := crashAndRecover(t, o)
	// The second recovery starts from the first one's checkpoint, so the
	// counters differ; what must match is the surviving data.
	if rep1.FailedBlobs != 0 || rep2.FailedBlobs != 0 {
		t.Errorf("reports show failures: %+v vs %+v", rep1, rep2)
	}
	tx := db3.Begin(nil)
	n := 0
	tx.Scan("r", nil, func(k, v []byte, st *blob.State) bool { n++; return true })
	tx.Commit()
	if n != 5 {
		t.Errorf("recovered %d tuples, want 5", n)
	}
}

func TestRecoverManyRandomCrashPoints(t *testing.T) {
	// Failure-injection sweep: commit K transactions, leave one in each of
	// several torn states, recover, and check exactly the committed ones
	// survive.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		o := testOpts()
		db := openTest(t, o)
		db.CreateRelation("r")
		want := map[string][]byte{}
		n := 3 + rng.Intn(5)
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("t%d-k%d", trial, i)
			content := make([]byte, 1+rng.Intn(50<<10))
			rng.Read(content)
			tx := db.Begin(nil)
			if err := putBlob(tx, "r", []byte(key), content); err != nil {
				t.Fatal(err)
			}
			switch rng.Intn(3) {
			case 0: // committed
				mustCommit(t, tx)
				want[key] = content
			case 1: // WAL durable, extents lost
				CrashBeforeExtentFlush(tx)
			case 2: // nothing durable
				tx.done = true
			}
		}
		db2, _ := crashAndRecover(t, o)
		tx := db2.Begin(nil)
		got := map[string]bool{}
		tx.Scan("r", nil, func(k, v []byte, st *blob.State) bool {
			got[string(k)] = true
			return true
		})
		for key, content := range want {
			b, err := tx.ReadBlobBytes("r", []byte(key))
			if err != nil || !bytes.Equal(b, content) {
				t.Errorf("trial %d: committed %s lost", trial, key)
			}
			delete(got, key)
		}
		// Note: a "WAL durable, extents lost" blob whose content happens to
		// be all zeros could validate against zeroed device pages only if
		// the hash matched — it cannot, since contents are random.
		for k := range got {
			t.Errorf("trial %d: unexpected survivor %s", trial, k)
		}
		tx.Commit()
	}
}

// TestRecoverHashesEachStateOnce pins recovery's hash-once rule: each
// distinct Blob State a non-landed transaction names is hashed exactly once
// across the Analysis pass and the sweep, however many WAL records or
// tuples carry it; landed states — checkpoint-sourced and watermarked — are
// trusted; and the validation workers' schedule leaks into neither the
// report nor the recovered keys.
func TestRecoverHashesEachStateOnce(t *testing.T) {
	const pages = 1 << 13 // 32 MiB
	dev := storage.NewMemDevice(ps, pages, nil)
	o := options{Dev: dev, PoolPages: 1 << 11, LogPages: 1 << 10, CkptPages: 1 << 10}
	db := openTest(t, o)
	db.CreateRelation("r")
	rng := rand.New(rand.NewSource(19))
	newContent := func() []byte {
		c := make([]byte, 20<<10+rng.Intn(40<<10))
		rng.Read(c)
		return c
	}
	want := map[string][]byte{}
	var wantHashed, wantTrusted int
	var wantBytes uint64
	put := func(key string, c []byte) {
		putCommitted(t, db, "r", []byte(key), c)
		want[key] = c
	}
	hashedOnce := func(c []byte) {
		wantHashed++
		wantBytes += uint64(len(c))
	}

	// Checkpoint-sourced states in a confirmed image: trusted.
	for i := 0; i < 4; i++ {
		put(fmt.Sprintf("c%d", i), newContent())
		wantTrusted++
	}
	if err := db.WAL().Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	// WAL-sourced states whose batches a later watermark covers: trusted.
	for i := 0; i < 3; i++ {
		put(fmt.Sprintf("l%d", i), newContent())
		wantTrusted++
	}
	shared := newContent()
	put("d0", shared)
	wantTrusted++
	// The last batch the watermark covers is d0's: the next two batches
	// log it and are not covered themselves. An overwrite whose last writer
	// then fails: the failed state is hashed by the Analysis pass, the
	// older version it leaves in place by the sweep.
	old := newContent()
	put("t", old)
	hashedOnce(old)
	// One batch of more states than there are validation workers, plus a
	// key sharing d0's state: hashed by the Analysis pass, not again by
	// the sweep, and the shared state once.
	db.HoldCommits()
	var acks []<-chan error
	commitHeld := func(key string, c []byte) {
		tx := db.Begin(nil)
		if err := putBlob(tx, "r", []byte(key), c); err != nil {
			t.Fatal(err)
		}
		ack, err := tx.CommitAsync()
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, ack)
		want[key] = c
	}
	for i := 0; i < runtime.GOMAXPROCS(0)+3; i++ {
		c := newContent()
		commitHeld(fmt.Sprintf("w%02d", i), c)
		hashedOnce(c)
	}
	commitHeld("d1", shared)
	hashedOnce(shared)
	db.ReleaseCommits()
	for _, ack := range acks {
		if err := <-ack; err != nil {
			t.Fatal(err)
		}
	}
	st0, st1 := stateOf(t, db, "d0"), stateOf(t, db, "d1")
	if !bytes.Equal(st0.Encode(), st1.Encode()) {
		t.Fatal("identical PUTs did not share one Blob State")
	}
	torn := newContent()
	tx := db.Begin(nil)
	if err := putBlob(tx, "r", []byte("t"), torn); err != nil {
		t.Fatal(err)
	}
	if err := CrashBeforeExtentFlush(tx); err != nil {
		t.Fatal(err)
	}
	hashedOnce(torn)

	img := make([]byte, pages*ps)
	if err := dev.ReadPages(nil, 0, pages, img); err != nil {
		t.Fatal(err)
	}
	var first RecoveryReport
	for run := 0; run < 5; run++ {
		ro := o
		ro.Dev = storage.NewMemDeviceFrom(ps, pages, nil, img)
		db2, rep, err := recoverDB(ro, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.HashedBlobs != wantHashed || rep.HashedBytes != wantBytes || rep.TrustedBlobs != wantTrusted {
			t.Errorf("run %d: hashed %d states / %d bytes and trusted %d, want %d / %d and %d (each named state once)",
				run, rep.HashedBlobs, rep.HashedBytes, rep.TrustedBlobs, wantHashed, wantBytes, wantTrusted)
		}
		if rep.FailedBlobs != 1 || rep.DroppedTuples != 0 {
			t.Errorf("run %d: FailedBlobs=%d DroppedTuples=%d, want 1 and 0", run, rep.FailedBlobs, rep.DroppedTuples)
		}
		if run == 0 {
			first = *rep
		} else if *rep != first {
			t.Errorf("run %d: report %+v differs from run 0's %+v", run, *rep, first)
		}
		got := 0
		tx := db2.Begin(nil)
		tx.Scan("r", nil, func(k, _ []byte, _ *blob.State) bool {
			got++
			if _, ok := want[string(k)]; !ok {
				t.Errorf("run %d: unexpected key %q recovered", run, k)
			}
			return true
		})
		for key, c := range want {
			if b, err := tx.ReadBlobBytes("r", []byte(key)); err != nil || !bytes.Equal(b, c) {
				t.Errorf("run %d: key %q lost or changed: %v", run, key, err)
			}
		}
		tx.Commit()
		if got != len(want) {
			t.Errorf("run %d: recovered %d keys, want %d", run, got, len(want))
		}
		if err := db2.VerifyContent(); err != nil {
			t.Errorf("run %d: %v", run, err)
		}
	}
}

// stateOf returns key's committed Blob State in relation "r".
func stateOf(t *testing.T, db *DB, key string) *blob.State {
	t.Helper()
	tx := db.Begin(nil)
	defer tx.Commit()
	st, err := tx.BlobState("r", []byte(key))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRecoverWithPoolForOneExtent recovers into a pool that holds one
// blob's largest extent but not one per validation worker. Workers then
// find the pool pinned full by each other; every committed blob must
// still validate, as it does when one goroutine hashes them in turn. The
// blobs commit as one batch, which no watermark covers, so recovery hashes
// them all.
func TestRecoverWithPoolForOneExtent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const pages = 1 << 12
	// The writing engine's pool holds the whole batch pinned; recovery
	// runs with the small one.
	o := options{Dev: storage.NewMemDevice(ps, pages, nil), PoolPages: 2048, LogPages: 1 << 9, CkptPages: 1 << 9}
	db := openTest(t, o)
	db.CreateRelation("r")
	rng := rand.New(rand.NewSource(23))
	const blobs = 8
	db.HoldCommits()
	var acks []<-chan error
	for i := 0; i < blobs; i++ {
		c := make([]byte, 250<<10) // tiers 1..32 pages: the largest extent is 32 pages
		rng.Read(c)
		tx := db.Begin(nil)
		if err := putBlob(tx, "r", []byte(fmt.Sprintf("k%d", i)), c); err != nil {
			t.Fatal(err)
		}
		ack, err := tx.CommitAsync()
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, ack)
	}
	db.ReleaseCommits()
	for _, ack := range acks {
		if err := <-ack; err != nil {
			t.Fatal(err)
		}
	}
	o.PoolPages = 40
	_, rep, err := recoverDB(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ValidatedBlobs != blobs || rep.FailedBlobs != 0 {
		t.Errorf("report = %+v, want %d validated and none failed", rep, blobs)
	}
}

// BenchmarkRecoverDevice times recovery of 256 × 256 KiB blobs on a
// MemDevice, with every state WAL-sourced or every state
// checkpoint-sourced.
func BenchmarkRecoverDevice(b *testing.B) {
	const (
		pages = 40 << 10 // 160 MiB: 256 tier-rounded blobs need ~127 MiB of heap
		blobs = 256
		size  = 256 << 10
	)
	for _, bc := range []struct {
		name       string
		checkpoint bool
	}{{"wal", false}, {"checkpoint", true}} {
		b.Run(bc.name, func(b *testing.B) {
			dev := storage.NewMemDevice(ps, pages, nil)
			o := options{Dev: dev, PoolPages: 1 << 12, LogPages: 1 << 11, CkptPages: 1 << 11}
			db := openTest(b, o)
			db.CreateRelation("r")
			rng := rand.New(rand.NewSource(1))
			content := make([]byte, size)
			for i := 0; i < blobs; i++ {
				rng.Read(content)
				tx := db.Begin(nil)
				if err := putBlob(tx, "r", []byte(fmt.Sprintf("k%03d", i)), content); err != nil {
					b.Fatal(err)
				}
				mustCommit(b, tx)
			}
			if bc.checkpoint {
				if err := db.WAL().Checkpoint(nil); err != nil {
					b.Fatal(err)
				}
			}
			img := make([]byte, pages*ps)
			if err := dev.ReadPages(nil, 0, pages, img); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(blobs * size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ro := o
				ro.Dev = storage.NewMemDeviceFrom(ps, pages, nil, img)
				b.StartTimer()
				_, rep, err := recoverDB(ro, nil)
				if err != nil {
					b.Fatal(err)
				}
				if rep.HashedBlobs != blobs || rep.FailedBlobs != 0 {
					b.Fatalf("report = %+v", rep)
				}
			}
		})
	}
}

var _ = storage.DefaultPageSize

// TestRecoveryValidatesUsedPagesOnly: validating a blob at recovery reads
// only the pages its content covers. A 256 KiB blob occupies 127 pages of
// tier extents; recovery loads 64.
func TestRecoveryValidatesUsedPagesOnly(t *testing.T) {
	const pages = 1 << 13
	dev := storage.NewMemDevice(ps, pages, nil)
	o := options{Dev: dev, PoolPages: 1 << 11, LogPages: 1 << 10, CkptPages: 1 << 10}
	db := openTest(t, o)
	db.CreateRelation("r")
	content := make([]byte, 256<<10)
	rand.New(rand.NewSource(5)).Read(content)
	putCommitted(t, db, "r", []byte("k"), content)
	img := make([]byte, pages*ps)
	if err := dev.ReadPages(nil, 0, pages, img); err != nil {
		t.Fatal(err)
	}

	o.Dev = storage.NewMemDeviceFrom(ps, pages, nil, img)
	db2, rep, err := recoverDB(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.CloseCommitter()
	if rep.HashedBlobs != 1 || rep.FailedBlobs != 0 {
		t.Fatalf("recovery hashed %d blobs, %d failed; want 1 and 0", rep.HashedBlobs, rep.FailedBlobs)
	}
	if n := db2.pool.Stats().FixBatchPages.Load(); n != 64 {
		t.Errorf("recovery loaded %d pages to validate a 256 KiB blob, want 64", n)
	}
	if got := readCommitted(t, db2, "r", []byte("k")); !bytes.Equal(got, content) {
		t.Error("recovered blob reads back wrong")
	}
}

// TestCreatedRelationSurvivesCrash: CreateRelation returns once the
// creation is durable, so a crash right after it, before any commit into
// the relation and before any checkpoint, still recovers the relation.
// The same holds for a relation a replica apply creates: its creation is
// logged in the apply's own transaction, here one whose only record is
// the idempotent delete of an absent key.
func TestCreatedRelationSurvivesCrash(t *testing.T) {
	opts := func(dev storage.Device) options {
		return options{Dev: dev, PoolPages: 1 << 10, LogPages: 1 << 8, CkptPages: 1 << 8}
	}
	fd, err := storage.NewFaultDevice(storage.NewMemDevice(ps, 1<<12, nil),
		storage.FaultConfig{Seed: 1, CrashOp: -1, Mode: storage.TearScramble})
	if err != nil {
		t.Fatal(err)
	}
	db := openTest(t, opts(fd))
	if _, err := db.CreateRelation("r"); err != nil {
		t.Fatal(err)
	}
	del := wal.Record{LSN: 1, TxnID: 1, Type: wal.RecHeapDelete, Payload: heapPutPayload("s", []byte("k"), nil)}
	if err := db.ApplyReplicated(context.Background(), []wal.Record{del}, nil); err != nil {
		t.Fatal(err)
	}
	fd.CrashNow()
	db.CloseCommitter()
	rdb, _, err := recoverDB(opts(fd.TakeCrashImage(nil)), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.CloseCommitter()
	for _, rel := range []string{"r", "s"} {
		if _, err := rdb.Relation(rel); err != nil {
			t.Errorf("relation %q lost in a crash after its creation returned: %v", rel, err)
		}
	}
	// The recovered relation takes writes.
	putCommitted(t, rdb, "r", []byte("k"), testContent(1, 10<<10))
}
