package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"blobdb/internal/blob"
	"blobdb/internal/buffer"
	"blobdb/internal/storage"
	"blobdb/internal/wal"
)

const ps = storage.DefaultPageSize

// testOpts returns small-geometry options over a fresh in-memory device.
func testOpts() options {
	dev := storage.NewMemDevice(ps, 1<<15, nil) // 128MB
	return options{
		Dev:       dev,
		PoolPages: 1 << 12, // 16MB
		LogPages:  1 << 11, // 8MB
		CkptPages: 1 << 11,
	}
}

func openTest(t testing.TB, o options) *DB {
	t.Helper()
	db, err := open(o)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func mustCommit(t testing.TB, tx *Txn) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateRelation(t *testing.T) {
	db := openTest(t, testOpts())
	if _, err := db.CreateRelation("image"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("image"); !errors.Is(err, ErrRelExists) {
		t.Errorf("duplicate create = %v, want ErrRelExists", err)
	}
	if _, err := db.Relation("missing"); !errors.Is(err, ErrNoRelation) {
		t.Errorf("missing relation = %v, want ErrNoRelation", err)
	}
	names := db.Relations()
	if len(names) != 1 || names[0] != "image" {
		t.Errorf("Relations = %v", names)
	}
}

func TestInlinePutGet(t *testing.T) {
	db := openTest(t, testOpts())
	db.CreateRelation("kv")
	tx := db.Begin(nil)
	if err := tx.Put("kv", []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := tx.Get("kv", []byte("k"))
	if err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	mustCommit(t, tx)

	tx2 := db.Begin(nil)
	got, err = tx2.Get("kv", []byte("k"))
	if err != nil || string(got) != "v" {
		t.Fatalf("Get after commit = %q, %v", got, err)
	}
	if _, err := tx2.Get("kv", []byte("nope")); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("missing key = %v", err)
	}
	tx2.Commit()
}

func TestBlobPutReadDelete(t *testing.T) {
	db := openTest(t, testOpts())
	db.CreateRelation("image")
	rng := rand.New(rand.NewSource(1))
	content := make([]byte, 200<<10)
	rng.Read(content)

	tx := db.Begin(nil)
	if err := putBlob(tx, "image", []byte("xray-1.png"), content); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	tx2 := db.Begin(nil)
	got, err := tx2.ReadBlobBytes("image", []byte("xray-1.png"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Error("blob roundtrip mismatch")
	}
	st, err := tx2.BlobState("image", []byte("xray-1.png"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != uint64(len(content)) {
		t.Errorf("state size = %d", st.Size)
	}
	tx2.Commit()

	tx3 := db.Begin(nil)
	if err := tx3.DeleteBlob("image", []byte("xray-1.png")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx3)
	tx4 := db.Begin(nil)
	if _, err := tx4.ReadBlobBytes("image", []byte("xray-1.png")); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("read after delete = %v", err)
	}
	tx4.Commit()
}

func TestBlobSingleFlushWriteAmplification(t *testing.T) {
	// End-to-end single-flush check: committing N blob bytes writes N (plus
	// small WAL records) — not 2N as physlog/conventional engines do (the
	// Our.physlog comparison is TestPhyslogWriteAmplification in
	// internal/bench).
	o := testOpts()
	db := openTest(t, o)
	db.CreateRelation("r")
	var logical int64
	for i := 0; i < 20; i++ {
		content := bytes.Repeat([]byte{byte(i)}, 100<<10)
		tx := db.Begin(nil)
		if err := putBlob(tx, "r", []byte(fmt.Sprintf("k%02d", i)), content); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		logical += int64(len(content))
	}
	wa := db.WriteAmplification(logical)
	if wa > 1.1 {
		t.Errorf("write amplification = %.3f, want ~1.0 (single flush)", wa)
	}
}

func TestReplaceBlobFreesOldExtents(t *testing.T) {
	db := openTest(t, testOpts())
	db.CreateRelation("r")
	put := func(content []byte) {
		tx := db.Begin(nil)
		if err := putBlob(tx, "r", []byte("k"), content); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	put(make([]byte, 50<<10))
	liveAfterFirst := db.Allocator().Stats().LivePages
	put(make([]byte, 50<<10)) // replace: old extents freed at commit
	s := db.Allocator().Stats()
	if s.LivePages != liveAfterFirst {
		t.Errorf("LivePages = %d after replace, want %d", s.LivePages, liveAfterFirst)
	}
	// Frees apply at commit, so the *next* allocation picks them up.
	put(make([]byte, 50<<10))
	if db.Allocator().Stats().Reuses == 0 {
		t.Error("third put should reuse extents freed by the replace")
	}
}

func TestAbortRollsBack(t *testing.T) {
	db := openTest(t, testOpts())
	db.CreateRelation("r")

	// Committed base value.
	tx := db.Begin(nil)
	putBlob(tx, "r", []byte("k"), []byte("original"))
	mustCommit(t, tx)
	liveBase := db.Allocator().Stats().LivePages

	// Aborted overwrite + aborted fresh insert.
	tx2 := db.Begin(nil)
	if err := putBlob(tx2, "r", []byte("k"), bytes.Repeat([]byte{1}, 30<<10)); err != nil {
		t.Fatal(err)
	}
	if err := putBlob(tx2, "r", []byte("fresh"), []byte("new blob")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}

	tx3 := db.Begin(nil)
	got, err := tx3.ReadBlobBytes("r", []byte("k"))
	if err != nil || string(got) != "original" {
		t.Errorf("after abort: %q, %v", got, err)
	}
	if _, err := tx3.ReadBlobBytes("r", []byte("fresh")); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("aborted insert visible: %v", err)
	}
	tx3.Commit()
	if got := db.Allocator().Stats().LivePages; got != liveBase {
		t.Errorf("LivePages = %d after abort, want %d (no leak)", got, liveBase)
	}
}

func TestTxnDoneErrors(t *testing.T) {
	db := openTest(t, testOpts())
	db.CreateRelation("r")
	tx := db.Begin(nil)
	mustCommit(t, tx)
	if err := tx.Put("r", []byte("k"), []byte("v")); !errors.Is(err, ErrTxnDone) {
		t.Errorf("Put on done txn = %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("double Commit = %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("Abort after Commit = %v", err)
	}
}

func TestGrowAndUpdateThroughTxn(t *testing.T) {
	db := openTest(t, testOpts())
	db.CreateRelation("r")
	content := []byte("hello")
	tx := db.Begin(nil)
	putBlob(tx, "r", []byte("k"), content)
	mustCommit(t, tx)

	tx2 := db.Begin(nil)
	if err := growBlob(tx2, "r", []byte("k"), []byte(" world")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx2)

	tx3 := db.Begin(nil)
	got, _ := tx3.ReadBlobBytes("r", []byte("k"))
	if string(got) != "hello world" {
		t.Errorf("after grow: %q", got)
	}
	tx3.Commit()

	tx4 := db.Begin(nil)
	if err := tx4.UpdateBlob("r", []byte("k"), 0, []byte("HELLO"), 0); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx4)
	tx5 := db.Begin(nil)
	got, _ = tx5.ReadBlobBytes("r", []byte("k"))
	if string(got) != "HELLO world" {
		t.Errorf("after update: %q", got)
	}
	tx5.Commit()
}

func TestScan(t *testing.T) {
	db := openTest(t, testOpts())
	db.CreateRelation("r")
	tx := db.Begin(nil)
	putBlob(tx, "r", []byte("b"), []byte("blob-b"))
	tx.Put("r", []byte("a"), []byte("inline-a"))
	putBlob(tx, "r", []byte("c"), []byte("blob-c"))
	mustCommit(t, tx)

	tx2 := db.Begin(nil)
	var keys []string
	var blobs, inlines int
	err := tx2.Scan("r", nil, func(k, inline []byte, st *blob.State) bool {
		keys = append(keys, string(k))
		if st != nil {
			blobs++
		} else {
			inlines++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(keys) != "[a b c]" || blobs != 2 || inlines != 1 {
		t.Errorf("scan = %v (blobs=%d inlines=%d)", keys, blobs, inlines)
	}
	tx2.Commit()
}

func TestWriteWriteConflictBlocks(t *testing.T) {
	db := openTest(t, testOpts())
	db.CreateRelation("r")
	tx := db.Begin(nil)
	putBlob(tx, "r", []byte("hot"), []byte("v1"))

	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		tx2 := db.Begin(nil)
		close(started)
		putBlob(tx2, "r", []byte("hot"), []byte("v2")) // blocks on the record lock
		tx2.Commit()
		close(done)
	}()
	<-started
	select {
	case <-done:
		t.Fatal("second writer did not block on the record lock")
	default:
	}
	mustCommit(t, tx)
	<-done
	tx3 := db.Begin(nil)
	got, _ := tx3.ReadBlobBytes("r", []byte("hot"))
	if string(got) != "v2" {
		t.Errorf("final value = %q, want v2", got)
	}
	tx3.Commit()
}

func TestConcurrentDisjointWriters(t *testing.T) {
	db := openTest(t, testOpts())
	db.CreateRelation("r")
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				tx := db.Begin(nil)
				key := []byte(fmt.Sprintf("w%d-k%d", w, i))
				if err := putBlob(tx, "r", key, bytes.Repeat([]byte{byte(w)}, 8<<10)); err != nil {
					errCh <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	tx := db.Begin(nil)
	n := 0
	tx.Scan("r", nil, func(k, v []byte, st *blob.State) bool { n++; return true })
	tx.Commit()
	if n != 160 {
		t.Errorf("scanned %d tuples, want 160", n)
	}
}

func TestDesignSummary(t *testing.T) {
	s := DesignSummary()
	if s["Duplicated copies"] == "" || s["Max size"] == "" {
		t.Error("DesignSummary missing fields")
	}
}

// TestReadOnlyTxnTakesNoLogBuffer: a WAL writer holds a pooled buffer of
// wal.DefaultBufferCap bytes, so a read-only transaction must never take
// one. With the pool emptied by GC, a transaction that took a writer at
// Begin would allocate a whole buffer.
func TestReadOnlyTxnTakesNoLogBuffer(t *testing.T) {
	db := openTest(t, testOpts())
	db.CreateRelation("image")
	content := bytes.Repeat([]byte{0xAB}, 8<<10)
	tx := db.Begin(nil)
	if err := putBlob(tx, "image", []byte("k"), content); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	const txns = 16
	var before, after runtime.MemStats
	// Two cycles empty a sync.Pool: the first moves its items to the
	// victim cache, the second drops them.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < txns; i++ {
		tx := db.Begin(nil)
		if _, err := tx.BlobState("image", []byte("k")); err != nil {
			t.Fatal(err)
		}
		err := tx.ReadBlob("image", []byte("k"), func(v *buffer.BlobView) error {
			if v.Len() != len(content) {
				return fmt.Errorf("view of %d bytes, want %d", v.Len(), len(content))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			mustCommit(t, tx)
		} else if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	delta := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(wal.DefaultBufferCap / 8); delta >= limit {
		t.Errorf("%d read-only txns allocated %d bytes (limit %d): a WAL buffer was taken", txns, delta, limit)
	}
}
