package core

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"

	"blobdb/internal/storage"
)

// landedOpts is a small geometry for the landing tests.
func landedOpts() options {
	return options{Dev: storage.NewMemDevice(ps, 1<<12, nil), PoolPages: 1 << 10, LogPages: 1 << 8, CkptPages: 1 << 8}
}

// recoverCopy recovers a copy of o's device as a crash at this instant
// leaves it: the abandoned engine's buffers and pool are gone.
func recoverCopy(t *testing.T, o options) (*DB, *RecoveryReport) {
	t.Helper()
	pages := o.Dev.NumPages()
	img := make([]byte, int(pages)*ps)
	if err := o.Dev.ReadPages(nil, 0, int(pages), img); err != nil {
		t.Fatal(err)
	}
	o.Dev = storage.NewMemDeviceFrom(ps, pages, nil, img)
	db, rep, err := recoverDB(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.CloseCommitter() })
	return db, rep
}

// wantContent fails unless key holds want in relation "r" (nil: absent).
func wantContent(t *testing.T, db *DB, key string, want []byte) {
	t.Helper()
	tx := db.Begin(nil)
	defer tx.Commit()
	got, err := tx.ReadBlobBytes("r", []byte(key))
	switch {
	case want == nil && errors.Is(err, ErrNotFound):
	case want == nil:
		t.Errorf("%q: got %d bytes, %v; want absent", key, len(got), err)
	case err != nil:
		t.Errorf("%q: %v; want %d bytes", key, err, len(want))
	case !bytes.Equal(got, want):
		t.Errorf("%q: got %d bytes, want %d (content differs)", key, len(got), len(want))
	}
}

func testContent(seed int64, n int) []byte {
	c := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(c)
	return c
}

// stagedOverwrite commits k = v1, then stages k = v2 in a second
// transaction it leaves open, and returns that transaction.
func stagedOverwrite(t *testing.T, db *DB) (tx *Txn, v1, v2 []byte) {
	t.Helper()
	db.CreateRelation("r")
	v1, v2 = testContent(1, 30<<10), testContent(2, 40<<10)
	putCommitted(t, db, "r", []byte("k"), v1)
	tx = db.Begin(nil)
	if err := putBlob(tx, "r", []byte("k"), v2); err != nil {
		t.Fatal(err)
	}
	return tx, v1, v2
}

// TestStagedOverwriteSurvivesCheckpoint: a checkpoint taken while an
// overwrite is staged but not committed (what a ring-full checkpoint inside
// another transaction's commit flush does) must not cost the acknowledged
// value. The image records the staged key as in flight with its landed
// value, and recovery reverts it.
func TestStagedOverwriteSurvivesCheckpoint(t *testing.T) {
	o := landedOpts()
	db := openTest(t, o)
	_, v1, _ := stagedOverwrite(t, db)
	if err := db.WAL().Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	db2, rep := recoverCopy(t, o)
	wantContent(t, db2, "k", v1)
	if rep.DroppedTuples != 0 || rep.RevertedKeys != 1 {
		t.Errorf("DroppedTuples=%d RevertedKeys=%d, want 0 and 1", rep.DroppedTuples, rep.RevertedKeys)
	}
}

// TestStagedOverwriteAbortedAfterCheckpoint: the staging transaction
// aborts after the checkpoint; recovery holds v1.
func TestStagedOverwriteAbortedAfterCheckpoint(t *testing.T) {
	o := landedOpts()
	db := openTest(t, o)
	tx, v1, _ := stagedOverwrite(t, db)
	if err := db.WAL().Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	wantContent(t, db, "k", v1)
	db2, _ := recoverCopy(t, o)
	wantContent(t, db2, "k", v1)
}

// TestStagedOverwriteCommittedInCheckpointFlush: the checkpoint runs inside
// the staging transaction's own commit flush, after its commit record's
// block is written, and truncates that record away. The image's written
// flag is then the only proof of the commit, and the acknowledged v2 must
// survive.
func TestStagedOverwriteCommittedInCheckpointFlush(t *testing.T) {
	o := landedOpts()
	db := openTest(t, o)
	tx, _, v2 := stagedOverwrite(t, db)
	before := db.WAL().Checkpoints()
	db.WAL().CheckpointThreshold = 1 // every log flush checkpoints
	mustCommit(t, tx)
	if db.WAL().Checkpoints() == before {
		t.Fatal("no checkpoint ran inside the commit flush")
	}
	db2, rep := recoverCopy(t, o)
	wantContent(t, db2, "k", v2)
	if rep.RevertedKeys != 0 || rep.FailedBlobs != 0 {
		t.Errorf("RevertedKeys=%d FailedBlobs=%d, want 0 and 0", rep.RevertedKeys, rep.FailedBlobs)
	}
}

// TestStagedOverwriteCommittedAfterCheckpointLands: the staging
// transaction commits after the checkpoint and lands; its commit record
// above the image's LSN proves it, and recovery holds v2.
func TestStagedOverwriteCommittedAfterCheckpointLands(t *testing.T) {
	o := landedOpts()
	db := openTest(t, o)
	tx, _, v2 := stagedOverwrite(t, db)
	if err := db.WAL().Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	db2, rep := recoverCopy(t, o)
	wantContent(t, db2, "k", v2)
	if rep.RevertedKeys != 0 || rep.FailedBlobs != 0 {
		t.Errorf("RevertedKeys=%d FailedBlobs=%d, want 0 and 0", rep.RevertedKeys, rep.FailedBlobs)
	}
}

// TestInFlightDeleteAndCreateRevert: a staged delete of a landed key and a
// staged create of a new key, both caught by a checkpoint and never
// committed, revert to the landed value and to absence.
func TestInFlightDeleteAndCreateRevert(t *testing.T) {
	o := landedOpts()
	db := openTest(t, o)
	db.CreateRelation("r")
	v1 := testContent(3, 20<<10)
	putCommitted(t, db, "r", []byte("k"), v1)
	tx := db.Begin(nil)
	if err := tx.DeleteBlob("r", []byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := putBlob(tx, "r", []byte("n"), testContent(4, 10<<10)); err != nil {
		t.Fatal(err)
	}
	if err := db.WAL().Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	db2, rep := recoverCopy(t, o)
	wantContent(t, db2, "k", v1)
	wantContent(t, db2, "n", nil)
	if rep.RevertedKeys != 2 {
		t.Errorf("RevertedKeys=%d, want 2", rep.RevertedKeys)
	}
	if err := db2.CheckLedger(); err != nil {
		t.Error(err)
	}
}

// TestWatermarkBoundsRecoveryHashing: after N single-transaction batches
// and a drain, recovery hashes at most the blobs of the last two batches —
// the ones no logged watermark covers — and trusts the rest. A transaction
// whose extents never land still fails, as without the watermark.
func TestWatermarkBoundsRecoveryHashing(t *testing.T) {
	const n = 16
	o := landedOpts()
	db := openTest(t, o)
	db.CreateRelation("r")
	want := map[string][]byte{}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%02d", i)
		want[key] = testContent(int64(10+i), 8<<10+i*512)
		putCommitted(t, db, "r", []byte(key), want[key])
	}
	if err := db.DrainCommits(); err != nil {
		t.Fatal(err)
	}
	db2, rep := recoverCopy(t, o)
	t.Logf("recovery hashed %d states (%d bytes) and trusted %d; watermark LSN %d", rep.HashedBlobs, rep.HashedBytes, rep.TrustedBlobs, rep.LandedLSN)
	if rep.HashedBlobs > 2 || rep.TrustedBlobs < n-2 || rep.LandedLSN == 0 {
		t.Errorf("hashed %d, trusted %d, watermark %d; want at most 2 hashed of %d", rep.HashedBlobs, rep.TrustedBlobs, rep.LandedLSN, n)
	}
	for key, c := range want {
		wantContent(t, db2, key, c)
	}
	if err := db2.VerifyContent(); err != nil {
		t.Error(err)
	}

	// Tear the last flight: the commit record is durable, the extents
	// never land.
	tx := db.Begin(nil)
	if err := putBlob(tx, "r", []byte("k00"), testContent(99, 12<<10)); err != nil {
		t.Fatal(err)
	}
	if err := CrashBeforeExtentFlush(tx); err != nil {
		t.Fatal(err)
	}
	db3, rep := recoverCopy(t, o)
	if rep.FailedBlobs != 1 {
		t.Errorf("FailedBlobs=%d, want 1", rep.FailedBlobs)
	}
	wantContent(t, db3, "k00", want["k00"])
}

// TestWatermarkStopsAfterCommitFailure: once a commit fails, no later
// flight advances the watermark, so the failed commit's LSN is never
// covered.
func TestWatermarkStopsAfterCommitFailure(t *testing.T) {
	o := landedOpts()
	db := openTest(t, o)
	db.CreateRelation("r")
	for i := 0; i < 3; i++ {
		putCommitted(t, db, "r", []byte(fmt.Sprintf("a%d", i)), testContent(int64(i), 4<<10))
	}
	before := db.commit.landedW.Load()
	tx := db.Begin(nil)
	if err := putBlob(tx, "r", []byte("torn"), testContent(7, 4<<10)); err != nil {
		t.Fatal(err)
	}
	if err := CrashBeforeExtentFlush(tx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		putCommitted(t, db, "r", []byte(fmt.Sprintf("b%d", i)), testContent(int64(20+i), 4<<10))
	}
	if got := db.commit.landedW.Load(); got != before {
		t.Errorf("watermark moved from %d to %d after a commit bypassed the committer", before, got)
	}
}

// TestVerifyContentNamesCorruptKey: startup trusts a confirmed image's
// landed tuples, so out-of-band corruption of one is found by
// VerifyContent, which names the key.
func TestVerifyContentNamesCorruptKey(t *testing.T) {
	o := landedOpts()
	db := openTest(t, o)
	db.CreateRelation("r")
	for i := 0; i < 4; i++ {
		putCommitted(t, db, "r", []byte(fmt.Sprintf("c%d", i)), testContent(int64(30+i), 16<<10))
	}
	if err := db.WAL().Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	garbage := testContent(5, ps)
	if err := o.Dev.WritePages(nil, stateOf(t, db, "c3").Extents[0], 1, garbage); err != nil {
		t.Fatal(err)
	}
	db2, rep := recoverCopy(t, o)
	if rep.TrustedBlobs != 4 || rep.HashedBlobs != 0 || rep.DroppedTuples != 0 {
		t.Errorf("trusted %d, hashed %d, dropped %d; want 4, 0, 0", rep.TrustedBlobs, rep.HashedBlobs, rep.DroppedTuples)
	}
	err := db2.VerifyContent()
	if !errors.Is(err, ErrContentMismatch) || !strings.Contains(err.Error(), `"c3"`) {
		t.Fatalf("VerifyContent = %v, want a content mismatch naming c3", err)
	}
}

// ckptSlotOf returns the device page of the slot holding the image with
// the higher checkpoint LSN.
func ckptSlotOf(t *testing.T, db *DB) storage.PID {
	t.Helper()
	start, _ := db.ckptSlotGeom((db.ckptNext + ckptSlots - 1) % ckptSlots)
	return start
}

// TestUnconfirmedImageIsHashedInFull: an image whose confirmation byte
// never reached the device may have reached it without its sync, so
// recovery trusts none of its tuples.
func TestUnconfirmedImageIsHashedInFull(t *testing.T) {
	o := landedOpts()
	db := openTest(t, o)
	db.CreateRelation("r")
	for i := 0; i < 3; i++ {
		putCommitted(t, db, "r", []byte(fmt.Sprintf("c%d", i)), testContent(int64(40+i), 8<<10))
	}
	if err := db.WAL().Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	head := make([]byte, ps)
	pid := ckptSlotOf(t, db)
	if err := o.Dev.ReadPages(nil, pid, 1, head); err != nil {
		t.Fatal(err)
	}
	if head[ckptConfirmed] != 1 {
		t.Fatal("checkpoint left its image unconfirmed")
	}
	head[ckptConfirmed] = 0
	if err := o.Dev.WritePages(nil, pid, 1, head); err != nil {
		t.Fatal(err)
	}
	_, rep := recoverCopy(t, o)
	if rep.TrustedBlobs != 0 || rep.HashedBlobs != 3 {
		t.Errorf("trusted %d, hashed %d; want 0 and 3", rep.TrustedBlobs, rep.HashedBlobs)
	}
}

// TestUnknownCheckpointVersionFails: a slot holding a BLOBCKP image of a
// version this engine does not read fails recovery with a typed error
// instead of reading as "no checkpoint" and dropping the redo base.
func TestUnknownCheckpointVersionFails(t *testing.T) {
	o := landedOpts()
	db := openTest(t, o)
	db.CreateRelation("r")
	putCommitted(t, db, "r", []byte("k"), testContent(6, 4<<10))
	if err := db.WAL().Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	head := make([]byte, ps)
	pid := ckptSlotOf(t, db)
	if err := o.Dev.ReadPages(nil, pid, 1, head); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(head, ckptMagicPrefix|'9')
	if err := o.Dev.WritePages(nil, pid, 1, head); err != nil {
		t.Fatal(err)
	}
	if _, _, err := recoverDB(o, nil); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("recover = %v, want ErrCheckpointVersion", err)
	}
}

// TestCheckpointV3GoldenImageRecovers recovers a device image written by
// the engine before checkpoint v4 (testdata/ckpt-v3.img.gz: four blobs,
// an inline value, a BLOBCKP3 checkpoint, then two more blobs in the log).
// A v3 image carries no in-flight section, so every tuple is hashed.
func TestCheckpointV3GoldenImageRecovers(t *testing.T) {
	f, err := os.Open("testdata/ckpt-v3.img.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	img, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 1024
	if len(img) != pages*ps {
		t.Fatalf("golden image holds %d bytes, want %d", len(img), pages*ps)
	}
	if binary.LittleEndian.Uint64(img[128*ps:]) != ckptMagicV3 && binary.LittleEndian.Uint64(img[160*ps:]) != ckptMagicV3 {
		t.Fatal("golden image holds no BLOBCKP3 checkpoint")
	}
	o := options{Dev: storage.NewMemDeviceFrom(ps, pages, nil, img), PoolPages: 256, LogPages: 128, CkptPages: 64}
	db, rep, err := recoverDB(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseCommitter()
	if !rep.FromCheckpoint || rep.HashedBlobs != 6 || rep.TrustedBlobs != 0 || rep.FailedBlobs != 0 {
		t.Errorf("report %+v: want a checkpoint base and all 6 blobs hashed", *rep)
	}
	// The generator's content sequence.
	rng := rand.New(rand.NewSource(3))
	content := func() []byte {
		c := make([]byte, 200+rng.Intn(3000))
		rng.Read(c)
		return c
	}
	for _, key := range []string{"a0", "a1", "a2", "a3", "b0", "b1"} {
		wantContent(t, db, key, content())
	}
	tx := db.Begin(nil)
	defer tx.Commit()
	if v, err := tx.Get("r", []byte("inline")); err != nil || string(v) != "v3 inline value" {
		t.Errorf("inline value = %q, %v", v, err)
	}
}

// TestCheckpointCrashNeverTrustsUnsyncedExtents: on a write cache that
// reorders unsynced writes, a crash inside a checkpoint can leave the new
// image whole while the extents of a flight that landed after the last
// sync are lost. Such an image is unconfirmed, so recovery hashes its
// tuples: at every crash point of the checkpoint, under several tear
// seeds, the recovered content validates.
func TestCheckpointCrashNeverTrustsUnsyncedExtents(t *testing.T) {
	const pages = 1 << 12
	run := func(seed int64, crashOp int) (fd *storage.FaultDevice, lo, hi int) {
		fd, err := storage.NewFaultDevice(storage.NewMemDevice(ps, pages, nil),
			storage.FaultConfig{Seed: seed, CrashOp: crashOp, Mode: storage.TearScramble})
		if err != nil {
			t.Fatal(err)
		}
		db := openTest(t, options{Dev: fd, PoolPages: 1 << 10, LogPages: 1 << 8, CkptPages: 1 << 8})
		defer db.CloseCommitter()
		db.CreateRelation("r")
		for i := 0; i < 3; i++ {
			// Each commit syncs its log record, then its extents land
			// unsynced; only the next commit's sync covers them.
			putCommitted(t, db, "r", []byte(fmt.Sprintf("k%d", i)), testContent(int64(i), 24<<10))
		}
		lo = fd.Ops()
		db.WAL().Checkpoint(nil) // fails when the crash fires inside it
		return fd, lo, fd.Ops()
	}
	_, lo, hi := run(0, -1)
	for seed := int64(1); seed <= 8; seed++ {
		for op := lo; op < hi; op++ {
			fd, _, _ := run(seed, op)
			fd.CrashNow()
			db, rep, err := recoverDB(options{Dev: fd.TakeCrashImage(nil), PoolPages: 1 << 10, LogPages: 1 << 8, CkptPages: 1 << 8}, nil)
			if err != nil {
				t.Fatalf("seed %d crash op %d: %v", seed, op, err)
			}
			if err := db.VerifyContent(); err != nil {
				t.Errorf("seed %d crash op %d (trusted %d, hashed %d): %v", seed, op, rep.TrustedBlobs, rep.HashedBlobs, err)
			}
			db.CloseCommitter()
		}
	}
}
