package maint

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"blobdb/internal/core"
	"blobdb/internal/storage"
)

const ps = storage.DefaultPageSize

func newTestDB(t *testing.T) *core.DB {
	t.Helper()
	dev := storage.NewMemDevice(ps, 1<<15, nil)
	db, err := core.New(dev,
		core.WithPoolPages(1<<12),
		core.WithLogPages(1<<11),
		core.WithCkptPages(1<<11))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func put(t *testing.T, db *core.DB, rel, key string, content []byte) {
	t.Helper()
	tx := db.Begin(nil)
	w, err := tx.CreateBlob(context.Background(), rel, []byte(key))
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

func del(t *testing.T, db *core.DB, rel, key string) {
	t.Helper()
	tx := db.Begin(nil)
	if err := tx.DeleteBlob(rel, []byte(key)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func read(t *testing.T, db *core.DB, rel, key string) []byte {
	t.Helper()
	tx := db.Begin(nil)
	got, err := tx.ReadBlobBytes(rel, []byte(key))
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	return got
}

// fragment interleaves puts and deletes so surviving blobs strand at high
// addresses with free holes below them. Returns the survivors' contents.
func fragment(t *testing.T, db *core.DB) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	db.CreateRelation("f")
	survivors := map[string][]byte{}
	keys := make([]string, 0, 40)
	for i := 0; i < 40; i++ {
		key := string(rune('a'+i%26)) + string(rune('0'+i/26))
		content := make([]byte, 100<<10+rng.Intn(200<<10))
		rng.Read(content)
		put(t, db, "f", key, content)
		keys = append(keys, key)
		survivors[key] = content
	}
	// Delete every other blob AFTER all have been placed: the freed
	// extents strand as holes below the surviving high-address ones.
	for i, key := range keys {
		if i%2 == 0 {
			del(t, db, "f", key)
			delete(survivors, key)
		}
	}
	return survivors
}

// TestDefragReducesScore is the defragmenter's core promise: on a
// fragmented heap, RunOnce strictly decreases the fragmentation score and
// every surviving blob stays byte-identical.
func TestDefragReducesScore(t *testing.T) {
	db := newTestDB(t)
	survivors := fragment(t, db)

	before := db.Allocator().FragStats()
	if before.Score <= 0 {
		t.Fatalf("workload produced no fragmentation: %+v", before)
	}
	d := New(db, Config{MinScore: 0.01, MaxMoves: 1000})
	rep, err := d.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moved == 0 {
		t.Fatalf("no extents moved: %+v", rep)
	}
	if rep.After.Score >= rep.Before.Score {
		t.Errorf("score did not decrease: %.4f -> %.4f", rep.Before.Score, rep.After.Score)
	}
	if rep.ReclaimedPages == 0 {
		t.Errorf("no pages reclaimed from the high-water mark: %+v", rep)
	}
	for key, want := range survivors {
		if !bytes.Equal(read(t, db, "f", key), want) {
			t.Fatalf("blob %q corrupted by defragmentation", key)
		}
	}
	if err := db.CheckLedger(); err != nil {
		t.Errorf("CheckLedger after defrag: %v", err)
	}
}

// TestDefragConvergesIdempotent runs rounds until the score stops moving
// and checks the gate keeps later rounds cheap (no moves planned).
func TestDefragConvergesIdempotent(t *testing.T) {
	db := newTestDB(t)
	fragment(t, db)
	d := New(db, Config{MinScore: 0.01, MaxMoves: 1000})
	var last float64 = 2
	for i := 0; i < 8; i++ {
		rep, err := d.RunOnce(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.After.Score > last {
			t.Fatalf("round %d increased score %.4f -> %.4f", i, last, rep.After.Score)
		}
		last = rep.After.Score
		if rep.Moved == 0 {
			return // converged
		}
	}
	// Convergence is not guaranteed to perfection (holes smaller than any
	// extent can persist), but rounds must stop moving things eventually.
	rep, err := d.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moved != 0 {
		t.Errorf("still moving after 8 rounds: %+v", rep)
	}
}

// TestDefragSkipsSharedSequences deduplicated blobs are immovable: the
// planner must exclude them and a stale target must skip, never corrupt.
func TestDefragSkipsSharedSequences(t *testing.T) {
	db := newTestDB(t)
	db.CreateRelation("f")
	content := make([]byte, 500<<10)
	rand.New(rand.NewSource(5)).Read(content)
	put(t, db, "f", "x", content)
	put(t, db, "f", "y", content) // dedups against x

	d := New(db, Config{MinScore: 0.01, MaxMoves: 100})
	if _, err := d.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(read(t, db, "f", "x"), content) || !bytes.Equal(read(t, db, "f", "y"), content) {
		t.Fatal("shared blob corrupted by defrag")
	}
	if err := db.CheckLedger(); err != nil {
		t.Errorf("CheckLedger: %v", err)
	}

	// Direct stale/shared target: RelocateExtent must report a skip.
	tx := db.Begin(nil)
	targets := db.PlanRelocations(1000)
	for _, tgt := range targets {
		if tgt.Rel == "f" && (string(tgt.Key) == "x" || string(tgt.Key) == "y") {
			t.Fatalf("planner proposed a shared sequence: %+v", tgt)
		}
	}
	moved, err := tx.RelocateExtent(core.RelocTarget{Rel: "f", Key: []byte("x"), Tier: 0, PID: 1 << 30})
	if err != nil || moved {
		t.Fatalf("stale relocate = %v, %v; want skip", moved, err)
	}
	tx.Abort()
}

// TestDefragSurvivesRecovery crashes right after a defrag round; recovery
// must produce the relocated layout with every blob intact.
func TestDefragSurvivesRecovery(t *testing.T) {
	dev := storage.NewMemDevice(ps, 1<<15, nil)
	opts := []core.Option{
		core.WithPoolPages(1 << 12),
		core.WithLogPages(1 << 11),
		core.WithCkptPages(1 << 11),
	}
	db, err := core.New(dev, opts...)
	if err != nil {
		t.Fatal(err)
	}
	survivors := fragment(t, db)
	d := New(db, Config{MinScore: 0.01, MaxMoves: 1000})
	rep, err := d.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moved == 0 {
		t.Fatal("no moves; test is vacuous")
	}
	// Crash: abandon db, recover from the device.
	db2, _, err := core.RecoverDevice(dev, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range survivors {
		if !bytes.Equal(read(t, db2, "f", key), want) {
			t.Fatalf("blob %q lost after post-defrag crash", key)
		}
	}
	if err := db2.CheckLedger(); err != nil {
		t.Errorf("CheckLedger after recovery: %v", err)
	}
}

// TestDefragRoundsUnderReaders: a duplicate-heavy ingest shares pages
// (dedup hits, fewer live pages than the logical bytes need); after a
// delete stride fragments the heap, every defragmentation round that
// moves or reclaims something strictly lowers the score. Concurrent
// readers see byte-identical blobs throughout the first rounds; they may
// hold the moved extents' frees back, so the rounds after they stop are
// the ones that pull the high-water mark down.
func TestDefragRoundsUnderReaders(t *testing.T) {
	db := newTestDB(t)
	db.CreateRelation("f")
	rng := rand.New(rand.NewSource(9))
	shared := make([][]byte, 6)
	for i := range shared {
		shared[i] = make([]byte, 96<<10)
		rng.Read(shared[i])
	}
	const blobs = 48
	key := func(i int) string { return fmt.Sprintf("b%03d", i) }
	contents := map[string][]byte{}
	var logical uint64
	for i := 0; i < blobs; i++ {
		c := shared[(i/2)%len(shared)]
		if i%2 == 1 {
			c = make([]byte, 96<<10)
			rng.Read(c)
		}
		put(t, db, "f", key(i), c)
		contents[key(i)] = c
		logical += uint64(len(c))
	}
	if hits := db.DedupStats().Hits; hits == 0 {
		t.Fatal("duplicate-heavy ingest produced no dedup hit")
	}
	if live, noDup := db.Allocator().Stats().LivePages, logical/ps; live >= noDup {
		t.Errorf("dedup saved nothing: %d live pages, %d without sharing", live, noDup)
	}
	// Every third blob goes: shared and unique ones alike.
	for i := 0; i < blobs; i += 3 {
		del(t, db, "f", key(i))
		delete(contents, key(i))
	}
	db.ReclaimTick()
	pre := db.Allocator().FragStats().Score

	survivors := make([]string, 0, len(contents))
	for k := range contents {
		survivors = append(survivors, k)
	}
	sort.Strings(survivors)
	var (
		wg   sync.WaitGroup
		stop atomic.Bool
		errs = make(chan error, 2)
	)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(int64(100 + r)))
			for !stop.Load() {
				k := survivors[rr.Intn(len(survivors))]
				tx := db.Begin(nil)
				got, err := tx.ReadBlobBytes("f", []byte(k))
				tx.Commit()
				if err == nil && !bytes.Equal(got, contents[k]) {
					err = fmt.Errorf("blob %q changed during defragmentation", k)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}

	d := New(db, Config{MinScore: 0.01, MaxMoves: 24})
	moved := 0
	// rounds runs defragmentation rounds until one neither moves nor
	// reclaims anything.
	rounds := func(phase string) {
		for round := 0; round < 12; round++ {
			rep, err := d.RunOnce(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Moved == 0 && rep.ReclaimedPages == 0 {
				return
			}
			if rep.After.Score >= rep.Before.Score {
				t.Errorf("%s round %d: score %.4f -> %.4f, want strictly lower", phase, round, rep.Before.Score, rep.After.Score)
			}
			moved += rep.Moved
		}
	}
	rounds("under readers")
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	rounds("after readers")
	if moved == 0 {
		t.Fatal("no extent moved; the workload left nothing movable")
	}
	if post := db.Allocator().FragStats().Score; post >= pre {
		t.Errorf("defragmentation did not lower the score: %.4f -> %.4f", pre, post)
	}
	if err := db.CheckLedger(); err != nil {
		t.Errorf("CheckLedger after defrag: %v", err)
	}
}
