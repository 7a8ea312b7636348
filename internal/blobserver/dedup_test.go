package blobserver

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"blobdb/internal/core"
	"blobdb/internal/storage"
)

// drainEngine settles an engine's commit pipeline and epoch-deferred
// reclaimer so allocator and ledger accounting are exact.
func drainEngine(t *testing.T, db *core.DB) {
	t.Helper()
	if err := db.DrainCommits(); err != nil {
		t.Fatal(err)
	}
	for db.ReclaimPending() > 0 {
		if db.ReclaimTick() == 0 {
			break
		}
	}
}

// TestDedupSharedDeleteKeepsSurvivor is the end-to-end contract of the
// refcount ledger, driven entirely through the HTTP API: two identical
// 8 MiB PUTs share one extent sequence; deleting one sharer frees zero
// shared extents and leaves the survivor byte-identical (ETag-verified
// before and after); deleting the last sharer actually frees the pages.
func TestDedupSharedDeleteKeepsSurvivor(t *testing.T) {
	db, _, _, c := newTestServer(t, Config{})
	ctx := context.Background()
	if err := c.CreateRelation(ctx, "shared"); err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 8<<20)
	rand.New(rand.NewSource(9)).Read(content)

	etagA, err := c.Put(ctx, "shared", "a", content)
	if err != nil {
		t.Fatal(err)
	}
	drainEngine(t, db)
	liveAfterFirst := db.Allocator().Stats().LivePages

	etagB, err := c.Put(ctx, "shared", "b", content)
	if err != nil {
		t.Fatal(err)
	}
	drainEngine(t, db)
	if etagA != etagB {
		t.Fatalf("identical content, different etags: %q vs %q", etagA, etagB)
	}
	if hits := db.DedupStats().Hits; hits == 0 {
		t.Fatal("second identical PUT did not hit the content index")
	}
	// One extent sequence for both keys: the duplicate PUT's private
	// extents were discarded at adopt time, so the allocator holds the
	// same number of live pages as after the first PUT.
	if live := db.Allocator().Stats().LivePages; live != liveAfterFirst {
		t.Fatalf("duplicate PUT changed live pages: %d -> %d", liveAfterFirst, live)
	}
	tx := db.Begin(nil)
	stA, errA := tx.BlobState("shared", []byte("a"))
	stB, errB := tx.BlobState("shared", []byte("b"))
	tx.Commit()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if len(stA.Extents) == 0 || fmt.Sprint(stA.Extents) != fmt.Sprint(stB.Extents) {
		t.Fatalf("sharers hold different extent sequences: %v vs %v", stA.Extents, stB.Extents)
	}

	// Delete one sharer: the ledger decrement must free nothing.
	if err := c.Delete(ctx, "shared", "a"); err != nil {
		t.Fatal(err)
	}
	drainEngine(t, db)
	if live := db.Allocator().Stats().LivePages; live != liveAfterFirst {
		t.Fatalf("deleting a sharer freed shared extents: live pages %d -> %d", liveAfterFirst, live)
	}
	got, gotTag, err := c.Get(ctx, "shared", "b")
	if err != nil {
		t.Fatal(err)
	}
	if gotTag != etagB {
		t.Fatalf("survivor etag changed: %q -> %q", etagB, gotTag)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("survivor content corrupted after sharer delete")
	}
	if err := db.CheckLedger(); err != nil {
		t.Fatal(err)
	}

	// Delete the last owner: now the sequence really frees.
	if err := c.Delete(ctx, "shared", "b"); err != nil {
		t.Fatal(err)
	}
	drainEngine(t, db)
	if live := db.Allocator().Stats().LivePages; live >= liveAfterFirst {
		t.Fatalf("deleting the last owner freed nothing: live pages still %d", live)
	}
	if err := db.CheckLedger(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedDedupRebalanceCarriesRefcounts proves resharding carries
// refcounts: duplicate-content keys are spread over a cluster, a new
// shard joins and Rebalance moves its slice, and afterwards every
// shard's ledger is consistent and deleting one co-located sharer
// leaves the other byte-identical on whichever shard now owns them.
func TestShardedDedupRebalanceCarriesRefcounts(t *testing.T) {
	cl, _, _, c := newShardedServer(t, 3, Config{})
	ctx := context.Background()
	if err := c.CreateRelation(ctx, "r"); err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 256<<10)
	rand.New(rand.NewSource(41)).Read(content)
	const n = 24
	var etag string
	for i := 0; i < n; i++ {
		tag, err := c.Put(ctx, "r", fmt.Sprintf("dup-%03d", i), content)
		if err != nil {
			t.Fatal(err)
		}
		etag = tag
	}

	id, err := cl.AddShard(newShardEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Rebalance(ctx, id); err != nil {
		t.Fatal(err)
	}
	for _, s := range cl.Shards() {
		drainEngine(t, s.DB())
		if err := s.DB().CheckLedger(); err != nil {
			t.Fatalf("shard %d ledger after rebalance: %v", s.ID(), err)
		}
	}

	// All copies survived the move.
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("dup-%03d", i)
		got, tag, err := c.Get(ctx, "r", key)
		if err != nil || tag != etag || !bytes.Equal(got, content) {
			t.Fatalf("key %q after rebalance: err=%v etag=%q match=%v", key, err, tag, bytes.Equal(got, content))
		}
	}

	// Pigeonhole: with 24 identical-content keys on 4 shards, some shard
	// owns at least two sharers. Delete one of them and verify the
	// co-located survivor — the moved refcount is what protects it.
	byShard := map[int][]string{}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("dup-%03d", i)
		sh := cl.Route("r", []byte(key))
		byShard[sh.ID()] = append(byShard[sh.ID()], key)
	}
	var victim, survivor string
	var owner int
	for sid, keys := range byShard {
		if len(keys) >= 2 {
			owner, victim, survivor = sid, keys[0], keys[1]
			break
		}
	}
	if victim == "" {
		t.Fatal("no shard owns two sharers; routing is broken")
	}
	if err := c.Delete(ctx, "r", victim); err != nil {
		t.Fatal(err)
	}
	drainEngine(t, cl.Shard(owner).DB())
	got, tag, err := c.Get(ctx, "r", survivor)
	if err != nil || tag != etag || !bytes.Equal(got, content) {
		t.Fatalf("survivor %q on shard %d: err=%v etag=%q match=%v", survivor, owner, err, tag, bytes.Equal(got, content))
	}
	if err := cl.Shard(owner).DB().CheckLedger(); err != nil {
		t.Fatalf("shard %d ledger after sharer delete: %v", owner, err)
	}
}

// newShardEngine builds one more in-memory engine matching the sharded
// test fixture's geometry, for AddShard.
func newShardEngine(t *testing.T) *core.DB {
	t.Helper()
	db, err := core.New(storage.NewMemDevice(storage.DefaultPageSize, 1<<14, nil),
		core.WithPoolPages(1<<12),
		core.WithLogPages(1<<11),
		core.WithCkptPages(1<<12),
	)
	if err != nil {
		t.Fatal(err)
	}
	return db
}
