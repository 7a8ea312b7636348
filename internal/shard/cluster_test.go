package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"blobdb/internal/core"
	"blobdb/internal/storage"
)

// newEngine opens one independent in-memory engine with the async
// group-commit pipeline on — the configuration every shard of a real
// deployment runs.
func newEngine(t *testing.T) *core.DB {
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

// newCluster builds an n-shard cluster over fresh engines and registers
// cleanup.
func newCluster(t *testing.T, n int, opts Options) *Cluster {
	t.Helper()
	dbs := make([]*core.DB, n)
	for i := range dbs {
		dbs[i] = newEngine(t)
	}
	c := New(dbs, opts)
	t.Cleanup(func() { c.Close() })
	return c
}

// clusterPut writes one blob through the router, exactly as a served PUT
// would: acquire the owning shard, stream, commit-wait, release.
func clusterPut(t *testing.T, c *Cluster, rel, key string, val []byte) {
	t.Helper()
	if err := clusterPutErr(c, rel, key, val); err != nil {
		t.Fatalf("put %q/%q: %v", rel, key, err)
	}
}

func clusterPutErr(c *Cluster, rel, key string, val []byte) error {
	ctx := context.Background()
	sh, release, err := c.Acquire(ctx, rel, []byte(key))
	if err != nil {
		return err
	}
	defer release()
	tx := sh.DB().BeginCtx(ctx, nil)
	w, err := tx.CreateBlob(ctx, rel, []byte(key))
	if err != nil {
		tx.Abort()
		return err
	}
	if _, err := w.Write(val); err != nil {
		w.Abort()
		tx.Abort()
		return err
	}
	if err := w.Close(); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// clusterGet reads one blob through the router.
func clusterGet(c *Cluster, rel, key string) ([]byte, error) {
	ctx := context.Background()
	sh, release, err := c.Acquire(ctx, rel, []byte(key))
	if err != nil {
		return nil, err
	}
	defer release()
	tx := sh.DB().BeginCtx(ctx, nil)
	defer tx.Commit()
	return tx.ReadBlobBytes(rel, []byte(key))
}

func clusterDelete(c *Cluster, rel, key string) error {
	ctx := context.Background()
	sh, release, err := c.Acquire(ctx, rel, []byte(key))
	if err != nil {
		return err
	}
	defer release()
	tx := sh.DB().BeginCtx(ctx, nil)
	if err := tx.DeleteBlob(rel, []byte(key)); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// TestRoutingSpreadsAndServes: every key written through the router is
// readable back through it, placement is deterministic, and at 4 shards
// every shard owns part of the keyspace.
func TestRoutingSpreadsAndServes(t *testing.T) {
	c := newCluster(t, 4, Options{})
	if err := c.CreateRelation("r"); err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		clusterPut(t, c, "r", fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%03d", i)))
	}
	for i := 0; i < n; i++ {
		got, err := clusterGet(c, "r", fmt.Sprintf("k%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("v%03d", i); string(got) != want {
			t.Fatalf("k%03d: got %q want %q", i, got, want)
		}
	}
	for _, s := range c.Shards() {
		if s.Routed() == 0 {
			t.Errorf("shard %d routed no operations across %d keys", s.ID(), n)
		}
	}
}

// TestShardDownIsolation: fencing one shard 503s exactly its keyspace
// slice — every other key keeps serving — and Revive restores the slice
// without moving keys.
func TestShardDownIsolation(t *testing.T) {
	c := newCluster(t, 4, Options{})
	if err := c.CreateRelation("r"); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 100)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
		clusterPut(t, c, "r", keys[i], []byte("v"))
	}
	const down = 1
	c.MarkDown(down)
	served, fenced := 0, 0
	for _, k := range keys {
		want := c.Ring().Shard("r", []byte(k))
		_, err := clusterGet(c, "r", k)
		if want == down {
			if !errors.Is(err, ErrShardDown) {
				t.Fatalf("key %q on down shard: err = %v, want ErrShardDown", k, err)
			}
			fenced++
		} else {
			if err != nil {
				t.Fatalf("key %q on healthy shard %d: %v", k, want, err)
			}
			served++
		}
	}
	if fenced == 0 || served == 0 {
		t.Fatalf("degenerate split: %d fenced, %d served", fenced, served)
	}
	c.Revive(down, c.Shard(down).DB())
	for _, k := range keys {
		if _, err := clusterGet(c, "r", k); err != nil {
			t.Fatalf("after revive, key %q: %v", k, err)
		}
	}
}

// TestPerShardAdmissionSheds: with a 1-slot gate and a short queue wait,
// a second concurrent request for the same shard sheds with
// ErrShardBusy while other shards stay reachable.
func TestPerShardAdmissionSheds(t *testing.T) {
	c := newCluster(t, 2, Options{MaxInFlightPerShard: 1, MaxQueueWait: 5 * time.Millisecond})
	if err := c.CreateRelation("r"); err != nil {
		t.Fatal(err)
	}
	// Find two keys on different shards.
	var k0, k1 string
	for i := 0; k1 == "" || k0 == ""; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.Ring().Shard("r", []byte(k)) == 0 && k0 == "" {
			k0 = k
		} else if c.Ring().Shard("r", []byte(k)) == 1 && k1 == "" {
			k1 = k
		}
	}
	ctx := context.Background()
	_, release, err := c.Acquire(ctx, "r", []byte(k0))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Acquire(ctx, "r", []byte(k0)); !errors.Is(err, ErrShardBusy) {
		t.Fatalf("second acquire on saturated shard: %v, want ErrShardBusy", err)
	}
	if _, rel1, err := c.Acquire(ctx, "r", []byte(k1)); err != nil {
		t.Fatalf("other shard should admit: %v", err)
	} else {
		rel1()
	}
	release()
	if sh, rel0, err := c.Acquire(ctx, "r", []byte(k0)); err != nil {
		t.Fatalf("after release: %v", err)
	} else {
		if sh.Shed() == 0 {
			t.Error("shed counter not incremented")
		}
		rel0()
	}
}

// TestRelationFanOut: creates land on every shard (so any key can route
// anywhere), duplicates map to ErrRelationExists, and Relations is the
// sorted union.
func TestRelationFanOut(t *testing.T) {
	c := newCluster(t, 3, Options{})
	if err := c.CreateRelation("b"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateRelation("a"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateRelation("a"); !errors.Is(err, core.ErrRelationExists) {
		t.Fatalf("duplicate create: %v, want ErrRelationExists", err)
	}
	for _, s := range c.Shards() {
		if got := s.DB().Relations(); len(got) != 2 {
			t.Fatalf("shard %d has relations %v, want [a b]", s.ID(), got)
		}
	}
	got := c.Relations()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Relations() = %v, want [a b]", got)
	}
}

// TestSingleClusterDegenerates: the one-shard wrapper routes everything
// to shard 0 — the compatibility mode the unsharded blobserver runs on.
func TestSingleClusterDegenerates(t *testing.T) {
	db := newEngine(t)
	c := Single(db)
	t.Cleanup(func() { c.Close() })
	if err := c.CreateRelation("r"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k%d", i)
		if sh := c.Route("r", []byte(k)); sh.ID() != 0 || sh.DB() != db {
			t.Fatalf("key %q routed to shard %d", k, sh.ID())
		}
	}
	clusterPut(t, c, "r", "k", []byte("v"))
	if got, err := clusterGet(c, "r", "k"); err != nil || string(got) != "v" {
		t.Fatalf("get = %q, %v", got, err)
	}
}
