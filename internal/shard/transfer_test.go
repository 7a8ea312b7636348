package shard

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"blobdb/internal/core"
	"blobdb/internal/repl"
)

// TestTransfersAdoptHeldContent: a reshard copy, a replicated record and
// a replica resync each install content the destination already holds
// at another key without moving a content byte — RebalancedBytes stays 0
// and the replica engine copies 0 bytes — and the destination's refcount
// ledger holds afterwards.
func TestTransfersAdoptHeldContent(t *testing.T) {
	ctx := context.Background()
	content := make([]byte, 256<<10)
	rand.New(rand.NewSource(24)).Read(content)
	put := func(db *core.DB, key string) {
		t.Helper()
		if _, err := db.Relation("r"); err != nil {
			if _, err := db.CreateRelation("r"); err != nil {
				t.Fatal(err)
			}
		}
		tx := db.Begin(nil)
		w, err := tx.CreateBlob(ctx, "r", []byte(key))
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
	holds := func(db *core.DB, key string) {
		t.Helper()
		tx := db.Begin(nil)
		defer tx.Commit()
		if got, err := tx.ReadBlobBytes("r", []byte(key)); err != nil || !bytes.Equal(got, content) {
			t.Fatalf("key %q: %d bytes, %v", key, len(got), err)
		}
	}

	t.Run("reshard", func(t *testing.T) {
		c := newCluster(t, 2, Options{})
		if err := c.CreateRelation("r"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			clusterPut(t, c, "r", fmt.Sprintf("k%02d", i), content)
		}
		id, err := c.AddShard(newEngine(t))
		if err != nil {
			t.Fatal(err)
		}
		// The destination already holds the content at a key the next
		// ring routes elsewhere, so the reshard neither moves nor drops it.
		next, dst := c.Ring().Add(id), c.Shard(id).DB()
		seed := "seed"
		for i := 0; next.Shard("r", []byte(seed)) == id; i++ {
			seed = fmt.Sprintf("seed%d", i)
		}
		put(dst, seed)
		if err := c.Rebalance(ctx, id); err != nil {
			t.Fatal(err)
		}
		if c.RebalancedBlobs() == 0 {
			t.Fatal("no row moved to the new shard")
		}
		if got := c.RebalancedBytes(); got != 0 {
			t.Errorf("RebalancedBytes = %d, want 0: the destination held the content", got)
		}
		st := dst.TransferStats()
		if st.CopiedBytes != 0 || st.Outcomes[core.TransferAdopted] != uint64(c.RebalancedBlobs()) {
			t.Errorf("destination TransferStats = %+v, want every move adopted", st)
		}
		if err := dst.CheckLedger(); err != nil {
			t.Error(err)
		}
		for i := 0; i < 20; i++ {
			if got, err := clusterGet(c, "r", fmt.Sprintf("k%02d", i)); err != nil || !bytes.Equal(got, content) {
				t.Fatalf("key %d after reshard: %d bytes, %v", i, len(got), err)
			}
		}
	})

	t.Run("replica", func(t *testing.T) {
		primary, rdb := newEngine(t), newEngine(t)
		put(primary, "a")
		put(rdb, "held")
		rep := repl.NewReplica(rdb, repl.NewEngineSource(primary))

		// Record apply: "a" adopts the extents of the replica's own "held".
		if _, err := rep.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		holds(rdb, "a")
		if st := rdb.TransferStats(); st.CopiedBytes != 0 || st.Outcomes[core.TransferAdopted] != 1 {
			t.Errorf("after record apply TransferStats = %+v, want one adopt and 0 bytes fetched", st)
		}

		// Resync: truncate the records the replica still needs, so it
		// installs a snapshot holding "a" (kept) and "b" (adopted).
		for i := 0; primary.WAL().TruncatedLSN() <= rep.AppliedLSN(); i++ {
			if i == 100 {
				t.Fatal("checkpoints did not truncate the log past the replica")
			}
			put(primary, "b")
			if err := primary.WAL().Checkpoint(nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rep.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		if rep.Resyncs() != 1 {
			t.Fatalf("resyncs = %d, want 1", rep.Resyncs())
		}
		holds(rdb, "a")
		holds(rdb, "b")
		st := rdb.TransferStats()
		if st.CopiedBytes != 0 || st.Outcomes[core.TransferAdopted] < 2 || st.Outcomes[core.TransferUnchanged] == 0 {
			t.Errorf("after resync TransferStats = %+v, want adopts and unchanged rows, 0 bytes fetched", st)
		}
		if err := rdb.CheckLedger(); err != nil {
			t.Error(err)
		}
	})
}
